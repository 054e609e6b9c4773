"""Thin linear-programming layer, assembled from array blocks.

A column block holds one unit's variables of ``K`` kinds over a number of
steps, interleaved by step: kind ``k`` at step ``t`` is column
``start + t*K + k``.  Row blocks lay out row families the same way in the
inequality (``ub``, ``>=`` rows stored negated) or equality (``eq``) matrix.
Coefficients arrive as numpy COO pieces, one row family at a time; columns
and rows are labelled ``(kind or family, unit, step)``.  The first solve
assembles the matrices and freezes the structure; after that only
right-hand sides change, in place, so solves that differ only there (the R2
fixed point) never re-assemble.  The backend is scipy's HiGHS: an optimal
solution, or an explicit infeasible/unbounded verdict, deterministic for
identical input.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .errors import InvalidSpec, NumericalFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: row family sense -> (matrix, sign of the stored row)
_SENSES = {"<=": ("ub", 1.0), ">=": ("ub", -1.0), "==": ("eq", 1.0)}


#: minimize c @ x s.t. A_ub x <= b_ub, A_eq x == b_eq, bounds[:, 0] <= x <= bounds[:, 1]
LpArrays = namedtuple("LpArrays", "c A_ub b_ub A_eq b_eq bounds")


class RowBlock:
    """Rows of one or more families over `steps` steps, in one matrix."""

    def __init__(self, prob: LpProblem, unit: str, families: dict[str, str], steps: int):
        matrices = {_SENSES.get(s, (None,))[0] for s in families.values()}
        if len(matrices) != 1 or None in matrices:
            raise InvalidSpec(f"row families of {unit!r} need one matrix, got {families}")
        self.matrix = matrices.pop()
        self.start = prob._num_rows[self.matrix]
        self.width = len(families)
        self.rhs = np.zeros(self.width * steps)
        self._pieces, self._unit = prob._pieces[self.matrix], unit  # no back-reference: no cycle
        self._family = {f: (k, _SENSES[s][1]) for k, (f, s) in enumerate(families.items())}

    def rows(self, family: str) -> np.ndarray:
        """Row indices of `family`, one per step."""
        return np.arange(self.start + self._family[family][0], self.start + self.rhs.size, self.width)

    def add(self, family: str, cols, vals, at=slice(None)) -> RowBlock:
        """Add `vals` (a scalar or the shape of `cols`) at columns `cols` to the
        rows of `family`: `cols[..., i]` goes into the row of step `at[i]`."""
        if self._pieces is None:
            raise InvalidSpec("the LP is assembled: only right-hand sides may change")
        cols = np.atleast_1d(cols)
        vals = np.asarray(vals, dtype=float)
        if not np.isfinite(vals).all():
            raise InvalidSpec(f"non-finite coefficient in row family {family!r} of {self._unit!r}")
        rows = self.rows(family)[at]
        if rows.shape != cols.shape:
            rows = np.broadcast_to(rows, cols.shape)
        vals = self._family[family][1] * vals
        if vals.shape != cols.shape:
            vals = np.full(cols.shape, vals)
        self._pieces.append((rows.ravel(), cols.ravel(), vals.ravel()))
        return self

    def set_rhs(self, family: str, values) -> RowBlock:
        """Right-hand side of `family`, in its own sense; in place once assembled."""
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise InvalidSpec(f"non-finite right-hand side in row family {family!r} of {self._unit!r}")
        k, sign = self._family[family]
        self.rhs[k::self.width] = sign * values
        return self


class LpProblem:
    """Sparse LP built from column and row blocks; see the module docstring."""

    def __init__(self) -> None:
        self._bound_blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self._columns: dict[tuple[str, str], np.ndarray] = {}
        self._num_cols = 0
        self._objective: list[tuple[np.ndarray, np.ndarray]] = []
        self._row_blocks: dict[str, list[RowBlock]] = {"ub": [], "eq": []}
        self._families: dict[tuple[str, str], RowBlock] = {}
        self._num_rows = {"ub": 0, "eq": 0}
        self._pieces: dict[str, list] = {"ub": [], "eq": []}
        self._arrays: LpArrays | None = None

    def add_columns(self, unit: str, kinds: dict[str, tuple], steps: int = 1) -> dict[str, np.ndarray]:
        """Add `kinds` (name -> (lb, ub), scalars or per-step arrays) for `unit`;
        returns each kind's column indices, one per step."""
        self._check_open()
        if any((kind, unit) in self._columns for kind in kinds):
            raise InvalidSpec(f"duplicate variable in {list(kinds)} of {unit!r}")
        width = len(kinds)
        lb, ub = np.empty(width * steps), np.empty(width * steps)
        for k, (lo, hi) in enumerate(kinds.values()):
            lb[k::width], ub[k::width] = lo, hi
        empty = np.flatnonzero(~(lb <= ub))
        if empty.size:
            i = empty[0]
            raise InvalidSpec(f"variable {list(kinds)[i % width]}:{unit} step {i // width} "
                              f"has empty bounds [{lb[i]}, {ub[i]}]")
        start, self._num_cols = self._num_cols, self._num_cols + width * steps
        out = {kind: np.arange(start + k, self._num_cols, width) for k, kind in enumerate(kinds)}
        self._columns.update(((kind, unit), cols) for kind, cols in out.items())
        self._bound_blocks.append((lb, ub))
        return out

    def add_objective(self, cols, coeffs) -> None:
        self._check_open()
        cols, coeffs = np.broadcast_arrays(np.asarray(cols), np.asarray(coeffs, dtype=float))
        if not np.isfinite(coeffs).all():
            raise InvalidSpec("non-finite objective coefficient")
        self._objective.append((cols.ravel(), coeffs.ravel()))

    def add_rows(self, unit: str, families: dict[str, str], steps: int = 1) -> RowBlock:
        """Add `families` (name -> "<=", ">=" or "==") for `unit`, interleaved by
        step as the columns are."""
        self._check_open()
        if any((family, unit) in self._families for family in families):
            raise InvalidSpec(f"duplicate row family in {list(families)} of {unit!r}")
        block = RowBlock(self, unit, families, steps)
        self._families.update(((family, unit), block) for family in families)
        self._row_blocks[block.matrix].append(block)
        self._num_rows[block.matrix] += block.rhs.size
        return block

    def set_rhs(self, family: str, unit: str, values) -> RowBlock:
        """Right-hand side of one row family, in its own sense (in place)."""
        return _lookup(self._families, family, unit, "row family").set_rhs(family, values)

    def columns(self, kind: str, unit: str) -> np.ndarray:
        return _lookup(self._columns, kind, unit, "variable")

    def row(self, family: str, unit: str, t: int = 0) -> tuple[str, int]:
        """(matrix, index) of one labelled row; matrix is "ub" or "eq"."""
        block = _lookup(self._families, family, unit, "row family")
        return block.matrix, int(block.rows(family)[t])

    def _check_open(self) -> None:
        if self._arrays is not None:
            raise InvalidSpec("the LP is assembled: only right-hand sides may change")

    def arrays(self) -> LpArrays:
        """Assemble once; later calls return the same arrays, with the
        right-hand sides as last set."""
        if self._arrays is None:
            n = self._num_cols
            c = np.zeros(n)
            for cols, coeffs in self._objective:
                c[cols] += coeffs
            bounds = np.empty((n, 2))
            for j, part in enumerate(zip(*self._bound_blocks)):
                bounds[:, j] = np.concatenate(part)
            mats = []
            for matrix, blocks in self._row_blocks.items():
                b = np.concatenate([blk.rhs for blk in blocks] or [np.empty(0)])
                for blk in blocks:  # from now on a block writes its rhs into b, and adds no rows
                    blk.rhs, blk._pieces = b[blk.start:blk.start + blk.rhs.size], None
                if not b.size:
                    mats += [None, None]
                    continue
                pieces = self._pieces[matrix] or [(np.empty(0, int), np.empty(0, int), np.empty(0))]
                rows, cols, vals = (np.concatenate(p) for p in zip(*pieces))
                mats += [csr_matrix((vals, (rows, cols)), shape=(b.size, n)), b]
            self._arrays = LpArrays(c, *mats, bounds)
            self._pieces = self._objective = None
        return self._arrays


def _lookup(table: dict, name: str, unit: str, what: str):
    try:
        return table[name, unit]
    except KeyError:
        raise InvalidSpec(f"unknown {what} {name}:{unit}") from None


@dataclass
class LpSolution:
    status: str  # optimal / infeasible / unbounded
    objective: float
    x: np.ndarray  # column values; empty unless optimal
    nit: int  # HiGHS iterations
    message: str  # HiGHS status message
    rows: int
    cols: int
    nnz: int


def solve_lp(problem: LpProblem, tol: float = 1e-9) -> LpSolution:
    """Solve to optimality; deterministic for identical problems."""
    a = problem.arrays()
    res = linprog(a.c, A_ub=a.A_ub, b_ub=a.b_ub, A_eq=a.A_eq, b_eq=a.b_eq, bounds=a.bounds,
                  method="highs",
                  options={"primal_feasibility_tolerance": tol, "dual_feasibility_tolerance": tol})
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(res.status)
    if status is None:
        raise NumericalFailure(f"LP backend failed: status={res.status}, message={res.message}")
    mats = [m for m in (a.A_ub, a.A_eq) if m is not None]
    optimal = status == OPTIMAL
    return LpSolution(
        status, float(res.fun) if optimal else math.nan, res.x if optimal else np.empty(0),
        int(res.nit), str(res.message),
        sum(m.shape[0] for m in mats), a.c.size, sum(m.nnz for m in mats),
    )
