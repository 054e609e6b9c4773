"""Thin linear-programming layer, assembled from array blocks.

A column block holds the variables of ``K`` kinds of a run of ``U`` units (a
list of ids; one id is a run without the unit axis) over ``S`` steps: kind
``k`` of unit ``i`` at step ``t`` is column ``start + (i*S + t)*K + k``, just
where one block per unit, added in unit order, would put it.  Row blocks lay
out row families the same way in the inequality (``ub``, ``>=`` rows stored
negated) or equality (``eq``) matrix; a family with fewer steps follows the
interleaved ones within each unit.  Coefficients arrive as numpy COO pieces,
one row family of a whole run at a time, indexed (units, steps).  The first
solve assembles the matrices and freezes the structure; after that only
right-hand sides change, in place, so the R2 fixed point never re-assembles.

The backend is one persistent HiGHS model per problem, driven through the
bindings that ship with scipy.  The first solve passes the whole LP through
the array overload of ``passModel``: the rows of the two CSR matrices, the
inequalities first, as one row-wise buffer set.  From then on the HiGHS
model holds the only solver-side copy of it, since those buffers are freed
before HiGHS runs.  A later solve passes only the row bounds whose
right-hand side changed, and HiGHS starts from the previous basis.  A solve
gives an optimal solution, or an explicit infeasible/unbounded verdict,
deterministic for identical input.  Every solve runs without simplex scaling
(see ``_OPTIONS``).  A cold solve returns what
``scipy.optimize.linprog(method="highs")`` returns for the same arrays when
``simplex_scale_strategy=0`` is forwarded in its ``options``; a warm
re-solve after a right-hand-side change can differ from a cold solve of the
same LP in the last ulp of ``x``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy._core import HighsModelStatus, HighsOptions, HighsStatus, MatrixFormat, ObjSense, _Highs
from scipy.sparse import csr_matrix

from .errors import InvalidSpec, NumericalFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: HiGHS primal and dual feasibility tolerance
FEASIBILITY_TOL = 1e-9
#: the options scipy's linprog(method="highs") passes (presolve, dual simplex,
#: no output), and no simplex scaling.  Survey of `simplex_scale_strategy` on
#: every LP the package solves (HiGHS 1.12.0 of scipy 1.17.1, 2-core x86_64,
#: one in-process run each; simplex iterations, then HiGHS seconds in total):
#:
#:   LP (runs)                          2 = HiGHS default    0 = unscaled        4
#:   1000-unit fleet R1, seeds 1/5/1441 24,152-24,595 25.8  17,186-17,267 11.4  17,797-18,690 14.6
#:   synthetic_100tcl M3-R1 (4 gammas)   3,088-3,100   0.72   2,117-2,177   0.64   2,125-2,190   0.75
#:   synthetic_100tcl reserve S1/S2 (8)  2,656-3,362   2.05   1,501-2,466   2.06   1,464-2,463   1.91
#:   synthetic_100tcl M1/M2 (8)          2,651-2,726   0.38   2,656-2,790   0.42   2,656-2,790   0.45
#:   synthetic_100tcl R2 warm (10)           0-40      0.14       0-40      0.17       0-40      0.22
#:   smoke3, all families (33)               0-82      0.11       0-97      0.12       0-97      0.15
#:   --a1 aggregates (16)                    0-54      0.03       0-50      0.02       0-50      0.04
#:
#: Gammas 0.05/0.15/0.25/0.35, reserve at 0.05/0.30/0.55/0.80.  The default
#: column is these options without the scaling key; naming strategy 2 gives
#: the same x and iterations.  Under 0 and 4 every optimum is within 7.6e-16
#: relative of the default's, and x within 4.4e-12, except on smoke3: its
#: dual-degenerate LPs end on another optimal vertex (max|dx| 1.6 for M3 and
#: reserve, 3.8-7.0 for M1/M2).  Peak RSS of the fleet R1 solve: 474-487 MB
#: by default, 480-482 MB unscaled.
_OPTIONS = {"presolve": "on", "simplex_strategy": 1, "primal_feasibility_tolerance": FEASIBILITY_TOL,
            "dual_feasibility_tolerance": FEASIBILITY_TOL, "output_flag": False, "simplex_scale_strategy": 0}
#: HiGHS model status -> (scipy linprog status code, verdict); any other status is a NumericalFailure
_VERDICTS = {HighsModelStatus.kOptimal: (0, OPTIMAL), HighsModelStatus.kInfeasible: (2, INFEASIBLE),
             HighsModelStatus.kUnbounded: (3, UNBOUNDED)}

#: row family sense -> (matrix, sign of the stored row)
_SENSES = {"<=": ("ub", 1.0), ">=": ("ub", -1.0), "==": ("eq", 1.0)}


#: minimize c @ x s.t. A_ub x <= b_ub, A_eq x == b_eq, bounds[:, 0] <= x <= bounds[:, 1]
LpArrays = namedtuple("LpArrays", "c A_ub b_ub A_eq b_eq bounds")


class RowBlock:
    """Rows of one or more families for a run of units, in one matrix."""

    def __init__(self, prob: LpProblem, units, families: dict[str, str | tuple[str, int]], steps: int):
        spans = {f: (s, steps) if isinstance(s, str) else s for f, s in families.items()}
        matrices = {_SENSES.get(s, (None,))[0] for s, _ in spans.values()}
        if len(matrices) != 1 or None in matrices:
            raise InvalidSpec(f"row families {families} need one matrix")
        self.matrix = matrices.pop()
        self.start = prob._num_rows[self.matrix]
        self.units, self._one = _claim(prob._families, families, units, "row family"), isinstance(units, str)
        width = sum(n == steps for _, n in spans.values())
        self._family, self.size = {}, 0  # family -> (first row within a unit, stride, steps, sign)
        for f, (sense, n) in sorted(spans.items(), key=lambda item: item[1][1] != steps):
            full = n == steps
            self._family[f] = (len(self._family) if full else self.size, width if full else 1, n, _SENSES[sense][1])
            self.size += n
        self.rhs = np.zeros(len(self.units) * self.size)
        self._pieces = prob._pieces[self.matrix]  # no back-reference: no cycle

    def rows(self, family: str) -> np.ndarray:
        """Row indices of `family`, (units, steps)."""
        offset, stride, steps, _ = self._family[family]
        return (self.start + offset + self.size * np.arange(len(self.units)))[:, None] + stride * np.arange(steps)

    def add(self, family: str, cols, vals, at=slice(None)) -> RowBlock:
        """Add `vals` (a scalar or broadcasting to `cols`) at columns `cols` to
        the rows of `family`: `cols[i, ..., j]` goes into unit i's row of step
        `at[j]` (no unit axis in a block of one id)."""
        if self._pieces is None:
            raise InvalidSpec("the LP is assembled: only right-hand sides may change")
        cols = np.atleast_1d(cols)
        vals = np.asarray(vals, dtype=float)
        if not np.isfinite(vals).all():
            raise InvalidSpec(f"non-finite coefficient in row family {family!r} of {list(self.units)[:3]}")
        rows = self.rows(family)[0 if self._one else slice(None), at]
        if rows.shape != cols.shape:
            rows = np.broadcast_to(rows, cols.shape)
        vals = self._family[family][3] * vals
        if vals.shape != cols.shape:
            vals = np.full(cols.shape, vals)
        self._pieces.append((rows.ravel(), cols.ravel(), vals.ravel()))
        return self

    def set_rhs(self, family: str, values, units=slice(None)) -> RowBlock:
        """Right-hand side of `family`, in its own sense, for the units at
        positions `units` (all by default); in place once assembled."""
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise InvalidSpec(f"non-finite right-hand side in row family {family!r} of {list(self.units)[:3]}")
        self.rhs[self.rows(family)[units] - self.start] = self._family[family][3] * values
        return self


class LpProblem:
    """Sparse LP built from column and row blocks; see the module docstring."""

    def __init__(self) -> None:
        self._bound_blocks: list[tuple[np.ndarray, np.ndarray]] = []
        # name -> [(unit id -> position in a block, the block's columns (units, steps) or RowBlock)]
        self._columns: dict[str, list[tuple[dict[str, int], np.ndarray]]] = {}
        self._num_cols = 0
        self._objective: list[tuple[np.ndarray, np.ndarray]] = []
        self._row_blocks: dict[str, list[RowBlock]] = {"ub": [], "eq": []}
        self._families: dict[str, list[tuple[dict[str, int], RowBlock]]] = {}
        self._num_rows = {"ub": 0, "eq": 0}
        self._pieces: dict[str, list] = {"ub": [], "eq": []}
        self._arrays: LpArrays | None = None
        self._model = _Model()

    def add_columns(self, units, kinds: dict[str, tuple], steps: int = 1) -> dict[str, np.ndarray]:
        """Add `kinds` (name -> (lb, ub), broadcasting to (units, steps)) for a
        run of units; returns each kind's column indices, (units, steps)."""
        self._check_open()
        pos = _claim(self._columns, kinds, units, "variable")
        width = len(kinds)
        lb, ub = np.empty((len(pos), steps, width)), np.empty((len(pos), steps, width))
        for k, (lo, hi) in enumerate(kinds.values()):
            lb[..., k], ub[..., k] = lo, hi
        empty = np.argwhere(~(lb <= ub))
        if empty.size:
            i, t, k = empty[0]
            raise InvalidSpec(f"variable {list(kinds)[k]}:{list(pos)[i]} step {t} "
                              f"has empty bounds [{lb[i, t, k]}, {ub[i, t, k]}]")
        start, self._num_cols = self._num_cols, self._num_cols + lb.size
        index = np.arange(start, self._num_cols).reshape(lb.shape)
        out = {kind: index[..., k] for k, kind in enumerate(kinds)}
        for kind, cols in out.items():
            self._columns.setdefault(kind, []).append((pos, cols))
        self._bound_blocks.append((lb.ravel(), ub.ravel()))
        return {kind: cols[0] for kind, cols in out.items()} if isinstance(units, str) else out

    def add_objective(self, cols, coeffs) -> None:
        self._check_open()
        cols, coeffs = np.broadcast_arrays(np.asarray(cols), np.asarray(coeffs, dtype=float))
        if not np.isfinite(coeffs).all():
            raise InvalidSpec("non-finite objective coefficient")
        self._objective.append((cols.ravel(), coeffs.ravel()))

    def add_rows(self, units, families: dict[str, str | tuple[str, int]], steps: int = 1) -> RowBlock:
        """Add `families` (name -> "<=", ">=" or "==", or (sense, fewer steps))
        for a run of units."""
        self._check_open()
        block = RowBlock(self, units, families, steps)
        for family in families:
            self._families.setdefault(family, []).append((block.units, block))
        self._row_blocks[block.matrix].append(block)
        self._num_rows[block.matrix] += block.rhs.size
        return block

    def set_rhs(self, family: str, units, values) -> RowBlock:
        """Right-hand side of one row family, in its own sense (in place), for
        one unit id or for a list of ids from one block: (units, steps)."""
        block, at = _find(self._families, family, units, "row family")
        return block.set_rhs(family, values, at)

    def columns(self, kind: str, units) -> np.ndarray:
        """Column indices of `kind`: (steps,) for one unit id, (units, steps)
        for a list of ids added in one block."""
        cols, at = _find(self._columns, kind, units, "variable")
        return cols[at]

    def row(self, family: str, unit: str, t: int = 0) -> tuple[str, int]:
        """(matrix, index) of one labelled row; matrix is "ub" or "eq"."""
        block, at = _find(self._families, family, unit, "row family")
        return block.matrix, int(block.rows(family)[at, t])

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
                pieces = self._pieces[matrix] or [(np.empty(0, int), np.empty(0, int), np.empty(0))]
                rows, cols, vals = (np.concatenate(p) for p in zip(*pieces))
                mats += [csr_matrix((vals, (rows, cols)), shape=(b.size, n)), b]
            self._arrays = LpArrays(c, *mats, bounds)
            self._pieces = self._objective = self._bound_blocks = None
        return self._arrays


def _claim(table: dict, names, units, what: str) -> dict[str, int]:
    """Positions of `units` (one id or a list) in a new block of `names`;
    refuses a (name, unit) pair that `table` holds already."""
    ids = [units] if isinstance(units, str) else list(units)
    pos = {uid: i for i, uid in enumerate(ids)}
    if len(pos) < len(ids) or any(not held.keys().isdisjoint(pos) for name in names for held, _ in table.get(name, ())):
        raise InvalidSpec(f"duplicate {what} in {list(names)} of {ids[:3]}")
    return pos


def _find(table: dict, name: str, units, what: str):
    """The block entry of `name` that holds `units` (one id, or a list of ids
    of one block), and their positions in it."""
    one = isinstance(units, str)
    for pos, entry in table.get(name, ()):
        at = [pos.get(uid, -1) for uid in ([units] if one else units)]
        if min(at, default=-1) >= 0:
            return entry, at[0] if one else np.array(at)
    raise InvalidSpec(f"unknown {what} {name}:{units if one else list(units)[:3]}")


class _Model:
    """The HiGHS model of one problem, and the row upper bounds it holds."""

    def __init__(self) -> None:
        self.highs = _Highs()
        options = HighsOptions()
        for key, value in _OPTIONS.items():
            setattr(options, key, value)
        self.highs.passOptions(options)
        self.upper: np.ndarray | None = None  # None until the LP is passed


_HighsResult = namedtuple("_HighsResult", "status verdict fun x nit message")


def _check(status, highs: _Highs, call: str) -> None:
    if status == HighsStatus.kError:
        raise NumericalFailure(f"LP backend failed: HiGHS {call} returned an error "
                               f"(model status {highs.modelStatusToString(highs.getModelStatus())})")


def _pass(highs: _Highs, c, A_ub, A_eq, b_eq, bounds, upper) -> None:
    """Pass the whole LP to `highs`, which copies it: the row-wise buffers
    built here, `A_ub`'s rows then `A_eq`'s, die on return, before `run()`."""
    start = np.concatenate((A_ub.indptr[:-1], A_eq.indptr + A_ub.nnz)).astype(np.int32, copy=False)
    index = np.concatenate((A_ub.indices, A_eq.indices)).astype(np.int32, copy=False)
    value = np.concatenate((A_ub.data, A_eq.data))
    lower = np.concatenate((np.full(A_ub.shape[0], -np.inf), b_eq))
    continuous = np.zeros(c.size, np.int32)  # passModel refuses an empty integrality array
    _check(highs.passModel(c.size, upper.size, value.size, MatrixFormat.kRowwise, ObjSense.kMinimize, 0.0,
                           c, *bounds.T, lower, upper, start, index, value, continuous), highs, "passModel")


# Named and called like scipy's linprog: the benchmark tracer wraps `lp.linprog` and reads these arguments.
def linprog(c, *, A_ub, b_ub, A_eq, b_eq, bounds, model: _Model) -> _HighsResult:
    """Solve min c @ x on `model`: the first call passes the whole LP, a later
    one only the row bounds that changed, so HiGHS starts from the last basis."""
    highs, upper = model.highs, np.concatenate((b_ub, b_eq))
    if model.upper is None:
        _pass(highs, c, A_ub, A_eq, b_eq, bounds, upper)
    else:
        for i in np.flatnonzero(upper != model.upper).tolist():
            _check(highs.changeRowBounds(i, -math.inf if i < b_ub.size else upper[i], upper[i]), highs,
                   "changeRowBounds")
    model.upper = upper
    _check(highs.run(), highs, "run")
    status = highs.getModelStatus()
    if status not in _VERDICTS:
        raise NumericalFailure(f"LP backend failed: HiGHS model status {highs.modelStatusToString(status)}")
    code, verdict = _VERDICTS[status]
    info, optimal = highs.getInfo(), verdict == OPTIMAL
    return _HighsResult(code, verdict, info.objective_function_value if optimal else math.nan,
                       np.array(highs.getSolution().col_value) if optimal else np.empty(0),
                       info.simplex_iteration_count, highs.modelStatusToString(status))


@dataclass
class LpSolution:
    status: str  # optimal / infeasible / unbounded
    objective: float
    x: np.ndarray  # column values; empty unless optimal
    nit: int  # HiGHS iterations
    message: str  # HiGHS model status
    rows: int
    cols: int
    nnz: int


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve to optimality; deterministic for an identical sequence of solves."""
    a = problem.arrays()
    res = linprog(a.c, A_ub=a.A_ub, b_ub=a.b_ub, A_eq=a.A_eq, b_eq=a.b_eq, bounds=a.bounds,
                  model=problem._model)
    return LpSolution(res.verdict, res.fun, res.x, res.nit, res.message,
                      a.A_ub.shape[0] + a.A_eq.shape[0], a.c.size, a.A_ub.nnz + a.A_eq.nnz)
