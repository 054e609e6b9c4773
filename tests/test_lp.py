"""Thin LP layer: column and row blocks over the HiGHS backend."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy._core import _Highs

from gesdispatch import lp, optimizer
from gesdispatch.errors import InvalidSpec, NumericalFailure
from gesdispatch.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, solve_lp
from gesdispatch.optimizer import (
    iterative_solve_r2,
    robust_solve_r1,
    solve_cco_diu,
    solve_deterministic_m1,
)
from gesdispatch.reserve import solve_with_reserve
from gesdispatch.scenario import ReserveSpec


def scalar_columns(prob, **kinds):
    """One single-step column per keyword (name=(lb, ub)); name -> index."""
    return {k: int(v[0]) for k, v in prob.add_columns("", kinds).items()}


def test_single_bound():
    p = LpProblem()
    x = scalar_columns(p, x=(3.0, np.inf))["x"]
    p.add_objective(x, 1.0)
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert sol.x[x] == pytest.approx(3.0, abs=1e-9)


def test_two_var_hand_solution():
    p = LpProblem()
    v = scalar_columns(p, x=(0.0, np.inf), y=(0.0, np.inf))
    p.add_objective([v["x"], v["y"]], 1.0)
    p.add_rows("", {"cover": ">="}).add("cover", [v["x"], v["y"]], [1.0, 2.0]).set_rhs("cover", 4.0)
    sol = solve_lp(p)
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.x[v["x"]] == pytest.approx(0.0, abs=1e-9)
    assert sol.x[v["y"]] == pytest.approx(2.0, abs=1e-9)


def test_infeasible_verdict():
    p = LpProblem()
    x = scalar_columns(p, x=(1.0, np.inf))["x"]
    p.add_rows("", {"cap": "<="}).add("cap", x, 1.0)
    sol = solve_lp(p)
    assert sol.status == INFEASIBLE
    assert np.isnan(sol.objective) and sol.x.size == 0


def test_primal_and_dual_infeasible_reads_infeasible():
    p = LpProblem()
    v = scalar_columns(p, x=(-np.inf, np.inf), y=(-np.inf, np.inf))
    p.add_objective([v["x"], v["y"]], -1.0)
    rows = p.add_rows("", {"xy": ">=", "yx": ">="})
    rows.add("xy", [v["x"], v["y"]], [1.0, -1.0]).set_rhs("xy", 1.0)
    rows.add("yx", [v["x"], v["y"]], [-1.0, 1.0]).set_rhs("yx", 1.0)
    assert solve_lp(p).status == INFEASIBLE


def test_unbounded_verdict():
    p = LpProblem()
    x = scalar_columns(p, x=(-np.inf, np.inf))["x"]
    p.add_objective(x, 1.0)
    assert solve_lp(p).status == UNBOUNDED


def test_equality_rows():
    p = LpProblem()
    v = scalar_columns(p, x=(-np.inf, np.inf), y=(-np.inf, np.inf))
    rows = p.add_rows("", {"sum": "==", "diff": "=="})
    rows.add("sum", [v["x"], v["y"]], 1.0).set_rhs("sum", 5.0)
    rows.add("diff", [v["x"], v["y"]], [1.0, -1.0]).set_rhs("diff", 1.0)
    p.add_objective(v["x"], 1.0)
    sol = solve_lp(p)
    assert sol.x[v["x"]] == pytest.approx(3.0, abs=1e-9)
    assert sol.x[v["y"]] == pytest.approx(2.0, abs=1e-9)


def test_deterministic():
    def build():
        p = LpProblem()
        x = p.add_columns("u", {"x": (0.0, 10.0)}, steps=20)["x"]
        p.add_objective(x, 1.0 + 0.1 * np.arange(20))
        p.add_rows("u", {"total": ">="}).add("total", x, 1.0).set_rhs("total", 15.0)
        return solve_lp(p)

    a, b = build(), build()
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x)


def test_solution_reports_size_and_iterations():
    p = LpProblem()
    x = p.add_columns("u", {"x": (0.0, 10.0)}, steps=4)["x"]
    p.add_objective(x, [1.0, 2.0, 3.0, 4.0])
    p.add_rows("u", {"total": ">="}).add("total", x, 1.0).set_rhs("total", 15.0)
    p.add_rows("u", {"pin": "=="}).add("pin", x[:1], 1.0).set_rhs("pin", 2.0)
    sol = solve_lp(p)
    assert (sol.rows, sol.cols, sol.nnz) == (2, 4, 5)
    assert sol.nit >= 0 and isinstance(sol.message, str) and sol.message


def test_blocks_interleave_by_step_and_keep_labels():
    p = LpProblem()
    cols = p.add_columns("a", {"pc": (0.0, 1.0), "soc": (0.2, 0.8)}, steps=3)
    assert list(cols["pc"]) == [0, 2, 4] and list(cols["soc"]) == [1, 3, 5]
    assert p.columns("soc", "a")[2] == 5
    rows = p.add_rows("a", {"up": "<=", "lo": ">="}, steps=3)
    rows.add("up", cols["soc"], 1.0).set_rhs("up", [0.7, 0.7, 0.6])
    rows.add("lo", cols["soc"], 1.0).set_rhs("lo", 0.3)
    assert p.row("lo", "a", 1) == ("ub", 3)
    a = p.arrays()
    # a >= row is stored negated as a <= row
    assert a.A_ub[3, 3] == -1.0 and a.b_ub[3] == -0.3
    assert np.array_equal(a.b_ub, [0.7, -0.3, 0.7, -0.3, 0.6, -0.3])
    assert np.array_equal(a.bounds[:, 0], [0.0, 0.2] * 3)
    with pytest.raises(InvalidSpec):
        p.columns("soc", "b")
    with pytest.raises(InvalidSpec):
        p.row("mid", "a", 0)


def test_rhs_rewrite_after_assembly_is_in_place():
    p = LpProblem()
    x = p.add_columns("u", {"x": (0.0, 10.0)}, steps=2)["x"]
    p.add_objective(x, 1.0)
    p.add_rows("u", {"need": ">="}, steps=2).add("need", x, 1.0).set_rhs("need", [1.0, 2.0])
    first = solve_lp(p)
    arrays = p.arrays()
    p.set_rhs("need", "u", [3.0, 4.0])
    assert p.arrays() is arrays
    assert np.array_equal(arrays.b_ub, [-3.0, -4.0])
    assert first.objective == pytest.approx(3.0) and solve_lp(p).objective == pytest.approx(7.0)
    with pytest.raises(InvalidSpec):
        p.add_columns("v", {"y": (0.0, 1.0)})
    with pytest.raises(InvalidSpec):
        p.add_rows("u", {"more": "<="})


def test_rhs_rewrite_resolves_warm_on_both_matrices():
    p = LpProblem()
    x = p.add_columns("u", {"x": (0.0, 10.0)}, steps=4)["x"]
    p.add_objective(x, [1.0, 2.0, 3.0, 4.0])
    p.add_rows("u", {"total": ">="}).add("total", x, 1.0).set_rhs("total", 15.0)
    p.add_rows("u", {"pin": "=="}).add("pin", x[1:2], 1.0).set_rhs("pin", 2.0)
    assert solve_lp(p).objective == pytest.approx(10.0 + 4.0 + 3.0 * 3.0)
    assert solve_lp(p).nit == 0  # nothing changed: the last basis is optimal
    p.set_rhs("pin", "u", 6.0)
    p.set_rhs("total", "u", 20.0)
    warm = solve_lp(p)
    assert warm.x[x[1]] == pytest.approx(6.0) and warm.objective == pytest.approx(10.0 + 12.0 + 3.0 * 4.0)
    p.set_rhs("pin", "u", 20.0)  # beyond the column bound
    assert solve_lp(p).status == INFEASIBLE
    p.set_rhs("pin", "u", 2.0)
    assert solve_lp(p).objective == pytest.approx(10.0 + 4.0 + 3.0 * 8.0)


def test_highs_bindings_have_every_method_lp_calls():
    called = set(re.findall(r"highs\.(\w+)\(", Path(lp.__file__).read_text()))
    assert {"passModel", "changeRowBounds", "run"} <= called
    assert sorted(m for m in called if not hasattr(_Highs, m)) == []


def test_duplicate_variable_is_rejected():
    p = LpProblem()
    p.add_columns("u", {"x": (0.0, 1.0)})
    with pytest.raises(InvalidSpec, match="duplicate variable"):
        p.add_columns("u", {"y": (0.0, 1.0), "x": (0.0, 1.0)})
    with pytest.raises(InvalidSpec, match="unknown variable"):
        p.columns("y", "u")  # a refused block adds nothing
    p.add_rows("u", {"r": "<="})
    with pytest.raises(InvalidSpec, match="duplicate row family"):
        p.add_rows("u", {"r": "=="})


def test_empty_bounds_are_rejected():
    p = LpProblem()
    with pytest.raises(InvalidSpec, match="empty bounds"):
        p.add_columns("u", {"x": (1.0, 0.0)})
    with pytest.raises(InvalidSpec, match="y:v step 1 has empty bounds"):
        p.add_columns("v", {"x": (0.0, 1.0), "y": ([0.5, 2.0], 1.0)}, steps=2)


def test_non_finite_coefficient_is_rejected():
    p = LpProblem()
    x = p.add_columns("u", {"x": (0.0, 1.0)}, steps=2)["x"]
    rows = p.add_rows("u", {"r": "<="}, steps=2)
    with pytest.raises(InvalidSpec, match="non-finite coefficient"):
        rows.add("r", x, [1.0, np.inf])
    with pytest.raises(InvalidSpec, match="non-finite right-hand side"):
        rows.set_rhs("r", [1.0, np.nan])
    with pytest.raises(InvalidSpec, match="non-finite objective"):
        p.add_objective(x, np.nan)
    with pytest.raises(InvalidSpec):
        p.add_rows("u", {"mixed": "<=", "eq": "=="})


def _scaled_bes1(scn, factor):
    return replace(scn, units=[replace(u, params=replace(u.params, S=u.params.S * factor))
                               if u.unit_id == "bes1" else u for u in scn.units])


FAMILIES = {
    "M1": solve_deterministic_m1,
    "M2": solve_cco_diu,
    "M3-R1": robust_solve_r1,
    "M3-R2": iterative_solve_r2,  # converges on every case below; a capped loop would raise
    "S1": lambda scn: solve_with_reserve(scn, ReserveSpec(mode="S1")),
    "S2": lambda scn: solve_with_reserve(scn, ReserveSpec(mode="S2")),
}


@pytest.mark.parametrize("fixture, gamma, edit, verdict", [
    ("smoke3", 0.05, None, OPTIMAL),
    ("smoke3", 0.55, None, OPTIMAL),
    ("tcl100", 0.05, None, OPTIMAL),
    ("tcl100", 0.55, None, OPTIMAL),
    ("smoke3", 0.05, lambda scn: _scaled_bes1(scn, 100.0), INFEASIBLE),
], ids=["smoke3-0.05", "smoke3-0.55", "tcl100-0.05", "tcl100-0.55", "smoke3-bes1-S100"])
def test_backend_agrees_with_a_default_scaled_highs_solve(request, monkeypatch, fixture, gamma, edit, verdict):
    """The backend's options (no scaling) keep every fixture LP's verdict and
    optimum: each family's last solve against a cold linprog at HiGHS's
    default scaling."""
    scn = replace(request.getfixturevalue(fixture), gamma=gamma, gamma_balance=gamma)
    scn = edit(scn) if edit else scn
    solved = []

    def recording(prob):
        sol = solve_lp(prob)
        a = prob.arrays()
        solved.append((sol, a._replace(b_ub=a.b_ub.copy(), b_eq=a.b_eq.copy())))
        return sol

    monkeypatch.setattr(optimizer, "solve_lp", recording)
    for family, solve in FAMILIES.items():
        before = len(solved)
        if verdict == OPTIMAL:
            solve(scn)
        else:
            with pytest.raises(NumericalFailure):
                solve(scn)
        assert len(solved) > before, family
        sol, a = solved[-1]
        ref = linprog(a.c, A_ub=a.A_ub, b_ub=a.b_ub, A_eq=a.A_eq, b_eq=a.b_eq, bounds=a.bounds, method="highs",
                      options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9})
        assert (sol.status, {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(ref.status)) == (verdict, verdict), family
        if verdict == OPTIMAL:
            assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=0.0), family
