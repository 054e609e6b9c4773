"""Tests of the benchmark itself.  They run the `tcl100-r2-eval` calls on the
3-unit `smoke3` fixture, with one reserve gamma and 20 draws, so none of them
runs a full workload.

    python3 -m pytest -q bench
"""

import importlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gesdispatch import optimizer, scenario_io  # noqa: E402
from gesdispatch.errors import NumericalFailure  # noqa: E402

SMOKE3 = ROOT / "fixtures" / "smoke3"
EXACT = ("lp.rows", "lp.cols", "lp.nnz", "lp.highs_iters", "ges.map_calls",
         "optimizer.build_calls", "optimizer.r2_iterations", "reliability.unit_draws")


def _mini_workload(rec: tracing.Recorder) -> workloads.Ops:
    ops = workloads.Ops(rec)
    workloads.tcl100_r2_eval(ops, SMOKE3, seed=3, units=3, draws=20, reserve_gammas=(0.05,))
    return ops


def _targets():
    return {(mod, attr): getattr(importlib.import_module(f"gesdispatch.{mod}"), attr)
            for _, mod, attr, _ in tracing.TARGETS}


def test_traced_counts_repeat_exactly_and_wrappers_are_removed():
    before = _targets()
    runs = []
    for _ in range(2):
        rec = tracing.Recorder()
        with tracing.traced(rec) as (present, missing):
            ops = _mini_workload(rec)
        assert missing == []
        assert (ops.attempted, ops.failed) == (5, 0), ops.failures
        runs.append(tracing.layer_metrics(rec, present))
    assert all(fn is before[key] for key, fn in _targets().items())

    exact = {k: v for k, v in runs[0].items() if k.split(".", 1)[1] in EXACT}
    assert exact == {k: runs[1][k] for k in exact}
    assert exact["solve.optimizer.build_calls"] == exact["solve.optimizer.r2_iterations"] + 1
    assert exact["evaluate.reliability.unit_draws"] == 3 * 20
    assert exact["evaluate.ges.map_calls"] > 3  # the BES and EV units map every draw
    assert exact["reserve.lp.cols"] > exact["solve.lp.cols"]


def test_wrappers_are_removed_when_the_workload_raises():
    before = _targets()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Recorder()):
            raise RuntimeError("boom")
    assert all(fn is before[key] for key, fn in _targets().items())


def test_missing_wrap_target_makes_its_metrics_absent():
    targets = [t for t in tracing.TARGETS if t[0] != "lp.highs"]
    targets.append(("lp.highs", "lp", "no_such_function", None))
    rec = tracing.Recorder()
    scn = scenario_io.load_scenario(SMOKE3)
    with tracing.traced(rec, targets=targets) as (present, missing):
        with rec.phase("solve"):
            optimizer.solve_cco_diu(scn)
    layers = tracing.layer_metrics(rec, present)
    assert missing == ["lp.no_such_function"]
    assert layers["solve.lp.highs_s"] is None
    assert layers["solve.lp.stack_s"] is None
    assert layers["solve.lp.solve_s"] > 0


@pytest.fixture(scope="module")
def smoke3():
    scn = scenario_io.load_scenario(SMOKE3)
    return scn, optimizer.iterative_solve_r2(scn)


def _run_r2(ops, scn, strategy):
    return ops.run("solve", "M3-R2", lambda: strategy, ops.check_strategy(scn))


def test_checked_strategy_passes(smoke3):
    scn, r2 = smoke3
    ops = workloads.Ops(tracing.Recorder(), {"M3-R2": r2.objective_value * (1 + 1e-8)})
    _run_r2(ops, scn, r2)
    assert (ops.attempted, ops.failed) == (1, 0), ops.failures


@pytest.mark.parametrize("recorded", [False, True])
def test_perturbed_objective_is_a_failed_operation(smoke3, recorded):
    scn, r2 = smoke3
    ops = workloads.Ops(tracing.Recorder(), {"M3-R2": r2.objective_value} if recorded else None)
    _run_r2(ops, scn, replace(r2, objective_value=r2.objective_value * (1 + 1e-6)))
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "objective" in ops.failures[0]


def test_unconverged_r2_is_a_failed_operation(smoke3):
    scn, r2 = smoke3
    ops = workloads.Ops(tracing.Recorder())
    _run_r2(ops, scn, replace(r2, metadata=replace(r2.metadata, converged=False)))
    assert (ops.attempted, ops.failed) == (1, 1)
    assert ops.failures == ["M3-R2: R2 did not converge"]


def test_raised_package_error_is_a_failed_operation(smoke3):
    scn, _ = smoke3
    ops = workloads.Ops(tracing.Recorder())

    def fail():
        raise NumericalFailure("LP returned infeasible")
    assert ops.run("solve", "M3-R2", fail, ops.check_strategy(scn)) is None
    workloads._evaluate(ops, "evaluate M3-R2", None, scn, 20, 1)
    assert (ops.attempted, ops.failed) == (2, 2)


def test_recorded_objectives_cover_the_fixture_workload():
    assert set(workloads.load_expected("tcl100-r2-eval")) == {
        "M3-R2", *(f"{m} g{g:.2f}" for g in workloads.RESERVE_GAMMAS for m in ("S1", "S2"))}
    assert workloads.load_expected("fleet1000-r1") is None


def test_benchmark_json_names_are_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_NAMES)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_INPUTS)
    assert list(run.WORKLOAD_INPUTS) == list(workloads.WORKLOADS)
    produced = set(tracing.layer_metrics(tracing.Recorder(), set()))
    produced |= {f"overhead.{name}" for name in run.E2E_NAMES}
    assert {m["name"] for m in spec["per_layer"]} <= produced
