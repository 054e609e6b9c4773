"""The benchmark's workloads: the public library calls the CLI makes, in its
order, each one timed as a phase and checked afterwards.

Why each workload exists, and what it should and should not move, is in
``bench/README.md``.  Library functions are always called through their
module (``optimizer.robust_solve_r1``), so that the traced run's wrappers on
those module attributes see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from gesdispatch import optimizer, reliability, reserve, scenario_io
from gesdispatch.errors import GesDispatchError
from gesdispatch.scenario import ReserveSpec

from tracing import Recorder

#: objective_value against optimizer.evaluate_objective, relative
OBJECTIVE_RTOL = 1e-9
#: objective against the value recorded in expected_objectives.json, relative
RECORDED_RTOL = 1e-7
EXPECTED_FILE = Path(__file__).with_name("expected_objectives.json")

#: The CLI `sweep` default is 2,000 draws, but on the fleet that evaluation
#: alone takes ~10 s against ~2.7 s at 200, and a repetition would no longer
#: fit twice into one run (bench/README.md, "Workloads").
FLEET_EVAL_DRAWS = 200
TCL100_EVAL_DRAWS = 10_000
RESERVE_GAMMAS = (0.05, 0.30, 0.55, 0.80)  # the CLI `reserve` default


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(abs(ref), 1e-300)


@dataclass
class Ops:
    """Counts attempted and failed operations of one repetition.

    An operation is one library call: a raised GesDispatchError or a failed
    output check makes it a failed one.  `expected` holds recorded
    objectives by operation label, or None where the inputs change with the
    seed.
    """

    rec: Recorder
    expected: dict[str, float] | None = None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: list[dict] = field(default_factory=list)

    def run(self, phase: str, label: str, call, check):
        self.attempted += 1
        try:
            with self.rec.phase(phase) as span:
                result = call()
        except GesDispatchError as exc:
            self._fail(label, [f"{type(exc).__name__}: {exc}"])
            return None
        self._fail(label, check(label, result, span))
        return result

    def skip(self, label: str, reason: str) -> None:
        self.attempted += 1
        self._fail(label, [f"not run, {reason}"])

    def _fail(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)

    # -- checks: each returns the list of problems found -------------------

    def check_load(self, units: int):
        def check(label, scn, span):
            if len(scn.units) != units:
                return [f"{len(scn.units)} units, units.csv has {units}"]
            return []
        return check

    def check_strategy(self, scn, with_reserve: bool = False):
        def check(label, strategy, span):
            problems = []
            obj = strategy.objective_value
            meta = strategy.metadata
            self.outputs.append({"op": label, "objective": obj})
            if not with_reserve:
                direct = optimizer.evaluate_objective(scn, strategy)
                if not _close(obj, direct, OBJECTIVE_RTOL):
                    problems.append(f"objective {obj!r} != evaluate_objective {direct!r}")
            if meta.reformulation == "R2":
                span.extra = {"r2_iterations": meta.iterations}
                if not meta.converged:
                    problems.append("R2 did not converge")
            if self.expected is not None:
                want = self.expected.get(label)
                if want is None:
                    problems.append("no recorded objective")
                elif not _close(obj, want, RECORDED_RTOL):
                    problems.append(f"objective {obj!r} != recorded {want!r}")
            return problems
        return check

    def check_report(self, draws: int):
        def check(label, report, span):
            span.extra = {"crossings": report.crossings}
            self.outputs.append({"op": label, "lorp": report.lorp, "cost_rt": report.cost_rt,
                                 "crossings": report.crossings})
            values = [report.lorp, report.cost_rt, report.cost_tc, report.erns_total_signed,
                      report.erns_total_abs, *report.erns]
            problems = []
            if not all(math.isfinite(float(v)) for v in values):
                problems.append("non-finite value in the report")
            if not 0.0 <= report.lorp <= 1.0:
                problems.append(f"LORP {report.lorp!r} outside [0, 1]")
            if report.draws != draws:
                problems.append(f"{report.draws} draws, requested {draws}")
            return problems
        return check


def load_expected(workload: str) -> dict[str, float] | None:
    """Recorded objectives of a fixture workload; None for the generated fleet."""
    return json.loads(EXPECTED_FILE.read_text()).get(workload)


def _load(ops: Ops, path: Path, units: int):
    return ops.run("setup", "load", lambda: scenario_io.load_scenario(path), ops.check_load(units))


def _reserve_sweep(ops: Ops, base, gammas, modes) -> None:
    """The CLI `reserve` command: one reserve-backed solve per gamma and mode."""
    for gamma in gammas:
        scn = replace(base, gamma=gamma, gamma_balance=gamma)
        for mode in modes:
            spec = replace(scn.reserve or ReserveSpec(), mode=mode)
            ops.run("reserve", f"{mode} g{gamma:.2f}",
                    lambda: reserve.solve_with_reserve(scn, spec),
                    ops.check_strategy(scn, with_reserve=True))


def _evaluate(ops: Ops, label: str, strategy, scn, draws: int, seed: int) -> None:
    if strategy is None:
        ops.skip(label, "its strategy failed")
        return
    ops.run("evaluate", label,
            lambda: reliability.evaluate_reliability(strategy, scn, draws, seed),
            ops.check_report(draws))


def fleet1000_r1(ops: Ops, path: Path, seed: int, units: int) -> None:
    """Generated 1000-unit fleet: load, the one-shot robust solve, and an
    evaluation of the robust strategy (which keeps `evaluate_s` non-zero)."""
    scn = _load(ops, path, units)
    if scn is None:
        return
    r1 = ops.run("solve", "M3-R1", lambda: optimizer.robust_solve_r1(scn),
                 ops.check_strategy(scn))
    _evaluate(ops, "evaluate M3-R1", r1, scn, FLEET_EVAL_DRAWS, seed)


def tcl100_r2_eval(ops: Ops, path: Path, seed: int, units: int,
                   draws: int = TCL100_EVAL_DRAWS, reserve_gammas=RESERVE_GAMMAS) -> None:
    """`synthetic_100tcl`: load, the R2 fixed point, the CLI reserve sweep,
    and a 10k-draw evaluation of the R2 strategy."""
    scn = _load(ops, path, units)
    if scn is None:
        return
    r2 = ops.run("solve", "M3-R2", lambda: optimizer.iterative_solve_r2(scn),
                 ops.check_strategy(scn))
    _reserve_sweep(ops, scn, reserve_gammas, ("S1", "S2"))
    _evaluate(ops, "evaluate M3-R2", r2, scn, draws, seed)


WORKLOADS = {
    "fleet1000-r1": fleet1000_r1,
    "tcl100-r2-eval": tcl100_r2_eval,
}
