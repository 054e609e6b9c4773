"""Command-line interface.

Subcommands:

* ``solve``    — run the day-ahead dispatch on a scenario directory;
* ``evaluate`` — Monte-Carlo ex-post evaluation of a saved strategy;
* ``bounds``   — print the worst-case tail-factor catalog;
* ``sweep``    — compare model modes / gammas on one scenario;
* ``reserve``  — reserve-backed dispatch over a gamma sweep.

``solve``, ``sweep`` and ``reserve`` write a ``manifest.yaml`` (configuration
echo and seeds, no timestamps) sufficient to reproduce their outputs
byte-for-byte; ``evaluate`` and ``bounds`` write none.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .cantelli import ShapeClass, cantelli_bound, parse_shape, student_t
from .errors import GesDispatchError, InfeasibleBounds, InvalidSpec, MaxIterationsExceeded, ValidationError, first_few
from .ges import UnitSchedule
from .optimizer import (
    DispatchStrategy,
    SolveMetadata,
    aggregate_scenario,
    iterative_solve_r2,
    robust_solve_r1,
    solve_cco_diu,
    solve_deterministic_m1,
)
from .reliability import evaluate_many, evaluate_reliability
from .reserve import solve_with_reserve
from .scenario import RESERVE_MODES, ReserveSpec, ScenarioBundle
from .scenario_io import fmt, load_scenario, read_steps, read_yaml, write_table


MODEL_MODES = ("M1", "M2", "M3")


@dataclass
class RunConfig:
    """Run options of one solve: the one definition of the `solve` flags (each
    flag's `dest` is a field) and of their defaults; `manifest.yaml` echoes it."""

    model_mode: str = "M3"
    reformulation: str = "R1"
    shape: str | None = None  # None keeps the scenario's shape class
    shape_nu: float | None = None
    gamma: float | None = None
    gamma_balance: float | None = None
    delta: float = 1e-3
    max_iter: int = 25
    window: str | None = None
    discomfort_variant: str | None = None
    a1: bool = False
    a2: bool = False
    reserve: str = "none"

    def __post_init__(self):
        """Reject bad options, listing every one; needs no scenario, so it runs before one is loaded."""
        issues = []
        if self.reformulation == "R2" and self.model_mode != "M3":
            issues.append("R2 requires model mode M3")
        for flag, g in (("--gamma", self.gamma), ("--gamma-balance", self.gamma_balance)):
            if g is not None and not 0.0 < g < 1.0:
                issues.append(f"{flag}: {g} must lie in (0, 1)")
        kind = None
        if self.shape is not None:
            try:
                kind = parse_shape(self.shape).kind
            except InvalidSpec as exc:
                issues.append(f"--shape: {exc}")
        if self.shape_nu is not None:
            if kind != "student_t":
                issues.append("--nu: only the student_t shape class (--shape t) takes a nu")
            else:
                try:
                    student_t(self.shape_nu)
                except InvalidSpec as exc:
                    issues.append(f"--nu: {exc}")
        if not self.delta > 0:
            issues.append(f"--delta: {self.delta} must be > 0")
        if self.max_iter < 1:
            issues.append(f"--max-iter: {self.max_iter} must be >= 1")
        if issues:
            raise ValidationError(issues)


def _parse_window(text: str, horizon: int) -> np.ndarray:
    """Step mask of `--window`: steps `t` and inclusive ranges `a-b`, comma-separated."""
    mask = np.zeros(horizon, dtype=bool)
    issues = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        a, _, b = part.partition("-")
        try:
            lo, hi = int(a), int(b or a)
        except ValueError:
            issues.append(f"--window: {part!r} is not a step or a step range a-b")
            continue
        if not 0 <= lo <= hi < horizon:
            issues.append(f"--window: {part!r} is not an ascending range of steps 0-{horizon - 1}")
            continue
        mask[lo: hi + 1] = True
    if issues:
        raise ValidationError(issues)
    return mask


def _parse_gammas(text: str, issues: list[str], top: bool = False) -> list[float]:
    """The risk levels of `--gammas`, comma-separated, each in (0, 1), or in
    (0, 1] with `top` (the worst-case table is defined at gamma = 1); a bad
    entry is appended to `issues` and left out."""
    gammas = []
    for part in (p.strip() for p in text.split(",")):
        try:
            g = float(part)
        except ValueError:
            issues.append(f"--gammas: {part!r} is not a number" if part else f"--gammas: empty entry in {text!r}")
            continue
        if not (0.0 < g < 1.0 or (top and g == 1.0)):
            issues.append(f"--gammas: {part} must lie in (0, {'1]' if top else '1)'}")
            continue
        gammas.append(g)
    return gammas


def _apply_config(scn: ScenarioBundle, cfg: RunConfig) -> ScenarioBundle:
    kw = {}
    if cfg.gamma is not None:
        kw["gamma"] = cfg.gamma
        kw["gamma_balance"] = cfg.gamma_balance if cfg.gamma_balance is not None else cfg.gamma
    elif cfg.gamma_balance is not None:
        kw["gamma_balance"] = cfg.gamma_balance
    if cfg.shape:
        # `--shape t` without `--nu` keeps a student_t scenario's own nu
        nu = scn.shape_class.nu if cfg.shape_nu is None else cfg.shape_nu
        kw["shape_class"] = parse_shape(cfg.shape, nu)
    if cfg.window:
        kw["dispatch_window"] = _parse_window(cfg.window, scn.horizon)
    scn = replace(scn, **kw)
    try:
        scn.validate()
    except ValidationError as exc:  # only a risk level off the scenario's tabulated DIU levels can fail here
        given = {"--gamma": cfg.gamma, "--gamma-balance": cfg.gamma_balance}
        flags = " ".join(f"{k} {v}" for k, v in given.items() if v is not None)
        raise ValidationError([f"{issue} (set by {flags})" for issue in exc.issues]) from None
    if cfg.discomfort_variant:
        scn = replace(scn, units=[
            replace(u, ddu=replace(u.ddu, discomfort_variant=cfg.discomfort_variant))
            for u in scn.units
        ])
    return scn


def _dispatch(scn: ScenarioBundle, cfg: RunConfig) -> DispatchStrategy:
    if cfg.a1:
        scn = aggregate_scenario(scn)
    if cfg.reserve != "none":
        spec = scn.reserve or ReserveSpec()
        return solve_with_reserve(scn, replace(spec, mode=cfg.reserve))
    if cfg.model_mode == "M1":
        return solve_deterministic_m1(scn)
    if cfg.model_mode == "M2":
        return solve_cco_diu(scn)
    if cfg.reformulation == "R1":
        return robust_solve_r1(scn)
    try:
        return iterative_solve_r2(scn, delta=cfg.delta, max_iter=2 if cfg.a2 else cfg.max_iter)
    except MaxIterationsExceeded as exc:
        if not cfg.a2:
            raise
        return exc.strategy  # --a2 keeps the capped loop's last iterate, marked unconverged


# ---------------------------------------------------------------------------
# Artifacts


def write_manifest(out: Path, config: dict, scenario_path: str) -> None:
    """Echo the version, scenario and `config`, which holds no output path:
    numeric artifacts must not depend on where they are written."""
    doc = {"version": __version__, "scenario": str(scenario_path), "config": config}
    (out / "manifest.yaml").write_text(yaml.safe_dump(doc, sort_keys=True))


def write_strategy(out: Path, strategy: DispatchStrategy) -> None:
    out.mkdir(parents=True, exist_ok=True)
    reserve = strategy.reserve_schedule or {}
    write_table(out / "strategy_units.csv", ["unit_id", "t", "p_c", "p_d", "soc_next", "rd", "reserve"], (
        [uid, t, fmt(s.p_c[t]), fmt(s.p_d[t]), fmt(s.soc[t + 1]), fmt(strategy.rd[uid][t]),
         fmt(reserve[uid][t]) if uid in reserve else ""]
        for uid, s in sorted(strategy.schedules.items()) for t in range(s.p_c.shape[0])))
    write_table(out / "strategy_system.csv", ["t", "grid_import"], enumerate(map(fmt, strategy.grid_import)))
    meta = strategy.metadata
    doc = {
        "objective": fmt(strategy.objective_value),
        "mode": meta.mode,
        "reformulation": meta.reformulation,
        "iterations": meta.iterations,
        "converged": meta.converged,
        "gamma": fmt(meta.gamma),
    }
    if strategy.reserve_diag:
        doc["reserve"] = {k: (v if isinstance(v, str) else fmt(v))
                          for k, v in strategy.reserve_diag.items()}
    (out / "summary.yaml").write_text(yaml.safe_dump(doc, sort_keys=True))
    if meta.trace:
        write_table(out / "trace.csv", ["iteration", "objective", "max_delta_f_inv"],
                    ([k, fmt(obj), fmt(d)] for k, (obj, d) in enumerate(meta.trace)))


def read_strategy(path: Path, scn: ScenarioBundle) -> DispatchStrategy:
    """Reload a strategy written by write_strategy; its tables must hold one
    row per step of every scenario unit and of the system.  The `reserve`
    column is blank unless `summary.yaml` has a reserve block, and then it
    holds every step of every unit: the reserve schedule, next to the
    block's diagnostics."""
    units_csv, issues = path / "strategy_units.csv", []
    tables = read_steps(units_csv, ("unit_id",), ("p_c", "p_d", "soc_next", "rd", "reserve"), scn.horizon, issues,
                        optional=("reserve",))
    system = read_steps(path / "strategy_system.csv", (), ("grid_import",), scn.horizon, issues)
    summary = read_yaml(path / "summary.yaml")
    reserved = "reserve" in summary
    missing = [u.unit_id for u in scn.units if tables is not None and (u.unit_id,) not in tables]
    if missing:
        issues.append(f"{units_csv}: no schedule for scenario unit(s) " + first_few(missing))
    for u in scn.units:
        table = None if tables is None else tables.get((u.unit_id,))
        blank = np.zeros(0, dtype=bool) if table is None else np.isnan(table[4])
        if reserved and blank.any():
            issues.append(f"{units_csv}: unit {u.unit_id} has no reserve for step(s) {first_few(np.flatnonzero(blank))}")
        elif not reserved and not blank.all():
            issues.append(f"{units_csv}: unit {u.unit_id} has reserve values, but summary.yaml has no reserve block")
    try:
        objective = float(summary["objective"])
        meta = SolveMetadata(mode=summary["mode"], reformulation=summary.get("reformulation"),
                             iterations=int(summary.get("iterations", 0)),
                             converged=bool(summary.get("converged", True)), gamma=float(summary["gamma"]))
        diag = {k: v if k == "mode" else float(v) for k, v in summary["reserve"].items()} if reserved else None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        issues.append(f"{path / 'summary.yaml'}: missing or bad value: {exc}")
    if issues:
        raise ValidationError(issues)
    schedules, rd, reserve = {}, {}, {}
    for u in scn.units:
        p_c, p_d, soc_next, rd[u.unit_id], reserve[u.unit_id] = tables[(u.unit_id,)]
        schedules[u.unit_id] = UnitSchedule(p_c=p_c, p_d=p_d, soc=np.concatenate(([u.params.soc_init], soc_next)))
    (grid,) = system[()]
    return DispatchStrategy(schedules=schedules, grid_import=grid, rd=rd, objective_value=objective, metadata=meta,
                            reserve_schedule=reserve if reserved else None, reserve_diag=diag)


def write_report(out: Path, report) -> None:
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "lorp": fmt(report.lorp),
        "erns_total_signed_kwh": fmt(report.erns_total_signed),
        "erns_total_abs_kwh": fmt(report.erns_total_abs),
        "cost_da": fmt(report.cost_da),
        "cost_rt": fmt(report.cost_rt),
        "cost_tc": fmt(report.cost_tc),
        "crossings": report.crossings,
        "gamma": fmt(report.gamma),
        "draws": report.draws,
        "seed": report.seed,
    }
    (out / "report.yaml").write_text(yaml.safe_dump(doc, sort_keys=True))
    write_table(out / "erns.csv", ["t", "erns_kwh"], enumerate(map(fmt, report.erns)))
    write_table(out / "violation_freq.csv", ["unit_id", "t", "freq"],
                ([uid, t, fmt(v)] for uid, freq in sorted(report.violation_freq.items()) for t, v in enumerate(freq)))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_solve(args) -> int:
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    scn = _apply_config(load_scenario(args.scenario), cfg)
    out = Path(args.out)
    strategy = _dispatch(scn, cfg)
    write_strategy(out, strategy)
    write_manifest(out, asdict(cfg), args.scenario)
    print(f"objective {strategy.objective_value:.6f} -> {out}")
    return 0


def _sampling_issues(args) -> list[str]:
    """The problems of a Monte-Carlo `--draws` or `--seed`, refused before any work is done."""
    issues = []
    if args.draws < 1:
        issues.append(f"--draws: {args.draws} draws; at least 1 is needed")
    if args.seed < 0:
        issues.append(f"--seed: {args.seed} is negative")
    return issues


def cmd_evaluate(args) -> int:
    if issues := _sampling_issues(args):
        raise ValidationError(issues)
    # the evaluator reads no DIU statistics; the load still refuses an identification range with an invalid device
    scn = load_scenario(args.scenario, compute_stats=False)
    strategy = read_strategy(Path(args.strategy), scn)
    report = evaluate_reliability(strategy, scn, args.draws, args.seed)
    out = Path(args.out)
    write_report(out, report)
    print(f"LORP {report.lorp:.4f}  cost_rt {report.cost_rt:.4f} -> {out}")
    return 0


def cmd_bounds(args) -> int:
    issues = []
    gammas = _parse_gammas(args.gammas, issues, top=True)
    try:
        t_row = student_t(args.nu)
    except InvalidSpec as exc:
        issues.append(f"--nu: {exc}")
    if issues:
        raise ValidationError(issues)
    shapes = [
        ShapeClass("no_assumption"), ShapeClass("symmetric"), ShapeClass("unimodal"),
        ShapeClass("symmetric_unimodal"), t_row, ShapeClass("normal"),
    ]
    rows = [["shape"] + [fmt(g) for g in gammas]]
    for s in shapes:
        label = s.kind if s.nu is None else f"{s.kind}({fmt(s.nu)})"
        rows.append([label] + [fmt(cantelli_bound(s, g)) for g in gammas])
    text = "\n".join(",".join(r) for r in rows) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def _solve_grid(args, choices, config, name: str, columns: list[str], values, echo: dict, issues: list) -> int:
    """Solve `config(gamma, mode)` for every `--gammas` x `--modes` pair and
    write one CSV row per solve: gamma, mode, the day-ahead cost, then the
    `columns` that `values(base, strategies)` returns for each solve, in
    order (`base` is the scenario as loaded).  The manifest echoes the grid
    and the other options in `echo`.  Every problem of the options, those in
    `issues` first, is listed once before the scenario is loaded."""
    gammas = _parse_gammas(args.gammas, issues)
    modes = args.modes.split(",")
    issues += [f"--modes: unknown mode {m!r} (choose from {', '.join(choices)})" for m in modes if m not in choices]
    configs = []
    # each cell checks itself; with no valid gamma the modes are still checked at the scenario's own
    for gamma in gammas or [None]:
        for mode in modes:
            try:
                configs.append((gamma, mode, config(gamma, mode)))
            except ValidationError as exc:
                issues += exc.issues
    if issues:
        raise ValidationError(dict.fromkeys(issues))
    base = load_scenario(args.scenario)
    # every cell's scenario is checked before the first solve
    cells = [(gamma, mode, cfg, _apply_config(base, cfg)) for gamma, mode, cfg in configs]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    strategies = [_dispatch(scn, cfg) for _, _, cfg, scn in cells]
    rows = [[fmt(gamma), mode, fmt(strategy.objective_value), *map(fmt, row)]
            for (gamma, mode, _, _), strategy, row in zip(cells, strategies, values(base, strategies))]
    write_table(out / name, ["gamma", "mode", "cost_da", *columns], rows)
    write_manifest(out, {"gammas": gammas, "modes": modes, **echo}, args.scenario)
    print(f"{len(rows)} rows -> {out / name}")
    return 0


def cmd_sweep(args) -> int:
    def config(gamma, mode):
        # R2 reformulates M3 only; the M1 and M2 rows solve as under R1
        return RunConfig(model_mode=mode, reformulation=args.reform if mode == "M3" else "R1",
                         shape=args.shape, gamma=gamma)

    def values(base, strategies):
        # the cells differ from `base` only in gamma and shape, which the evaluator does not read (a report's
        # gamma is its strategy's): one evaluation draws each unit's noise once for every cell
        reports = evaluate_many(dict(enumerate(strategies)), base, args.draws, args.seed)
        return [(r.lorp, r.cost_rt, r.cost_tc) for r in reports.values()]

    return _solve_grid(args, MODEL_MODES, config, "sweep.csv", ["lorp", "cost_rt", "cost_tc"], values,
                       {"reform": args.reform, "shape": args.shape, "draws": args.draws, "seed": args.seed},
                       _sampling_issues(args))


def cmd_reserve(args) -> int:
    def values(base, strategies):
        return [(d["ges_energy_kwh"], d["reserve_energy_kwh"], d["reserve_cost"])
                for d in (s.reserve_diag for s in strategies)]

    return _solve_grid(args, RESERVE_MODES, lambda gamma, mode: RunConfig(reserve=mode, gamma=gamma),
                       "reserve.csv", ["ges_energy_kwh", "reserve_energy_kwh", "reserve_cost"], values, {}, [])


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ges-dispatch",
                                     description="Day-ahead storage-fleet dispatch under uncertainty")
    default_out = os.environ.get("GES_DISPATCH_OUT", "out")
    sub = parser.add_subparsers(dest="command", required=True)

    # the solve flags: each `dest` is a RunConfig field, and RunConfig holds the defaults
    p = sub.add_parser("solve", help="solve the day-ahead dispatch")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", dest="model_mode", choices=MODEL_MODES)
    p.add_argument("--reform", dest="reformulation", choices=["R1", "R2"])
    p.add_argument("--shape", help="overrides the scenario's shape_class")
    p.add_argument("--nu", dest="shape_nu", metavar="NU", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--gamma-balance", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--window", help="dispatch steps, e.g. 19-22 or 3,4,5")
    p.add_argument("--variant", dest="discomfort_variant", choices=["F1", "F2", "F3"])
    p.add_argument("--a1", action="store_true", help="aggregate the fleet before solving")
    p.add_argument("--a2", action="store_true", help="cap the fixed-point loop at 2 iterations")
    p.add_argument("--reserve", choices=["none", *RESERVE_MODES])
    p.add_argument("--out", default=default_out)
    p.set_defaults(func=cmd_solve, **asdict(RunConfig()))

    p = sub.add_parser("evaluate", help="Monte-Carlo evaluation of a saved strategy")
    p.add_argument("--scenario", required=True)
    p.add_argument("--strategy", required=True, help="directory written by `solve`")
    p.add_argument("--draws", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=default_out)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bounds", help="worst-case tail-factor table")
    p.add_argument("--gammas", default="0.05,0.25,0.45")
    p.add_argument("--nu", type=float, default=5.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="compare modes and gammas")
    p.add_argument("--scenario", required=True)
    p.add_argument("--gammas", default="0.05")
    p.add_argument("--modes", default="M1,M2,M3")
    p.add_argument("--reform", default=RunConfig.reformulation, choices=["R1", "R2"], help="M3 rows' reformulation")
    p.add_argument("--shape", default=None, help="overrides the scenario's shape_class")
    p.add_argument("--draws", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=default_out)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reserve", help="reserve-backed dispatch sweep")
    p.add_argument("--scenario", required=True)
    p.add_argument("--gammas", default="0.05,0.30,0.55,0.80")
    p.add_argument("--modes", default="S1,S2")
    p.add_argument("--out", default=default_out)
    p.set_defaults(func=cmd_reserve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except InfeasibleBounds as exc:  # from `solve`, `sweep` or `reserve`, which all take --out
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "infeasible.yaml").write_text(yaml.safe_dump(
            {"empty_intervals": [
                {"unit": u, "t": int(t), "lower": fmt(lo), "upper": fmt(hi)}
                for u, t, lo, hi in exc.entries]}, sort_keys=True))
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except GesDispatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
