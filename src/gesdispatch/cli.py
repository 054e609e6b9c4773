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
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .cantelli import ShapeClass, cantelli_bound, parse_shape
from .errors import GesDispatchError, InfeasibleBounds, InvalidSpec, ValidationError, first_few
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
from .reliability import evaluate_reliability
from .reserve import solve_with_reserve
from .scenario import RESERVE_MODES, ReserveSpec, ScenarioBundle
from .scenario_io import fmt, load_scenario, read_steps, read_yaml, write_table


MODEL_MODES = ("M1", "M2", "M3")


@dataclass
class RunConfig:
    """Run options of one solve; mirrors the solve-family CLI flags."""

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
    out: str = "out"

    def __post_init__(self):
        """Reject bad options, listing every one; needs no scenario, so it runs before one is loaded."""
        issues = []
        if self.reformulation == "R2" and self.model_mode != "M3":
            issues.append("R2 requires model mode M3")
        kind = None
        if self.shape is not None:
            try:
                kind = parse_shape(self.shape).kind
            except InvalidSpec as exc:
                issues.append(f"--shape: {exc}")
        if self.shape_nu is not None:
            if kind != "student_t":
                issues.append("--nu: only the student_t shape class (--shape t) takes a nu")
            elif not (math.isfinite(self.shape_nu) and self.shape_nu > 2.0):
                issues.append(f"--nu: {self.shape_nu} must be a finite number above 2")
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


def _parse_gammas(text: str, top: bool = False) -> list[float]:
    """The risk levels of `--gammas`, comma-separated, each in (0, 1), or in
    (0, 1] with `top` (the worst-case table is defined at gamma = 1)."""
    gammas, issues = [], []
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
    if issues:
        raise ValidationError(issues)
    return gammas


def _apply_config(scn: ScenarioBundle, cfg: RunConfig) -> ScenarioBundle:
    kw = {}
    if cfg.gamma is not None:
        kw["gamma"] = cfg.gamma
        kw["gamma_balance"] = cfg.gamma_balance if cfg.gamma_balance is not None else cfg.gamma
    elif cfg.gamma_balance is not None:
        kw["gamma_balance"] = cfg.gamma_balance
    if cfg.shape:
        kw["shape_class"] = parse_shape(cfg.shape, cfg.shape_nu)
    if cfg.window:
        kw["dispatch_window"] = _parse_window(cfg.window, scn.horizon)
    scn = replace(scn, **kw)
    try:
        scn.validate()
    except ValidationError as exc:  # only the risk levels can leave the scenario invalid
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
    return iterative_solve_r2(
        scn, delta=cfg.delta, max_iter=2 if cfg.a2 else cfg.max_iter,
        on_max_iter="return" if cfg.a2 else "raise",
    )


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


def _cfg_from_args(args) -> RunConfig:
    return RunConfig(
        model_mode=args.mode, reformulation=args.reform, shape=args.shape,
        shape_nu=args.nu, gamma=args.gamma, gamma_balance=args.gamma_balance,
        delta=args.delta, max_iter=args.max_iter,
        window=args.window, discomfort_variant=args.variant,
        a1=args.a1, a2=args.a2, reserve=args.reserve,
        out=args.out,
    )


def cmd_solve(args) -> int:
    cfg = _cfg_from_args(args)
    scn = _apply_config(load_scenario(args.scenario), cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        strategy = _dispatch(scn, cfg)
    except InfeasibleBounds as exc:
        (out / "infeasible.yaml").write_text(yaml.safe_dump(
            {"empty_intervals": [
                {"unit": u, "t": int(t), "lower": fmt(lo), "upper": fmt(hi)}
                for u, t, lo, hi in exc.entries]}, sort_keys=True))
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    write_strategy(out, strategy)
    write_manifest(out, {k: v for k, v in asdict(cfg).items() if k != "out"}, args.scenario)
    print(f"objective {strategy.objective_value:.6f} -> {out}")
    return 0


def _check_sampling(args) -> None:
    """Reject a Monte-Carlo `--draws` or `--seed` before any work is done."""
    issues = []
    if args.draws < 1:
        issues.append(f"--draws: {args.draws} draws; at least 1 is needed")
    if args.seed < 0:
        issues.append(f"--seed: {args.seed} is negative")
    if issues:
        raise ValidationError(issues)


def cmd_evaluate(args) -> int:
    _check_sampling(args)
    scn = load_scenario(args.scenario)
    strategy = read_strategy(Path(args.strategy), scn)
    report = evaluate_reliability(strategy, scn, args.draws, args.seed)
    out = Path(args.out)
    write_report(out, report)
    print(f"LORP {report.lorp:.4f}  cost_rt {report.cost_rt:.4f} -> {out}")
    return 0


def cmd_bounds(args) -> int:
    gammas = _parse_gammas(args.gammas, top=True)
    if not (math.isfinite(args.nu) and args.nu > 2.0):
        raise ValidationError([f"--nu: {args.nu} must be a finite number above 2 (the student_t row)"])
    shapes = [
        ShapeClass("no_assumption"), ShapeClass("symmetric"), ShapeClass("unimodal"),
        ShapeClass("symmetric_unimodal"), ShapeClass("student_t", nu=args.nu),
        ShapeClass("normal"),
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


def _solve_grid(args, choices, config, name: str, columns: list[str], values, echo: dict) -> int:
    """Solve `config(gamma, mode)` for every `--gammas` x `--modes` pair and
    write one CSV row per solve: gamma, mode, the day-ahead cost, then the
    `columns` that `values(scn, strategy)` returns.  The manifest echoes the
    grid and the other options in `echo`."""
    gammas = _parse_gammas(args.gammas)
    modes = args.modes.split(",")
    unknown = [m for m in modes if m not in choices]
    if unknown:
        raise ValidationError([f"--modes: unknown mode {m!r} (choose from {', '.join(choices)})"
                               for m in unknown])
    configs = [(gamma, mode, config(gamma, mode)) for gamma in gammas for mode in modes]  # each checks itself
    base = load_scenario(args.scenario)
    # every cell's scenario is checked before the first solve
    cells = [(gamma, mode, cfg, _apply_config(base, cfg)) for gamma, mode, cfg in configs]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for gamma, mode, cfg, scn in cells:
        strategy = _dispatch(scn, cfg)
        rows.append([fmt(gamma), mode, fmt(strategy.objective_value)] + [fmt(v) for v in values(scn, strategy)])
    write_table(out / name, ["gamma", "mode", "cost_da", *columns], rows)
    write_manifest(out, {"gammas": gammas, "modes": modes, **echo}, args.scenario)
    print(f"{len(rows)} rows -> {out / name}")
    return 0


def cmd_sweep(args) -> int:
    _check_sampling(args)

    def config(gamma, mode):
        # R2 reformulates M3 only; the M1 and M2 rows solve as under R1
        return RunConfig(model_mode=mode, reformulation=args.reform if mode == "M3" else "R1",
                         shape=args.shape, gamma=gamma)

    def values(scn, strategy):
        report = evaluate_reliability(strategy, scn, args.draws, args.seed)
        return report.lorp, report.cost_rt, report.cost_tc

    return _solve_grid(args, MODEL_MODES, config, "sweep.csv", ["lorp", "cost_rt", "cost_tc"], values,
                       {"reform": args.reform, "shape": args.shape, "draws": args.draws, "seed": args.seed})


def cmd_reserve(args) -> int:
    def values(scn, strategy):
        d = strategy.reserve_diag
        return d["ges_energy_kwh"], d["reserve_energy_kwh"], d["reserve_cost"]

    return _solve_grid(args, RESERVE_MODES, lambda gamma, mode: RunConfig(reserve=mode, gamma=gamma),
                       "reserve.csv", ["ges_energy_kwh", "reserve_energy_kwh", "reserve_cost"], values, {})


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ges-dispatch",
                                     description="Day-ahead storage-fleet dispatch under uncertainty")
    default_out = os.environ.get("GES_DISPATCH_OUT", "out")
    sub = parser.add_subparsers(dest="command", required=True)

    def solve_flags(p):
        p.add_argument("--scenario", required=True)
        p.add_argument("--mode", default="M3", choices=MODEL_MODES)
        p.add_argument("--reform", default="R1", choices=["R1", "R2"])
        p.add_argument("--shape", default=None, help="overrides the scenario's shape_class")
        p.add_argument("--nu", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--gamma-balance", dest="gamma_balance", type=float, default=None)
        p.add_argument("--delta", type=float, default=1e-3)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=25)
        p.add_argument("--window", default=None, help="dispatch steps, e.g. 19-22 or 3,4,5")
        p.add_argument("--variant", default=None, choices=["F1", "F2", "F3"])
        p.add_argument("--a1", action="store_true", help="aggregate the fleet before solving")
        p.add_argument("--a2", action="store_true", help="cap the fixed-point loop at 2 iterations")
        p.add_argument("--reserve", default="none", choices=["none", *RESERVE_MODES])
        p.add_argument("--out", default=default_out)

    p = sub.add_parser("solve", help="solve the day-ahead dispatch")
    solve_flags(p)
    p.set_defaults(func=cmd_solve)

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
    p.add_argument("--reform", default="R1", choices=["R1", "R2"], help="reformulation of the M3 rows")
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
    except GesDispatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
