"""Scenario directory loading and serialization.

A scenario lives in a directory:

* ``scenario.yaml`` — horizon, dt, gamma(s), grid cap, solver configuration,
  sampling configuration, optional reserve block;
* ``units.csv`` — one row per unit: device kind, physical parameters,
  incentive prices, and uncertainty knobs;
* ``ddu.csv`` — one row per unit: decision-dependent-uncertainty parameters;
* ``timeseries.csv`` — one row per step: ToU price and load/renewable
  forecast distributions;
* ``unit_series.csv`` (optional) — long-format per-unit trajectories
  (baseline power, baseline indoor temperature, EV profiles).

Floats are written with 17 significant digits so a load/serialize round trip
is bit-exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from . import distributions as dist
from .cantelli import parse_shape
from .ddu import DduSpec
from .diu import new_workspace, propagate_diu, unit_states
from .distributions import DistributionSpec
from .errors import ParseError, ValidationError, first_few
from .ges import DeviceDescription, map_device_to_ges
from .pool import map_in_workspaces
from .scenario import ReserveSpec, ScenarioBundle, UnitSpec

_DEV_FIELDS = (
    "thermal_resistance", "thermal_capacity", "conversion_efficiency",
    "t_comfort_lo", "t_comfort_hi", "p_min", "p_max", "baseline_power",
    "s_capacity", "eta_c", "eta_d", "eps", "p_c_rating", "p_d_rating",
    "soc_lo", "soc_hi", "soc_init", "soc_phys_lo", "soc_phys_hi",
    "soc_ramp_up", "soc_ramp_dn", "deadband", "on_prob",
)
_UNC_FIELDS = ("baseline_sigma", "ident_sigma_frac")
_DDU_FIELDS = (
    "sigma_g", "sigma_h", "beta_up", "beta_lo", "lam", "c_bar",
    "q_g_level", "h_family", "discomfort_variant",
)
_SERIES_FIELDS = (
    "baseline_power", "t_in_baseline", "ev_base_p_c", "ev_base_p_d", "ev_dsoc",
    "t_comfort_lo", "t_comfort_hi", "on_prob", "deadband",
)


def fmt(x) -> str:
    """Serialize a float with a 17-significant-digit round trip."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _parse_float(text, where, issues):
    try:
        return float(text)
    except (TypeError, ValueError):
        issues.append(f"{where}: not a number: {text!r}")
        return math.nan


def _read_csv(path: Path) -> list[dict[str, str]]:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def write_table(path: Path, header, rows) -> None:
    """Write a CSV file: the `header` row, then `rows`."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def read_yaml(path: Path) -> dict:
    """The mapping in the YAML file at `path`."""
    try:
        doc = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a mapping")
    return doc


def read_steps(path: Path, keys: tuple[str, ...], columns: tuple[str, ...], horizon: int,
               issues: list[str]) -> dict[tuple[str, ...], np.ndarray | None] | None:
    """Read a step table: a CSV file whose rows hold the cells `keys`, an
    integer step `t` and the numbers `columns`.

    Returns, per key tuple of the file, a `(len(columns), horizon)` array, or
    None if a cell is not a finite number, a `t` is not an integer, or the
    key's steps are not 0..horizon-1 exactly once; None for a header that
    lacks a column.  Every problem goes to `issues`.
    """
    try:
        with open(path, newline="") as fh:
            header, *rows = [r for r in csv.reader(fh) if r] or [[]]
    except (OSError, csv.Error) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    fields = ("t", *columns)
    absent = [c for c in (*keys, *fields) if c not in header]
    if absent:
        issues.append(f"{path}: no column {first_few(absent)}")
        return None
    # a short row reads as empty cells; zip would cut every column to its length
    cells = dict.fromkeys(header, ()) | dict(zip(header, zip(*(
        r if len(r) >= len(header) else r + [""] * (len(header) - len(r)) for r in rows))))
    numbers = np.empty((len(fields), len(rows)))
    for j, name in enumerate(fields):
        try:
            numbers[j] = list(map(float, cells[name]))
        except ValueError:
            for k, text in enumerate(cells[name]):
                try:
                    numbers[j, k] = float(text)
                except ValueError:
                    numbers[j, k] = math.nan
    t = numbers[0]
    t[np.floor(t) != t] = math.nan
    finite = np.isfinite(numbers)
    for j, k in zip(*np.nonzero(~finite)):
        says = "not an integer step" if j == 0 else "not a finite number"
        issues.append(f"{path} row {k} {fields[j]}: {says}: {cells[fields[j]][k]!r}")

    index: dict[tuple[str, ...], int] = {} if keys else {(): 0}
    key_cells = zip(*(cells[k] for k in keys)) if keys else [()] * len(rows)
    ids = np.array([index.setdefault(key, len(index)) for key in key_cells], dtype=np.intp)
    on = finite[0] & (t >= 0) & (t < horizon)
    steps = t[on].astype(np.intp)
    counts = np.bincount(ids[on] * horizon + steps, minlength=len(index) * horizon).reshape(-1, horizon)
    table = np.full((len(index), len(columns), horizon), math.nan)
    table[ids[on], :, steps] = numbers[1:, on].T
    bad = (counts != 1).any(axis=1)
    bad[ids[~(finite.all(axis=0) & on)]] = True

    span = f"the scenario's 0-{horizon - 1}"
    for key, i in index.items():
        if not bad[i]:
            continue
        name = f"{path}: " + " ".join(f"{k.removesuffix('_id')} {v}" for k, v in zip(keys, key)) if keys else path
        outside = [int(step) for step in np.unique(t[(ids == i) & finite[0] & ~on])]
        for found, says in ((np.flatnonzero(counts[i] == 0), f"has no row for step(s) {{}} of {span}"),
                            (np.flatnonzero(counts[i] > 1), "has more than one row for step(s) {}"),
                            (outside, f"has rows for step(s) {{}} outside {span}")):
            if len(found):
                issues.append(f"{name} {says.format(first_few(found))}")
    return {key: None if bad[i] else table[i] for key, i in index.items()}


def _dist_from_row(family: str, mean: float, sigma: float, where: str, issues):
    family = (family or "normal").strip().lower()
    if sigma <= 0 or family == "point":
        return DistributionSpec.point(mean)
    if family == "normal":
        return DistributionSpec.normal(mean, sigma)
    if family == "lognormal":
        if mean <= 0:
            issues.append(f"{where}: lognormal mean must be > 0, got {mean}")
            return DistributionSpec.point(max(mean, 0.0))
        s2 = math.log1p((sigma / mean) ** 2)
        return DistributionSpec.lognormal(math.log(mean) - s2 / 2.0, math.sqrt(s2))
    if family == "truncated_normal":
        return DistributionSpec.truncated_normal(mean, sigma, mean - 3 * sigma, mean + 3 * sigma)
    issues.append(f"{where}: unknown distribution family {family!r}")
    return DistributionSpec.point(mean)


def _propagate_all(units: list[UnitSpec], dt: float, horizon: int, n: int, seed: int) -> None:
    """Fill `stats` of every unit with identification or baseline noise.

    The seed states of every unit's streams are hashed in one pass
    (`diu.unit_states`); each task reads its unit's read-only block.  The
    units run through `pool.map_in_workspaces`, each in a DIU workspace
    (`diu.new_workspace`) that this thread allocates.  Each unit draws only
    from its own streams, so the statistics do not depend on the pool, and
    the first failing unit in file order raises.
    """
    noisy = [u for u in units if u.unit_dists or u.baseline_dist is not None]
    states = unit_states(seed, [(u.dev.unit_id, u.unit_dists, u.baseline_dist) for u in noisy], horizon)

    def propagate(item, workspace):
        u, unit_streams = item
        return propagate_diu(u.unit_dists, u.dev, u.baseline_dist, dt, horizon, n=n, seed=seed,
                             workspace=workspace, states=unit_streams, params=u.params)

    stats = map_in_workspaces(propagate, zip(noisy, states), lambda: new_workspace(n, horizon), n * horizon)
    for u, unit_stats in zip(noisy, stats):
        u.stats = unit_stats


def load_scenario(path, compute_stats: bool = True) -> ScenarioBundle:
    """Load and fully validate a scenario directory."""
    root = Path(path)
    issues: list[str] = []
    cfg = read_yaml(root / "scenario.yaml")

    horizon = int(cfg.get("horizon", 24))
    dt = float(cfg.get("dt", 1.0))

    ts_rows = _read_csv(root / "timeseries.csv")
    if len(ts_rows) != horizon:
        issues.append(f"timeseries.csv: expected {horizon} rows, found {len(ts_rows)}")
    tou = np.zeros(horizon)
    load_dist: list[DistributionSpec] = []
    res_dist: list[DistributionSpec] = []
    for k, row in enumerate(ts_rows[:horizon]):
        where = f"timeseries.csv row {k}"
        tou[k] = _parse_float(row.get("tou_price"), where + " tou_price", issues)
        load_dist.append(_dist_from_row(
            row.get("load_family"),
            _parse_float(row.get("load_mean"), where + " load_mean", issues),
            _parse_float(row.get("load_sigma", "0") or "0", where + " load_sigma", issues),
            where, issues))
        res_dist.append(_dist_from_row(
            row.get("res_family"),
            _parse_float(row.get("res_mean", "0") or "0", where + " res_mean", issues),
            _parse_float(row.get("res_sigma", "0") or "0", where + " res_sigma", issues),
            where, issues))
    while len(load_dist) < horizon:
        load_dist.append(DistributionSpec.point(0.0))
        res_dist.append(DistributionSpec.point(0.0))

    unit_rows = _read_csv(root / "units.csv")
    series = {}
    sp = root / "unit_series.csv"
    if sp.exists():
        series = read_steps(sp, ("unit_id", "field"), ("value",), horizon, issues) or {}
        known = {row.get("unit_id", f"row{k}") for k, row in enumerate(unit_rows)}
        issues += [f"{sp}: unit {uid} has unknown field {f!r}" for uid, f in series if f not in _SERIES_FIELDS]
        issues += [f"{sp}: unit {uid} is not in units.csv" for uid, f in series if uid not in known]

    ddu_by_unit: dict[str, DduSpec] = {}
    for k, row in enumerate(_read_csv(root / "ddu.csv")):
        uid = row.get("unit_id", "")
        kw = {}
        for f in _DDU_FIELDS:
            raw = row.get(f)
            if raw in (None, ""):
                continue
            kw[f] = raw.strip() if f in ("h_family", "discomfort_variant") else _parse_float(
                raw, f"ddu.csv row {k} {f}", issues)
        try:
            ddu_by_unit[uid] = DduSpec(**kw)
        except Exception as exc:
            issues.append(f"ddu.csv row {k} (unit {uid}): {exc}")

    diu_cfg = cfg.get("diu") or {}
    n_samples = int(diu_cfg.get("samples", 10_000))
    diu_seed = int(diu_cfg.get("seed", 0))
    gamma = float(cfg.get("gamma", 0.05))

    units: list[UnitSpec] = []
    for k, row in enumerate(unit_rows):
        uid = row.get("unit_id", f"row{k}")
        where = f"units.csv row {k} (unit {uid})"
        kw: dict = {"kind": (row.get("kind") or "").strip(), "unit_id": uid}
        for f in _DEV_FIELDS:
            raw = row.get(f)
            if raw not in (None, ""):
                kw[f] = _parse_float(raw, f"{where} {f}", issues)
        for f in _SERIES_FIELDS:
            if series.get((uid, f)) is not None:
                (kw[f],) = series[uid, f]
        try:
            dev = DeviceDescription(**kw)
            params = map_device_to_ges(dev, dt, horizon)
        except Exception as exc:
            issues.append(f"{where}: {exc}")
            continue

        unit_dists: dict[str, DistributionSpec] = {}
        frac = _parse_float(row.get("ident_sigma_frac") or "0", where, issues)
        if frac > 0:
            target = "thermal_resistance" if dev.kind.startswith("TCL") else "s_capacity"
            center = getattr(dev, target)
            unit_dists[target] = DistributionSpec.truncated_normal(
                center, frac * center, center * (1 - 2 * frac), center * (1 + 2 * frac))
        bsig = _parse_float(row.get("baseline_sigma") or "0", where, issues)
        baseline_dist = None
        if bsig > 0:
            base = kw.get("baseline_power")
            if base is None:
                issues.append(f"{where}: baseline_sigma given without baseline_power")
            else:
                base = np.broadcast_to(np.asarray(base, dtype=float), (horizon,))
                baseline_dist = [
                    _dist_from_row("lognormal", float(b), bsig * max(float(b), 1e-9), where, issues)
                    for b in base
                ]

        price_c = _parse_float(row.get("price_c") or "0.3", where + " price_c", issues)
        price_d = _parse_float(row.get("price_d") or "0.6", where + " price_d", issues)
        ddu = ddu_by_unit.get(uid)
        if ddu is None:
            issues.append(f"ddu.csv: no row for unit {uid}")
            ddu = DduSpec()
        units.append(UnitSpec(
            dev=dev, params=params, ddu=ddu,
            price_c=np.full(horizon, price_c), price_d=np.full(horizon, price_d),
            unit_dists=unit_dists, baseline_dist=baseline_dist))

    if compute_stats:
        _propagate_all(units, dt, horizon, n_samples, diu_seed)

    window = None
    if cfg.get("dispatch_window") is not None:
        window = np.zeros(horizon, dtype=bool)
        for t in cfg["dispatch_window"]:
            if 0 <= int(t) < horizon:
                window[int(t)] = True
            else:
                issues.append(f"scenario.yaml: dispatch_window step {t} out of range")

    reserve = None
    if cfg.get("reserve"):
        try:
            reserve = ReserveSpec(**cfg["reserve"])
        except TypeError as exc:
            issues.append(f"scenario.yaml reserve: {exc}")

    try:
        shape = parse_shape(str(cfg.get("shape_class", "unimodal")), cfg.get("shape_nu"))
    except Exception as exc:
        issues.append(f"scenario.yaml shape_class: {exc}")
        shape = parse_shape("unimodal")

    bundle = ScenarioBundle(
        units=units,
        horizon=horizon,
        dt=dt,
        tou_price=tou,
        load_dist=load_dist,
        res_dist=res_dist,
        grid_cap=float(cfg.get("grid_cap", 1e6)),
        gamma=gamma,
        gamma_balance=(float(cfg["gamma_balance"]) if cfg.get("gamma_balance") is not None else None),
        dispatch_window=window,
        shape_class=shape,
        reserve=reserve,
    )
    try:
        bundle.validate()
    except ValidationError as exc:
        issues.extend(exc.issues)
    if issues:
        raise ValidationError(issues)
    return bundle


# ---------------------------------------------------------------------------
# Serialization


def serialize(bundle: ScenarioBundle, path, diu_samples: int = 10_000, diu_seed: int = 0) -> None:
    """Write a scenario directory that load_scenario reads back equal."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    cfg = {
        "horizon": int(bundle.horizon),
        "dt": float(bundle.dt),
        "gamma": float(bundle.gamma),
        "gamma_balance": float(bundle.gamma_balance),
        "grid_cap": float(bundle.grid_cap),
        "shape_class": bundle.shape_class.kind,
        "diu": {"samples": diu_samples, "seed": diu_seed},
    }
    if bundle.shape_class.nu is not None:
        cfg["shape_nu"] = float(bundle.shape_class.nu)
    if bundle.dispatch_window is not None:
        cfg["dispatch_window"] = [int(t) for t in np.flatnonzero(bundle.dispatch_window)]
    if bundle.reserve is not None:
        cfg["reserve"] = asdict(bundle.reserve)
    (root / "scenario.yaml").write_text(yaml.safe_dump(cfg, sort_keys=True))

    with open(root / "timeseries.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "tou_price", "load_family", "load_mean", "load_sigma",
                    "res_family", "res_mean", "res_sigma"])
        for t in range(bundle.horizon):
            ld, rd_ = bundle.load_dist[t], bundle.res_dist[t]
            w.writerow([t, fmt(bundle.tou_price[t]),
                        ld.family, fmt(dist.mean(ld)), fmt(dist.std(ld)),
                        rd_.family, fmt(dist.mean(rd_)), fmt(dist.std(rd_))])

    unit_rows = []
    series_rows = []
    for u in bundle.units:
        dev = u.dev
        row = {"unit_id": dev.unit_id, "kind": dev.kind,
               "price_c": fmt(u.price_c[0]), "price_d": fmt(u.price_d[0])}
        for f in _DEV_FIELDS:
            v = getattr(dev, f, None)
            if v is None:
                continue
            arr = np.atleast_1d(np.asarray(v, dtype=float))
            if arr.size == 1:
                if math.isfinite(arr[0]):
                    row[f] = fmt(arr[0])
            else:
                for t in range(arr.size):
                    series_rows.append([dev.unit_id, f, t, fmt(arr[t])])
        for f in ("t_in_baseline", "ev_base_p_c", "ev_base_p_d", "ev_dsoc"):
            v = getattr(dev, f, None)
            if v is not None:
                arr = np.broadcast_to(np.asarray(v, dtype=float), (bundle.horizon,))
                for t in range(bundle.horizon):
                    series_rows.append([dev.unit_id, f, t, fmt(arr[t])])
        if "ident_sigma_frac" not in row and u.unit_dists:
            target = "thermal_resistance" if dev.kind.startswith("TCL") else "s_capacity"
            spec = u.unit_dists.get(target)
            if spec is not None and spec.family == "truncated_normal":
                row["ident_sigma_frac"] = fmt(spec.params["sigma"] / spec.params["mu"])
        if u.baseline_dist is not None:
            first = u.baseline_dist[0]
            if first.family == "lognormal":
                mean0 = math.exp(first.params["mu"] + first.params["sigma"] ** 2 / 2)
                sd0 = mean0 * math.sqrt(math.expm1(first.params["sigma"] ** 2))
                row["baseline_sigma"] = fmt(sd0 / mean0)
        unit_rows.append(row)

    cols = ["unit_id", "kind", *_DEV_FIELDS, *_UNC_FIELDS, "price_c", "price_d"]
    write_table(root / "units.csv", cols, ([row.get(c, "") for c in cols] for row in unit_rows))
    write_table(root / "ddu.csv", ["unit_id", *_DDU_FIELDS], ([u.unit_id] + [
        getattr(u.ddu, f) if f in ("h_family", "discomfort_variant") else fmt(getattr(u.ddu, f)) for f in _DDU_FIELDS]
        for u in bundle.units))
    if series_rows:
        write_table(root / "unit_series.csv", ["unit_id", "field", "t", "value"], series_rows)
