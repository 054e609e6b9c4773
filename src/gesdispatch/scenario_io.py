"""Scenario directory loading and serialization.

A scenario directory holds ``scenario.yaml`` (configuration) and the tables
``units.csv`` and ``ddu.csv`` (one row per unit), ``timeseries.csv`` (one
row per step) and, optionally, ``unit_series.csv`` (per-unit trajectories);
README.md lists their columns.  `read_table` reads every table by columns
and `write_table` writes it, floats with 17 significant digits so that a
load/serialize round trip is bit-exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, fields
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
_DDU_TEXTS = ("h_family", "discomfort_variant")
_DDU_NUMBERS = ("sigma_g", "sigma_h", "beta_up", "beta_lo", "lam", "c_bar", "q_g_level")
_DDU_FIELDS = (*_DDU_NUMBERS, *_DDU_TEXTS)
_UNIT_NUMBERS = (*_DEV_FIELDS, "baseline_sigma", "ident_sigma_frac", "price_c", "price_d")
_TS_NUMBERS = ("tou_price", "load_mean", "load_sigma", "res_mean", "res_sigma")
_TS_OPTIONAL = ("load_family", "load_sigma", "res_family", "res_mean", "res_sigma")
_SERIES_FIELDS = (
    "baseline_power", "t_in_baseline", "ev_base_p_c", "ev_base_p_d", "ev_dsoc",
    "t_comfort_lo", "t_comfort_hi", "on_prob", "deadband",
)


def fmt(x) -> str:
    """Serialize a float with a 17-significant-digit round trip."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


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


def _float(text: str) -> float:
    """`text` as a float: NaN if it is empty or not a number."""
    try:
        return float(text) if text else math.nan
    except ValueError:
        return math.nan


def read_table(path: Path, text: tuple[str, ...], numbers: tuple[str, ...], issues: list[str],
               optional: tuple[str, ...] = ()) -> dict[str, tuple[str, ...] | np.ndarray] | None:
    """Read a CSV file by columns: the cells of each `text` column, and each
    `numbers` column as floats.  A number cell that is not a finite number is
    an issue and reads as NaN.  An empty cell, or a missing column, that is
    `optional` reads as "not given" ("" or NaN) without an issue; a header
    that lacks another column is an issue, and the table reads as None."""
    try:
        with open(path, newline="") as fh:
            header, *rows = [r for r in csv.reader(fh) if r] or [[]]
    except (OSError, csv.Error) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    absent = [c for c in (*text, *numbers) if c not in header and c not in optional]
    if absent:
        issues.append(f"{path}: no column {first_few(absent)}")
        return None
    # a short row reads as empty cells; zip would cut every column to its length
    width, empty = len(header), ("",) * len(rows)
    cells = dict(zip(header, zip(*(r if len(r) >= width else r + [""] * (width - len(r)) for r in rows))))
    table = {name: cells.get(name, empty) for name in text}
    for name in numbers:
        column = cells.get(name, empty)
        table[name] = values = np.fromiter(map(_float, column), float, len(column))
        bad = ~np.isfinite(values)
        values[bad] = math.nan
        issues += [f"{path} row {k} {name}: not a finite number: {column[k]!r}"
                   for k in np.flatnonzero(bad).tolist() if column[k] or name not in optional]
    return table


def _records(table) -> list[dict]:
    """The rows of a `read_table` result, each a dict of its given cells."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
    return [{n: v for n, v in zip(table, row) if v == v and v != ""} for row in zip(*columns)]


def _step_rows(path: Path, table, keys: tuple[str, ...], horizon: int, ok: np.ndarray,
               issues: list[str]) -> dict[tuple[str, ...], np.ndarray | None]:
    """Per key tuple of a `read_table` result, the row of each step 0..horizon-1;
    None if a `t` is not an integer, a row is not `ok`, or the key's steps are
    not 0..horizon-1 exactly once, each an issue but the row that is not `ok`."""
    t = np.fromiter(map(_float, table["t"]), float, len(table["t"]))
    integer = np.isfinite(t) & (np.floor(t) == t)
    issues += [f"{path} row {k} t: not an integer step: {table['t'][k]!r}" for k in np.flatnonzero(~integer).tolist()]

    index: dict[tuple[str, ...], int] = {} if keys else {(): 0}
    key_cells = zip(*(table[k] for k in keys)) if keys else [()] * len(t)
    ids = np.array([index.setdefault(key, len(index)) for key in key_cells], dtype=np.intp)
    on = integer & (t >= 0) & (t < horizon)
    steps = t[on].astype(np.intp)
    counts = np.bincount(ids[on] * horizon + steps, minlength=len(index) * horizon).reshape(len(index), horizon)
    rows = np.zeros((len(index), horizon), dtype=np.intp)
    rows[ids[on], steps] = np.flatnonzero(on)
    bad = (counts != 1).any(axis=1)
    bad[ids[~(ok & on)]] = True

    span = f"the scenario's 0-{horizon - 1}"
    for key, i in index.items():
        if not bad[i]:
            continue
        name = f"{path}: " + " ".join(f"{k.removesuffix('_id')} {v}" for k, v in zip(keys, key)) if keys else path
        outside = [int(step) for step in np.unique(t[(ids == i) & integer & ~on])]
        for found, says in ((np.flatnonzero(counts[i] == 0), f"has no row for step(s) {{}} of {span}"),
                            (np.flatnonzero(counts[i] > 1), "has more than one row for step(s) {}"),
                            (outside, f"has rows for step(s) {{}} outside {span}")):
            if len(found):
                issues.append(f"{name} {says.format(first_few(found))}")
    return {key: None if bad[i] else rows[i] for key, i in index.items()}


def read_steps(path: Path, keys: tuple[str, ...], columns: tuple[str, ...], horizon: int,
               issues: list[str], optional: tuple[str, ...] = ()) -> dict[tuple[str, ...], np.ndarray | None] | None:
    """Read a step table (cells `keys`, an integer step `t`, numbers `columns`):
    per key tuple a `(len(columns), horizon)` array, or None if a row of the key
    has a problem; None for a header that lacks a column.  An `optional` column
    may be missing or hold blank cells, which read as NaN (`read_table`).
    Problems go to `issues`."""
    table = read_table(path, (*keys, "t"), columns, issues, optional)
    if table is None:
        return None
    numbers = np.array([table[c] for c in columns])
    ok = np.isfinite(numbers[[c not in optional for c in columns]]).all(axis=0)
    rows = _step_rows(path, table, keys, horizon, ok, issues)
    return {key: None if r is None else numbers[:, r] for key, r in rows.items()}


def _number(value, name: str, default, issues: list[str], integer: bool = False):
    """A `scenario.yaml` value as a float (an int if `integer`); a bad value is an issue, read as `default`."""
    try:
        number = value if integer and isinstance(value, int) else float(value)
        if not integer or float(number).is_integer():
            return int(number) if integer else number
    except (TypeError, ValueError, OverflowError):
        pass
    issues.append(f"scenario.yaml {name}: not {'an integer' if integer else 'a number'}: {value!r}")
    return default


def _mapping(cfg: dict, name: str, issues: list[str]) -> dict:
    """The `scenario.yaml` block `name`, {} if absent; a block that is not a mapping is an issue, read as {}."""
    block = cfg.get(name) or {}
    if isinstance(block, dict):
        return block
    issues.append(f"scenario.yaml {name}: not a mapping: {block!r}")
    return {}


def _ident_target(kind: str) -> str:
    """The device field that identification noise perturbs."""
    return "thermal_resistance" if kind.startswith("TCL") else "s_capacity"


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

    horizon = _number(cfg.get("horizon", 24), "horizon", 24, issues, integer=True)
    if horizon < 1:
        raise ValidationError([*issues, f"horizon must be >= 1, got {horizon}"])
    dt = _number(cfg.get("dt", 1.0), "dt", 1.0, issues)
    diu_cfg = _mapping(cfg, "diu", issues)
    n_samples = _number(diu_cfg.get("samples", 10_000), "diu.samples", 10_000, issues, integer=True)
    diu_seed = _number(diu_cfg.get("seed", 0), "diu.seed", 0, issues, integer=True)

    ts_path = root / "timeseries.csv"
    ts = read_table(ts_path, ("t", "load_family", "res_family"), _TS_NUMBERS, issues, optional=_TS_OPTIONAL)
    # a step without a ToU price or load mean leaves the whole series unread
    steps = None if ts is None else _step_rows(
        ts_path, ts, (), horizon, np.isfinite(ts["tou_price"]) & np.isfinite(ts["load_mean"]), issues)[()]
    tou = np.full(horizon, math.nan) if steps is None else ts["tou_price"][steps]
    load_dist = res_dist = [DistributionSpec.point(0.0)] * horizon
    if steps is not None:
        ts_rows = _records(ts)
        load_dist, res_dist = [], []
        for k in steps.tolist():
            row, where = ts_rows[k], f"{ts_path} row {k}"
            load_dist.append(_dist_from_row(row.get("load_family"), row["load_mean"], row.get("load_sigma", 0.0),
                                            where, issues))
            res_dist.append(_dist_from_row(row.get("res_family"), row.get("res_mean", 0.0), row.get("res_sigma", 0.0),
                                           where, issues))

    unit_rows = _records(read_table(root / "units.csv", ("unit_id", "kind"), _UNIT_NUMBERS, issues,
                                    optional=_UNIT_NUMBERS) or {})
    known = {row.get("unit_id", "") for row in unit_rows}
    series = {}
    sp = root / "unit_series.csv"
    if sp.exists():
        series = read_steps(sp, ("unit_id", "field"), ("value",), horizon, issues) or {}
        issues += [f"{sp}: unit {uid} has unknown field {f!r}" for uid, f in series if f not in _SERIES_FIELDS]
        issues += [f"{sp}: unit {uid} is not in units.csv" for uid, f in series if uid not in known]

    ddu_path = root / "ddu.csv"
    ddu_rows = _records(read_table(ddu_path, ("unit_id", *_DDU_TEXTS), _DDU_NUMBERS, issues,
                                   optional=_DDU_FIELDS) or {})
    ddu_by_unit: dict[str, DduSpec] = {}
    for k, row in enumerate(ddu_rows):
        uid = row.pop("unit_id", "")
        if uid in ddu_by_unit:
            issues.append(f"{ddu_path}: unit {uid} has more than one row")
        elif uid not in known:
            issues.append(f"{ddu_path}: unit {uid} is not in units.csv")
        try:
            ddu_by_unit[uid] = DduSpec(**{f: v.strip() if f in _DDU_TEXTS else v for f, v in row.items()})
        except Exception as exc:
            issues.append(f"ddu.csv row {k} (unit {uid}): {exc}")

    units: list[UnitSpec] = []
    for k, row in enumerate(unit_rows):
        uid = row.get("unit_id", "")
        where = f"units.csv row {k} (unit {uid})"
        kw: dict = {"kind": row.get("kind", "").strip(), "unit_id": uid}
        kw.update((f, row[f]) for f in _DEV_FIELDS if f in row)
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
        frac = row.get("ident_sigma_frac", 0.0)
        if frac > 0:
            target = _ident_target(dev.kind)
            center = getattr(dev, target)
            unit_dists[target] = DistributionSpec.truncated_normal(
                center, frac * center, center * (1 - 2 * frac), center * (1 + 2 * frac))
        bsig = row.get("baseline_sigma", 0.0)
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

        if uid not in ddu_by_unit:
            issues.append(f"ddu.csv: no row for unit {uid}")
        units.append(UnitSpec(
            dev=dev, params=params, ddu=ddu_by_unit.get(uid) or DduSpec(),
            price_c=np.full(horizon, row.get("price_c", 0.3)), price_d=np.full(horizon, row.get("price_d", 0.6)),
            unit_dists=unit_dists, baseline_dist=baseline_dist))

    window = None
    if cfg.get("dispatch_window") is not None:
        window = np.zeros(horizon, dtype=bool)
        steps = cfg["dispatch_window"]
        if not isinstance(steps, list):
            issues.append(f"scenario.yaml dispatch_window: not a list of steps: {steps!r}")
            steps = []
        for t in steps:
            step = _number(t, "dispatch_window step", 0, issues, integer=True)
            if 0 <= step < horizon:
                window[step] = True
            else:
                issues.append(f"scenario.yaml: dispatch_window step {t} out of range")

    reserve = None
    reserve_cfg = _mapping(cfg, "reserve", issues)
    if reserve_cfg:
        try:
            reserve = ReserveSpec(**reserve_cfg)
        except TypeError as exc:
            issues.append(f"scenario.yaml reserve: {exc}")
        else:
            for f in fields(ReserveSpec):
                value = getattr(reserve, f.name)
                if f.name != "mode" and value is not None:
                    setattr(reserve, f.name, _number(value, f"reserve.{f.name}", f.default, issues))
            issues += [f"scenario.yaml reserve: {issue}" for issue in reserve.validate()]

    try:
        nu = cfg.get("shape_nu")
        shape = parse_shape(str(cfg.get("shape_class", "unimodal")),
                            None if nu is None else _number(nu, "shape_nu", None, issues))
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
        grid_cap=_number(cfg.get("grid_cap", 1e6), "grid_cap", 1e6, issues),
        gamma=_number(cfg.get("gamma", 0.05), "gamma", 0.05, issues),
        gamma_balance=(_number(cfg["gamma_balance"], "gamma_balance", None, issues)
                       if cfg.get("gamma_balance") is not None else None),
        dispatch_window=window,
        shape_class=shape,
        reserve=reserve,
    )
    try:
        bundle.validate()
    except ValidationError as exc:
        # the risk levels are the scenario.yaml ones (cli._apply_config names its flags)
        issues += [f"scenario.yaml {issue}" if issue.startswith("gamma") else issue for issue in exc.issues]
    if issues:
        raise ValidationError(issues)
    if compute_stats:
        _propagate_all(units, dt, horizon, n_samples, diu_seed)
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

    write_table(root / "timeseries.csv", ["t", "tou_price", "load_family", "load_mean", "load_sigma",
                                          "res_family", "res_mean", "res_sigma"], (
        [t, fmt(tou), ld.family, fmt(dist.mean(ld)), fmt(dist.std(ld)),
         rd_.family, fmt(dist.mean(rd_)), fmt(dist.std(rd_))]
        for t, (tou, ld, rd_) in enumerate(zip(bundle.tou_price, bundle.load_dist, bundle.res_dist))))

    unit_rows = []
    series_rows = []
    for u in bundle.units:
        dev = u.dev
        row = {"unit_id": dev.unit_id, "kind": dev.kind,
               "price_c": fmt(u.price_c[0]), "price_d": fmt(u.price_d[0])}
        for f in (*_DEV_FIELDS, *(f for f in _SERIES_FIELDS if f not in _DEV_FIELDS)):
            v = getattr(dev, f, None)
            if v is None:
                continue
            arr = np.atleast_1d(np.asarray(v, dtype=float))
            if arr.size == 1 and f in _DEV_FIELDS:
                if math.isfinite(arr[0]):
                    row[f] = fmt(arr[0])
            else:
                arr = np.broadcast_to(arr, (bundle.horizon,))
                series_rows += ([dev.unit_id, f, t, fmt(x)] for t, x in enumerate(arr))
        spec = u.unit_dists.get(_ident_target(dev.kind))
        if spec is not None and spec.family == "truncated_normal":
            row["ident_sigma_frac"] = fmt(spec.params["sigma"] / spec.params["mu"])
        if u.baseline_dist is not None:
            first = u.baseline_dist[0]
            if first.family == "lognormal":
                mean0 = math.exp(first.params["mu"] + first.params["sigma"] ** 2 / 2)
                sd0 = mean0 * math.sqrt(math.expm1(first.params["sigma"] ** 2))
                row["baseline_sigma"] = fmt(sd0 / mean0)
        unit_rows.append(row)

    cols = ["unit_id", "kind", *_UNIT_NUMBERS]
    write_table(root / "units.csv", cols, ([row.get(c, "") for c in cols] for row in unit_rows))
    write_table(root / "ddu.csv", ["unit_id", *_DDU_FIELDS], ([u.unit_id] + [
        getattr(u.ddu, f) if f in _DDU_TEXTS else fmt(getattr(u.ddu, f)) for f in _DDU_FIELDS]
        for u in bundle.units))
    if series_rows:
        write_table(root / "unit_series.csv", ["unit_id", "field", "t", "value"], series_rows)
