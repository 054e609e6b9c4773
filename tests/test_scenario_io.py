"""Scenario directory loading, validation diagnostics, and round-tripping."""

import csv
import dataclasses
import hashlib
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from gesdispatch import diu
from gesdispatch.errors import InvalidSpec, ParseError, ValidationError
from gesdispatch.scenario import ReserveSpec, ScenarioBundle, UnitSpec
from gesdispatch.scenario_io import _dist_from_row, load_scenario, serialize

from util import lognormal_steps

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_bundled_100tcl_loads_clean(tcl100):
    assert len(tcl100.units) == 100
    assert tcl100.horizon == 24
    assert all(u.dev.kind == "TCL_IVA" for u in tcl100.units)
    assert tcl100.shape_class.kind == "no_assumption"


def test_smoke_fleet_composition(smoke3):
    kinds = sorted(u.dev.kind for u in smoke3.units)
    assert kinds == ["BES", "EV", "TCL_IVA"]
    assert smoke3.gamma == 0.05


@pytest.mark.parametrize("name, fixture", [("smoke3", "smoke3"), ("synthetic_100tcl", "tcl100")])
def test_statistics_equal_a_serial_propagation_loop(name, fixture, request):
    scn = request.getfixturevalue(fixture)
    cfg = yaml.safe_load((FIXTURES / name / "scenario.yaml").read_text())["diu"]
    for pooled, u in zip(scn.units, load_scenario(FIXTURES / name, compute_stats=False).units, strict=True):
        assert pooled.unit_id == u.unit_id
        got = pooled.stats
        if not u.unit_dists and u.baseline is None:
            assert got is None
            continue
        want = diu.propagate_diu(u.unit_dists, u.dev, u.baseline, scn.dt, scn.horizon,
                                 n=cfg["samples"], seed=cfg["seed"])
        for kind in diu.BOUND_KINDS:
            a, b = got.get(kind), want.get(kind)
            for field in ("mu", "sigma", "table"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), (u.unit_id, kind, field)


def test_failing_propagation_raises_its_error(tmp_path):
    dst = tmp_path / "no_samples"
    shutil.copytree(FIXTURES / "smoke3", dst)
    cfg = yaml.safe_load((dst / "scenario.yaml").read_text())
    cfg["diu"]["samples"] = 0
    (dst / "scenario.yaml").write_text(yaml.safe_dump(cfg))
    with pytest.raises(InvalidSpec, match="sample count must be >= 1, got 0"):
        load_scenario(dst)


def test_negative_sample_count_raises_invalid_spec(tmp_path):
    dst = tmp_path / "negative_samples"
    shutil.copytree(FIXTURES / "smoke3", dst)
    cfg = yaml.safe_load((dst / "scenario.yaml").read_text())
    cfg["diu"]["samples"] = -3
    (dst / "scenario.yaml").write_text(yaml.safe_dump(cfg))
    with pytest.raises(InvalidSpec, match="sample count must be >= 1, got -3"):
        load_scenario(dst)


def test_a_zero_noise_magnitude_means_no_noise(tmp_path):
    dst = tmp_path / "quiet"
    shutil.copytree(FIXTURES / "smoke3", dst)
    for name, row, column in (("timeseries.csv", 3, "load_sigma"), ("units.csv", 1, "baseline_sigma"),
                              ("units.csv", 0, "ident_sigma_frac")):
        path = dst / name
        path.write_text("\n".join(_cell(row, column, "0")(path.read_text().splitlines())) + "\n")
    scn = load_scenario(dst, compute_stats=False)
    assert scn.load_dist[3].family == "point"
    assert scn.units[0].unit_dists == {} and scn.units[1].baseline is None


@pytest.mark.parametrize("name, row, column, family", [("units.csv", 1, "baseline_sigma", None),
                                                        ("timeseries.csv", 3, "load_sigma", "load_family")])
def test_a_lognormal_spread_too_small_for_its_log_scale_is_a_load_issue(tmp_path, name, row, column, family):
    # (1e-200 / mean)**2 underflows, so log1p of it, the log-scale variance, is 0
    dst = tmp_path / "tiny"
    shutil.copytree(FIXTURES / "smoke3", dst)
    path = dst / name
    lines = _cell(row, column, "1e-200")(path.read_text().splitlines())
    if family is not None:
        lines = _cell(row, family, "lognormal")(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as err:
        load_scenario(dst, compute_stats=False)
    (issue,) = err.value.issues
    assert f"{name} row {row}" in issue and f" {column}: too small a spread for a lognormal law" in issue


@pytest.mark.parametrize("name", ["smoke3", "synthetic_100tcl"])
def test_the_baseline_series_is_the_per_step_lognormal_of_its_row(name):
    # bit for bit the (mu, sigma) that a timeseries.csv row of the same mean and spread gives
    scn = load_scenario(FIXTURES / name, compute_stats=False)
    with open(FIXTURES / name / "units.csv", newline="") as fh:
        spread = {row["unit_id"]: float(row["baseline_sigma"] or 0.0) for row in csv.DictReader(fh)}
    noisy = [u for u in scn.units if u.baseline is not None]
    assert [u.unit_id for u in noisy] == [uid for uid, bsig in spread.items() if bsig > 0] != []
    for u in noisy:
        issues = []
        specs = [_dist_from_row("lognormal", b, spread[u.unit_id] * max(b, 1e-9), "", "", issues)
                 for b in np.broadcast_to(u.dev.baseline_power, (scn.horizon,)).tolist()]
        assert issues == [] and {spec.family for spec in specs} == {"lognormal"}
        for key in ("mu", "sigma"):
            assert getattr(u.baseline, key).tobytes() == np.array([s.params[key] for s in specs]).tobytes()


def test_price_ordering_violation(tmp_path):
    src = FIXTURES / "smoke3"
    dst = tmp_path / "broken"
    shutil.copytree(src, dst)
    units = (dst / "units.csv").read_text().splitlines()
    # raise the charging incentive of the first unit above its discharge price
    header = units[0].split(",")
    row = units[1].split(",")
    row[header.index("price_c")] = "0.7"
    units[1] = ",".join(row)
    (dst / "units.csv").write_text("\n".join(units) + "\n")
    with pytest.raises(ValidationError) as err:
        load_scenario(dst)
    msg = str(err.value)
    assert "bes1" in msg
    assert "price_c" in msg and "t=" in msg


def test_empty_fleet(tmp_path):
    src = FIXTURES / "smoke3"
    dst = tmp_path / "empty"
    shutil.copytree(src, dst)
    units = (dst / "units.csv").read_text().splitlines()
    (dst / "units.csv").write_text(units[0] + "\n")
    (dst / "unit_series.csv").unlink()
    (dst / "ddu.csv").write_text((dst / "ddu.csv").read_text().splitlines()[0] + "\n")
    with pytest.raises(ValidationError) as err:
        load_scenario(dst)
    assert "EmptyFleet" in str(err.value)


def test_missing_directory():
    with pytest.raises((ParseError, FileNotFoundError)):
        load_scenario(FIXTURES / "does_not_exist")


def test_round_trip(smoke3, tmp_path):
    out1 = tmp_path / "rt1"
    out2 = tmp_path / "rt2"
    serialize(smoke3, out1)
    again = load_scenario(out1)
    assert again.horizon == smoke3.horizon
    assert again.gamma == smoke3.gamma
    assert [u.unit_id for u in again.units] == [u.unit_id for u in smoke3.units]
    for a, b in zip(again.units, smoke3.units):
        assert np.allclose(a.params.p_c_max, b.params.p_c_max)
        assert np.allclose(a.params.soc_lo, b.params.soc_lo)
        assert np.allclose(a.price_c, b.price_c)
        assert a.ddu == b.ddu
    assert np.allclose(again.tou_price, smoke3.tou_price)
    # serialize writes the scenario's own diu.samples and diu.seed, so every DIU statistic reloads bit for bit
    for a, b in zip(again.units, smoke3.units):
        assert b.stats is not None and a.stats is not None, b.unit_id
        for kind in diu.BOUND_KINDS:
            x, y = a.stats.get(kind), b.stats.get(kind)
            for name in ("mu", "sigma", "table"):
                assert getattr(x, name).tobytes() == getattr(y, name).tobytes(), (b.unit_id, kind, name)
    assert (again.diu_samples, again.diu_seed) == (smoke3.diu_samples, smoke3.diu_seed) == (4000, 11)
    # a second serialize of the reloaded bundle is byte-identical
    serialize(again, out2)
    for f in sorted(p.name for p in out1.iterdir()):
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f


def _cell(row, column, value):
    """An edit of a CSV file's lines: `column` of data row `row` set to `value`."""
    def edit(lines):
        cells = lines[row + 1].split(",")
        cells[lines[0].split(",").index(column)] = value
        return [*lines[:row + 1], ",".join(cells), *lines[row + 2:]]
    return edit


def _student_t(lines):
    return [line.replace("shape_class: unimodal", "shape_class: student_t") for line in lines]


# the name predates the other files; it covers every file of a scenario directory
@pytest.mark.parametrize("name, edit, message", [
    ("unit_series.csv", lambda lines: [lines[0], "tcl1,t_in_baseline,x,24.0", *lines[2:]],
     "row 0 t: not an integer step: 'x'"),
    ("unit_series.csv", lambda lines: [*lines, "tcl1,t_in_baseline,1.5,30.0"], "row 72 t: not an integer step: '1.5'"),
    ("unit_series.csv", lambda lines: [*lines, "tcl1,t_in_baseline,0,30.0"],
     "unit_series.csv: unit tcl1 field t_in_baseline has more than one row for step(s) 0"),
    ("unit_series.csv", lambda lines: [line for line in lines if line != "ev1,ev_dsoc,5,0.0"],
     "unit_series.csv: unit ev1 field ev_dsoc has no row for step(s) 5 of the scenario's 0-23"),
    ("unit_series.csv", lambda lines: [*lines, "tcl1,t_in_baseline,24,30.0"],
     "unit_series.csv: unit tcl1 field t_in_baseline has rows for step(s) 24 outside the scenario's 0-23"),
    ("unit_series.csv", lambda lines: [lines[0], "tcl1,t_in_baseline,0,inf", *lines[2:]],
     "row 0 value: not a finite number: 'inf'"),
    ("unit_series.csv", lambda lines: [*lines, *(f"tcl9,t_in_baseline,{t},24.0" for t in range(24))],
     "unit_series.csv: unit tcl9 is not in units.csv"),
    ("unit_series.csv", lambda lines: [*lines, *(f"tcl1,t_outdoor,{t},24.0" for t in range(24))],
     "unit_series.csv: unit tcl1 has unknown field 't_outdoor'"),
    ("unit_series.csv", lambda lines: [lines[0].replace("value", "val"), *lines[1:]],
     "unit_series.csv: no column value"),
    ("timeseries.csv", lambda lines: [line for line in lines if not line.startswith("5,")],
     "timeseries.csv has no row for step(s) 5 of the scenario's 0-23"),
    ("timeseries.csv", lambda lines: [*lines, lines[1]], "timeseries.csv has more than one row for step(s) 0"),
    ("timeseries.csv", _cell(3, "tou_price", "nan"), "timeseries.csv row 3 tou_price: not a finite number: 'nan'"),
    ("units.csv", _cell(0, "p_c_rating", "nan"), "units.csv row 0 p_c_rating: not a finite number: 'nan'"),
    ("units.csv", _cell(1, "price_d", "inf"), "units.csv row 1 price_d: not a finite number: 'inf'"),
    ("units.csv", _cell(0, "s_capacity", "abc"), "units.csv row 0 s_capacity: not a finite number: 'abc'"),
    ("ddu.csv", lambda lines: [*lines, lines[1].replace(",3,", ",0.5,")], "ddu.csv: unit bes1 has more than one row"),
    ("ddu.csv", lambda lines: [*lines, lines[1].replace("bes1", "bes9")], "ddu.csv: unit bes9 is not in units.csv"),
    ("scenario.yaml", lambda lines: [line.replace("horizon: 24", "horizon: abc") for line in lines],
     "scenario.yaml horizon: not an integer: 'abc'"),
    ("scenario.yaml", lambda lines: [line.replace("horizon: 24", "horizon: 0") for line in lines],
     "horizon must be >= 1, got 0"),
    ("scenario.yaml", lambda lines: [line.replace("samples: 4000", "samples: many") for line in lines],
     "scenario.yaml diu.samples: not an integer: 'many'"),
    ("scenario.yaml", lambda lines: [line.replace("gamma: 0.05", "gamma: x") for line in lines],
     "scenario.yaml gamma: not a number: 'x'"),
    ("scenario.yaml", lambda lines: [*lines, "dispatch_window: [1.5, 3]"],
     "scenario.yaml dispatch_window step: not an integer: 1.5"),
    ("scenario.yaml", lambda lines: ["diu: 5" if line == "diu:" else line for line in lines if not line.startswith(" ")],
     "scenario.yaml diu: not a mapping: 5"),
    ("scenario.yaml", lambda lines: [*lines, "dispatch_window: 5"],
     "scenario.yaml dispatch_window: not a list of steps: 5"),
    ("scenario.yaml", lambda lines: [*lines, "reserve: {mode: S1, p_lo: x}"],
     "scenario.yaml reserve.p_lo: not a number: 'x'"),
    ("scenario.yaml", lambda lines: [*lines, "reserve: {mode: S3, p_lo: 2.0, p_hi: 1.0}"],
     "scenario.yaml reserve: reserve mode must be S1 or S2, got 'S3'"),
    ("scenario.yaml", lambda lines: [*_student_t(lines), "shape_nu: 2"],
     "scenario.yaml shape_class: 2.0 must be a finite number above 2 (the student_t nu)"),
    ("scenario.yaml", lambda lines: [*_student_t(lines), "shape_nu: .nan"],
     "scenario.yaml shape_class: nan must be a finite number above 2 (the student_t nu)"),
], ids=["t-not-a-number", "fractional-step", "repeated-row", "missing-step", "off-horizon", "infinite",
        "unknown-unit", "unknown-field", "no-column", "timeseries-missing-step", "timeseries-repeated-step",
        "timeseries-nan-tou-price", "units-nan-p_c_rating", "units-infinite-price_d", "units-not-a-number",
        "ddu-repeated-unit", "ddu-unknown-unit", "yaml-horizon-not-a-number", "yaml-zero-horizon",
        "yaml-samples-not-a-number", "yaml-gamma-not-a-number", "yaml-fractional-window-step",
        "yaml-diu-not-a-mapping", "yaml-window-not-a-list", "yaml-reserve-not-a-number", "yaml-reserve-bad-mode",
        "yaml-student-t-nu-2", "yaml-student-t-nu-nan"])
def test_bad_unit_series_lists_the_problem(tmp_path, name, edit, message):
    dst = tmp_path / "broken"
    shutil.copytree(FIXTURES / "smoke3", dst)
    path = dst / name
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValidationError) as err:
        load_scenario(dst, compute_stats=False)
    assert message in str(err.value)


#: bundle fields added after `_DIGESTS` was frozen; `test_loaded_bundle_keeps_its_digest` checks them by value
_LATER_FIELDS = ("diu_samples", "diu_seed")


def _digest(scn) -> str:
    """sha256 over every field of a loaded bundle but `_LATER_FIELDS`: arrays
    by dtype, shape and bytes, floats by their hex form, so any bit or type
    that moves shows.  A unit's baseline series enters as its per-step
    specs (`lognormal_steps`), which equal the loader's former per-step
    specs exactly when every bit of the series does."""
    h = hashlib.sha256()

    def add(x):
        h.update(type(x).__name__.encode())
        if dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                if isinstance(x, ScenarioBundle) and f.name in _LATER_FIELDS:
                    continue
                if isinstance(x, UnitSpec) and f.name == "baseline":
                    # hashed as the list of per-step lognormal specs that it
                    # replaced after `_DIGESTS` was frozen, under its old name
                    add("baseline_dist")
                    add(None if x.baseline is None else lognormal_steps(x.baseline))
                    continue
                add(f.name)
                add(getattr(x, f.name))
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode() + np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for k, v in x.items():
                add(k)
                add(v)
        elif isinstance(x, (list, tuple)):
            h.update(str(len(x)).encode())
            for v in x:
                add(v)
        elif isinstance(x, (float, np.floating)):
            h.update(float(x).hex().encode())
        else:
            h.update(str(int(x)).encode() if isinstance(x, (int, np.integer)) else repr(x).encode())

    add(scn)
    return h.hexdigest()


def _swap_steps_0_and_19(root):
    lines = (root / "timeseries.csv").read_text().splitlines()
    lines[1], lines[20] = lines[20], lines[1]
    (root / "timeseries.csv").write_text("\n".join(lines) + "\n")


# `_digest` of each bundle as loaded before the scenario tables were read by
# columns (no DIU statistics); "fleet" is `make_100tcl(n_units=1000, seed=5)`
_DIGESTS = {
    "smoke3": "d9f481e4928fe39f7bf0e929a71362ed41f62ddfa8c41589f501bd2c71777a13",
    "synthetic_100tcl": "6b01487ed14de804128ae555fd5c23c0a8bf6b47542b4a6275b554f349cdce68",
    "fleet": "cf2dd07e3a9d1b5c846d4d1144776f956876381fc0b5d09e63ec7228ae2d9d92",
}


# rows of timeseries.csv are placed by their step t, so their order does not matter
@pytest.mark.parametrize("name, edit", [("smoke3", None), ("smoke3", _swap_steps_0_and_19),
                                        ("synthetic_100tcl", None), ("fleet", None)],
                         ids=["smoke3", "smoke3-swapped-steps", "synthetic_100tcl", "generated-fleet"])
def test_loaded_bundle_keeps_its_digest(tmp_path, name, edit):
    from generate_fixtures import make_100tcl

    dst = tmp_path / name
    if name == "fleet":
        make_100tcl(dst, n_units=1000, seed=5)
    else:
        shutil.copytree(FIXTURES / name, dst)
    if edit is not None:
        edit(dst)
    bundle = load_scenario(dst, compute_stats=False)
    assert _digest(bundle) == _DIGESTS[name]
    cfg = yaml.safe_load((dst / "scenario.yaml").read_text())["diu"]
    assert (bundle.diu_samples, bundle.diu_seed) == (cfg["samples"], cfg["seed"])


def test_round_trip_keeps_reserve_limits(smoke3, tmp_path):
    reserve = ReserveSpec(mode="S1", p_lo=-3.0, p_hi=4.0, ramp_up=1.0, ramp_dn=2.0, a=1.5, b=0.5, s1_price=0.7)
    for spec in (reserve, ReserveSpec()):  # the default's limits are infinite
        serialize(replace(smoke3, reserve=spec), tmp_path / spec.mode)
        assert load_scenario(tmp_path / spec.mode, compute_stats=False).reserve == spec
