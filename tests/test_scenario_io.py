"""Scenario directory loading, validation diagnostics, and round-tripping."""

import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from gesdispatch import diu
from gesdispatch.errors import InvalidSpec, ParseError, ValidationError
from gesdispatch.scenario import ReserveSpec
from gesdispatch.scenario_io import load_scenario, serialize

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
        if not u.unit_dists and u.baseline_dist is None:
            assert got is None
            continue
        want = diu.propagate_diu(u.unit_dists, u.dev, u.baseline_dist, scn.dt, scn.horizon,
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
    serialize(smoke3, out1, diu_samples=4000, diu_seed=11)
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
    # a second serialize of the reloaded bundle is byte-identical
    serialize(again, out2, diu_samples=4000, diu_seed=11)
    for f in sorted(p.name for p in out1.iterdir()):
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [lines[0], "tcl1,t_in_baseline,x,24.0", *lines[2:]], "row 0 t: not an integer step: 'x'"),
    (lambda lines: [*lines, "tcl1,t_in_baseline,1.5,30.0"], "row 72 t: not an integer step: '1.5'"),
    (lambda lines: [*lines, "tcl1,t_in_baseline,0,30.0"],
     "unit_series.csv: unit tcl1 field t_in_baseline has more than one row for step(s) 0"),
    (lambda lines: [line for line in lines if line != "ev1,ev_dsoc,5,0.0"],
     "unit_series.csv: unit ev1 field ev_dsoc has no row for step(s) 5 of the scenario's 0-23"),
    (lambda lines: [*lines, "tcl1,t_in_baseline,24,30.0"],
     "unit_series.csv: unit tcl1 field t_in_baseline has rows for step(s) 24 outside the scenario's 0-23"),
    (lambda lines: [lines[0], "tcl1,t_in_baseline,0,inf", *lines[2:]], "row 0 value: not a finite number: 'inf'"),
    (lambda lines: [*lines, *(f"tcl9,t_in_baseline,{t},24.0" for t in range(24))],
     "unit_series.csv: unit tcl9 is not in units.csv"),
    (lambda lines: [*lines, *(f"tcl1,t_outdoor,{t},24.0" for t in range(24))],
     "unit_series.csv: unit tcl1 has unknown field 't_outdoor'"),
    (lambda lines: [lines[0].replace("value", "val"), *lines[1:]], "unit_series.csv: no column value"),
], ids=["t-not-a-number", "fractional-step", "repeated-row", "missing-step", "off-horizon", "infinite",
        "unknown-unit", "unknown-field", "no-column"])
def test_bad_unit_series_lists_the_problem(tmp_path, edit, message):
    dst = tmp_path / "broken"
    shutil.copytree(FIXTURES / "smoke3", dst)
    path = dst / "unit_series.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValidationError) as err:
        load_scenario(dst, compute_stats=False)
    assert message in str(err.value)


def test_round_trip_keeps_reserve_limits(smoke3, tmp_path):
    reserve = ReserveSpec(mode="S1", p_lo=-3.0, p_hi=4.0, ramp_up=1.0, ramp_dn=2.0, a=1.5, b=0.5, s1_price=0.7)
    for spec in (reserve, ReserveSpec()):  # the default's limits are infinite
        serialize(replace(smoke3, reserve=spec), tmp_path / spec.mode, diu_samples=10, diu_seed=1)
        assert load_scenario(tmp_path / spec.mode, compute_stats=False).reserve == spec
