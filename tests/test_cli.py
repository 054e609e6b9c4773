"""Command-line surface: delegation, end-to-end runs, determinism."""

import csv
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from gesdispatch import cli
from gesdispatch.cantelli import ShapeClass, cantelli_bound
from gesdispatch.cli import RunConfig, main
from gesdispatch.optimizer import aggregate_scenario

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SMOKE = str(FIXTURES / "smoke3")
TCL100 = str(FIXTURES / "synthetic_100tcl")


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_bounds_table_matches_catalog(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--gammas", "0.05,0.25,0.45", "--nu", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.reader(out.read_text().splitlines()))
    gammas = [float(g) for g in rows[0][1:]]
    shapes = {
        "no_assumption": ShapeClass("no_assumption"),
        "symmetric": ShapeClass("symmetric"),
        "unimodal": ShapeClass("unimodal"),
        "symmetric_unimodal": ShapeClass("symmetric_unimodal"),
        "student_t(5)": ShapeClass("student_t", nu=5.0),
        "normal": ShapeClass("normal"),
    }
    assert len(rows) == 7
    for row in rows[1:]:
        shape = shapes[row[0]]
        for g, val in zip(gammas, row[1:]):
            assert float(val) == pytest.approx(cantelli_bound(shape, g), abs=1e-12)


def test_solve_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "m2"
    assert main(["solve", "--scenario", SMOKE, "--mode", "M2", "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("strategy_units.csv", "strategy_system.csv", "summary.yaml", "manifest.yaml"):
        assert (out / name).exists()
    summary = yaml.safe_load((out / "summary.yaml").read_text())
    assert summary["mode"] == "M2"
    assert float(summary["objective"]) > 0  # serialized at full precision as text


def test_solve_then_evaluate_end_to_end(tmp_path, capsys):
    strat = tmp_path / "strategy"
    rep = tmp_path / "report"
    assert main(["solve", "--scenario", TCL100, "--mode", "M3", "--reform", "R1",
                 "--shape", "na", "--out", str(strat)]) == 0
    assert main(["evaluate", "--scenario", TCL100, "--strategy", str(strat),
                 "--draws", "2000", "--seed", "1", "--out", str(rep)]) == 0
    capsys.readouterr()
    report = yaml.safe_load((rep / "report.yaml").read_text())
    assert float(report["lorp"]) <= float(report["gamma"])
    assert (rep / "erns.csv").exists()
    assert (rep / "violation_freq.csv").exists()


def test_capped_fixed_point_returns_its_last_iterate(tmp_path, capsys):
    out = tmp_path / "r2-a2"
    assert main(["solve", "--scenario", SMOKE, "--reform", "R2", "--a2", "--out", str(out)]) == 0
    capsys.readouterr()
    summary = yaml.safe_load((out / "summary.yaml").read_text())
    assert summary["converged"] is False and summary["iterations"] == 2
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 3  # header, the start and 2 iterations


def test_solve_byte_determinism(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    argv = ["solve", "--scenario", SMOKE, "--mode", "M2"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    ta, tb = read_tree(a), read_tree(b)
    assert ta.keys() == tb.keys()
    for name in ta:
        assert ta[name] == tb[name], name


def test_solve_has_no_seed_flag(tmp_path, capsys):
    # solve draws nothing: the DIU seed lives in scenario.yaml
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--scenario", SMOKE, "--seed", "3", "--out", str(out)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_byte_determinism(tmp_path, capsys):
    strat = tmp_path / "s"
    main(["solve", "--scenario", SMOKE, "--mode", "M2", "--out", str(strat)])
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["evaluate", "--scenario", SMOKE, "--strategy", str(strat),
                     "--draws", "500", "--seed", "7", "--out", str(out)]) == 0
        outs.append(read_tree(out))
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_evaluate_loads_without_the_diu_statistics(tmp_path, capsys, monkeypatch, smoke3, smoke3_m2):
    from gesdispatch import scenario_io
    from gesdispatch.reliability import evaluate_reliability

    def no_propagation(*args, **kwargs):
        raise AssertionError("evaluate propagated the DIU statistics")

    cli.write_strategy(tmp_path / "s", smoke3_m2)
    monkeypatch.setattr(scenario_io, "propagate_diu", no_propagation)
    assert main(["evaluate", "--scenario", SMOKE, "--strategy", str(tmp_path / "s"),
                 "--draws", "300", "--seed", "3", "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    want = tmp_path / "want"
    cli.write_report(want, evaluate_reliability(smoke3_m2, smoke3, 300, 3))  # a scenario with its statistics
    assert read_tree(tmp_path / "r") == read_tree(want)


def test_evaluate_refuses_an_invalid_device_only_in_its_own_draws(tmp_path, capsys, smoke3_m2):
    # identification noise of 51 % reaches below zero capacity: about 1 draw in 400 of bes1 and ev1
    scn = tmp_path / "scn"
    shutil.copytree(FIXTURES / "smoke3", scn)
    rows = list(csv.DictReader((scn / "units.csv").read_text().splitlines()))
    for row in rows:
        if row["ident_sigma_frac"]:
            row["ident_sigma_frac"] = "0.51"
    with open(scn / "units.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    cli.write_strategy(tmp_path / "s", smoke3_m2)
    # solve refuses it at load, where 4,000 DIU draws per unit are mapped
    assert main(["solve", "--scenario", str(scn), "--mode", "M2", "--out", str(tmp_path / "m2")]) == 1
    assert "s_capacity must be > 0" in capsys.readouterr().err
    # evaluate maps only its own draws: 20 hold no invalid device, 2,000 do
    evaluate = ["evaluate", "--scenario", str(scn), "--strategy", str(tmp_path / "s"), "--seed", "0"]
    assert main(evaluate + ["--draws", "20", "--out", str(tmp_path / "r20")]) == 0
    capsys.readouterr()
    assert main(evaluate + ["--draws", "2000", "--out", str(tmp_path / "r2000")]) == 1
    assert "s_capacity must be > 0" in capsys.readouterr().err


def test_validation_error_exit_code(tmp_path, capsys):
    import shutil

    dst = tmp_path / "broken"
    shutil.copytree(FIXTURES / "smoke3", dst)
    lines = (dst / "units.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("price_c")] = "0.9"
    lines[1] = ",".join(row)
    (dst / "units.csv").write_text("\n".join(lines) + "\n")
    code = main(["solve", "--scenario", str(dst), "--mode", "M2", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert "price_c" in err


def smoke3_with_cell(dst, name, row, column, value):
    """A copy of smoke3 at `dst` whose table `name` holds `value` in `column` of data row `row`."""
    shutil.copytree(SMOKE, dst)
    lines = (dst / name).read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[row + 1] = ",".join(cells)
    (dst / name).write_text("\n".join(lines) + "\n")
    return dst


@pytest.mark.parametrize("name, row, column, value", [
    ("timeseries.csv", 3, "load_sigma", "-1"), ("timeseries.csv", 5, "res_sigma", "-1"),
    ("units.csv", 1, "baseline_sigma", "-0.1"), ("units.csv", 0, "ident_sigma_frac", "-0.05"),
])
def test_a_negative_noise_magnitude_exits_2(tmp_path, capsys, name, row, column, value):
    # 0 means no noise; a negative magnitude is an input error, not "no noise"
    dst = smoke3_with_cell(tmp_path / "negative", name, row, column, value)
    out = tmp_path / "x"
    code = main(["solve", "--scenario", str(dst), "--mode", "M3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{name} row {row} {column}: must be >= 0, got {float(value)}" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["M1", "M3"])
@pytest.mark.parametrize("value", ["-0.1", "1.2"])
def test_a_soc_init_outside_the_physical_range_exits_2(tmp_path, capsys, mode, value):
    # bes1 starts outside its physical SoC range [0, 1]: an input error, not an infeasible LP (exit 1)
    dst = smoke3_with_cell(tmp_path / "soc_init", "units.csv", 0, "soc_init", value)
    out = tmp_path / "x"
    code = main(["solve", "--scenario", str(dst), "--mode", mode, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert (f"units.csv row 0 (unit bes1): bes1: soc_init must lie in [soc_phys_lo, soc_phys_hi] = [0.0, 1.0], "
            f"got {float(value)}") in err
    assert not out.exists()


@pytest.mark.parametrize("name, row, column", [("units.csv", 1, "baseline_sigma"), ("timeseries.csv", 3, "load_sigma")])
def test_a_lognormal_spread_too_small_for_its_log_scale_exits_2(tmp_path, capsys, name, row, column):
    # its log-scale sigma underflows to 0: an input error that names the cell, not an unnamed exit 1
    dst = smoke3_with_cell(tmp_path / "tiny", name, row, column, "1e-200")
    if name == "timeseries.csv":
        path = dst / name
        path.write_text(path.read_text().replace(f"\n{row},0.5,normal,", f"\n{row},0.5,lognormal,"))
    out = tmp_path / "x"
    code = main(["solve", "--scenario", str(dst), "--mode", "M3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{name} row {row}" in err and f" {column}: too small a spread for a lognormal law" in err
    assert not out.exists()


@pytest.mark.parametrize("mode, exit_code", [("M1", 0), ("M2", 2), ("M3", 2)])
def test_a_soc_init_outside_the_final_soc_band_exits_2_with_its_cell(tmp_path, capsys, mode, exit_code):
    # bes1's identified band is 0.1-0.9, and the sustain row pins its last SoC to soc_init;
    # M1 bounds the SoC by the physical range alone
    dst = smoke3_with_cell(tmp_path / "soc_init", "units.csv", 0, "soc_init", "0.95")
    out = tmp_path / "x"
    code = main(["solve", "--scenario", str(dst), "--mode", mode, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == exit_code
    if exit_code:
        assert "infeasible: empty tightened interval(s): unit=bes1 t=23 [0.95, " in err
        (entry,) = yaml.safe_load((out / "infeasible.yaml").read_text())["empty_intervals"]
        assert entry["unit"] == "bes1" and entry["t"] == 23


def test_reserve_sweep_csv(tmp_path, capsys):
    out = tmp_path / "rs"
    assert main(["reserve", "--scenario", SMOKE, "--gammas", "0.05,0.30",
                 "--modes", "S1,S2", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader((out / "reserve.csv").read_text().splitlines()))
    assert len(rows) == 4
    assert {r["mode"] for r in rows} == {"S1", "S2"}


def test_window_flag(tmp_path, capsys):
    out = tmp_path / "win"
    assert main(["solve", "--scenario", SMOKE, "--mode", "M3", "--reform", "R1",
                 "--window", "19-22", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "strategy_units.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            t = int(row["t"])
            if not 19 <= t <= 22:
                assert float(row["p_c"]) == 0.0 and float(row["p_d"]) == 0.0


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--window", "30"], "--window"),
    (["solve", "--window", "20-40"], "--window"),
    (["solve", "--window", "a-b"], "--window"),
    (["solve", "--gamma", "1.5"], "--gamma"),
    (["solve", "--gamma-balance", "0"], "--gamma-balance"),
    (["solve", "--shape", "xyz"], "--shape"),
    (["solve", "--shape", "t", "--nu", "2"], "--nu"),
    (["solve", "--shape", "t", "--nu", "nan"], "--nu"),
    (["solve", "--shape", "t", "--nu", "-1"], "--nu"),
    (["solve", "--nu", "3"], "--nu"),
    (["solve", "--shape", "u", "--nu", "3"], "--nu"),
    (["solve", "--delta", "0"], "--delta"),
    (["solve", "--max-iter", "0"], "--max-iter"),
    (["solve", "--reform", "R2", "--delta", "0"], "--delta"),
    (["solve", "--reform", "R2", "--max-iter", "0"], "--max-iter"),
    (["solve", "--delta", "-1", "--reform", "R2", "--mode", "M2"], "--delta"),
])
def test_bad_solve_overrides_exit_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "x"
    code = main(argv[:1] + ["--scenario", SMOKE] + argv[1:] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err
    assert not (out / "strategy_units.csv").exists()


def test_evaluate_has_no_gamma_flag(tmp_path, capsys):
    # the report's gamma is the strategy's own
    strat = tmp_path / "s"
    assert main(["solve", "--scenario", SMOKE, "--mode", "M2", "--out", str(strat)]) == 0
    rep = tmp_path / "r"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--scenario", SMOKE, "--strategy", str(strat), "--draws", "50",
              "--gamma", "0.3", "--out", str(rep)])
    assert exc.value.code == 2
    assert "--gamma" in capsys.readouterr().err
    assert not rep.exists()


def test_report_carries_the_gamma_of_the_strategy(tmp_path, capsys):
    strat, rep = tmp_path / "s", tmp_path / "r"
    assert main(["solve", "--scenario", SMOKE, "--mode", "M2", "--gamma", "0.2", "--out", str(strat)]) == 0
    assert main(["evaluate", "--scenario", SMOKE, "--strategy", str(strat), "--draws", "50",
                 "--out", str(rep)]) == 0
    capsys.readouterr()
    assert float(yaml.safe_load((rep / "report.yaml").read_text())["gamma"]) == 0.2


@pytest.mark.parametrize("argv, flag", [
    (["bounds", "--gammas", "abc"], "--gammas"),
    (["bounds", "--gammas", "0.05,,0.1"], "--gammas"),
    (["bounds", "--gammas", "1.5"], "--gammas"),
    (["bounds", "--nu", "1"], "--nu"),
    (["sweep", "--scenario", SMOKE, "--gammas", "abc"], "--gammas"),
    (["sweep", "--scenario", SMOKE, "--gammas", "1.5"], "--gammas"),
    (["reserve", "--scenario", SMOKE, "--gammas", "0.05,,0.1"], "--gammas"),
    (["reserve", "--scenario", SMOKE, "--gammas", "1.5"], "--gammas"),
    (["sweep", "--scenario", SMOKE, "--shape", "bogus"], "--shape"),
])
def test_bad_gammas_or_nu_exit_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "x"
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err and "--gamma " not in err
    assert not out.exists()


def test_bad_solve_options_are_all_listed_before_loading(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_scenario", lambda path: pytest.fail("the scenario was loaded"))
    code = main(["solve", "--scenario", SMOKE, "--mode", "M2", "--reform", "R2", "--shape", "t", "--nu", "2",
                 "--delta", "-1", "--max-iter", "0", "--gamma", "2", "--gamma-balance", "nan",
                 "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert all(issue in err for issue in ("R2 requires model mode M3", "--nu: 2.0", "--delta: -1.0", "--max-iter: 0",
                                          "--gamma: 2.0 must lie in (0, 1)", "--gamma-balance: nan must"))


@pytest.mark.parametrize("argv, issues", [
    (["sweep", "--draws", "0", "--gammas", "2", "--modes", "M9", "--shape", "bogus"],
     ["--draws: 0", "--gammas: 2 must", "--modes: unknown mode 'M9'", "--shape: unknown shape class name 'bogus'"]),
    (["sweep", "--seed", "-1", "--gammas", "0.05,0.1", "--modes", "M1,M3", "--shape", "bogus"],
     ["--seed: -1", "--shape: unknown shape class name 'bogus'"]),
    (["reserve", "--gammas", "0,abc,0.05", "--modes", "S1,none"],
     ["--gammas: 0 must", "--gammas: 'abc'", "--modes: unknown mode 'none'"]),
], ids=["sweep-four-groups", "sweep-one-problem-of-four-cells", "reserve"])
def test_grid_options_are_all_listed_once_before_loading(tmp_path, capsys, monkeypatch, argv, issues):
    monkeypatch.setattr(cli, "load_scenario", lambda path: pytest.fail("the scenario was loaded"))
    out = tmp_path / "x"
    code = main([*argv[:1], "--scenario", SMOKE, *argv[1:], "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert [err.count(issue) for issue in issues] == [1] * len(issues)
    assert len(err.splitlines()) == 1 + len(issues)
    assert not out.exists()


@pytest.mark.parametrize("flags, config", [
    ([], {"model_mode": "M3", "reformulation": "R1", "shape": None, "shape_nu": None, "gamma": None,
          "gamma_balance": None, "delta": 0.001, "max_iter": 25, "window": None, "discomfort_variant": None,
          "a1": False, "a2": False, "reserve": "none"}),
    (["--mode", "M3", "--reform", "R2", "--shape", "t", "--nu", "6", "--gamma", "0.1", "--gamma-balance", "0.2",
      "--delta", "0.01", "--max-iter", "7", "--window", "18-23", "--variant", "F2", "--a1", "--a2",
      "--reserve", "S1"],
     {"model_mode": "M3", "reformulation": "R2", "shape": "t", "shape_nu": 6.0, "gamma": 0.1,
      "gamma_balance": 0.2, "delta": 0.01, "max_iter": 7, "window": "18-23", "discomfort_variant": "F2",
      "a1": True, "a2": True, "reserve": "S1"}),
], ids=["defaults", "every-flag"])
def test_solve_manifest_echoes_every_solve_option(tmp_path, capsys, flags, config):
    out = tmp_path / "s"
    assert main(["solve", "--scenario", SMOKE, *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest == {"version": cli.__version__, "scenario": SMOKE, "config": config}


def write_gamma_scenario(tmp_path, gamma):
    dst = tmp_path / "scn"
    shutil.copytree(FIXTURES / "smoke3", dst)
    cfg = yaml.safe_load((dst / "scenario.yaml").read_text())
    cfg["gamma"] = gamma
    (dst / "scenario.yaml").write_text(yaml.safe_dump(cfg))
    return str(dst)


@pytest.mark.parametrize("argv, source", [
    (["solve", "--scenario", SMOKE, "--gamma", "0.005"], "(set by --gamma 0.005)"),
    (["solve", "--scenario", SMOKE, "--mode", "M1", "--gamma", "0.995"], "(set by --gamma 0.995)"),
    (["sweep", "--scenario", SMOKE, "--gammas", "0.005"], "(set by --gamma 0.005)"),
    (["sweep", "--scenario", SMOKE, "--gammas", "0.05,0.005"], "(set by --gamma 0.005)"),
    (["solve", "--scenario", None], "scenario.yaml gamma 0.005"),
], ids=["solve-low", "solve-m1-high", "sweep", "sweep-second-gamma", "scenario-yaml"])
def test_gamma_outside_the_tabulated_levels_exits_2_before_solving(tmp_path, capsys, monkeypatch, argv, source):
    # the DIU bound quantiles are tabulated at levels 0.01..0.99
    if argv[-1] is None:
        argv = argv[:-1] + [write_gamma_scenario(tmp_path, 0.005)]
    monkeypatch.setattr(cli, "_dispatch", lambda scn, cfg: pytest.fail("a solve ran"))
    out = tmp_path / "x"
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "is outside [0.01, 0.99]" in err and source in err
    assert not out.exists()


def test_bounds_table_is_defined_at_gamma_one(capsys):
    assert main(["bounds", "--gammas", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "no_assumption,0"


def test_bounds_table_at_gamma_one_keeps_the_lower_end_of_the_t_support(capsys):
    assert main(["bounds", "--gammas", "0.05,1"]) == 0
    assert capsys.readouterr().out == (
        "shape,0.050000000000000003,1\n"
        "no_assumption,4.3588989435406731,0\n"
        "symmetric,3.1622776601683795,0\n"
        "unimodal,2.8087165910587859,0\n"
        "symmetric_unimodal,2.1081851067789197,0\n"
        "student_t(5),1.5608497583442291,-inf\n"
        "normal,1.6448536269514722,-inf\n"
    )


def write_student_t_scenario(tmp_path, nu):
    dst = tmp_path / "scn-t"
    shutil.copytree(FIXTURES / "smoke3", dst)
    cfg = yaml.safe_load((dst / "scenario.yaml").read_text())
    cfg.update(shape_class="student_t", shape_nu=nu)
    (dst / "scenario.yaml").write_text(yaml.safe_dump(cfg))
    return str(dst)


@pytest.mark.parametrize("nu", [2.0, float("nan")])
def test_scenario_student_t_nu_outside_the_rule_exits_2(tmp_path, capsys, nu):
    out = tmp_path / "x"
    assert main(["solve", "--scenario", write_student_t_scenario(tmp_path, nu), "--out", str(out)]) == 2
    assert "must be a finite number above 2 (the student_t nu)" in capsys.readouterr().err
    assert not out.exists()


def test_shape_t_without_nu_keeps_the_scenarios_nu(tmp_path, capsys):
    scn = write_student_t_scenario(tmp_path, 3.0)
    assert main(["solve", "--scenario", scn, "--shape", "t", "--out", str(tmp_path / "s")]) == 0
    assert main(["sweep", "--scenario", scn, "--shape", "t", "--modes", "M3", "--draws", "20",
                 "--out", str(tmp_path / "w")]) == 0
    assert main(["solve", "--scenario", scn, "--shape", "t", "--nu", "5", "--out", str(tmp_path / "s5")]) == 0
    capsys.readouterr()
    objective = yaml.safe_load((tmp_path / "s" / "summary.yaml").read_text())["objective"]
    assert objective == "609.50591852273237"
    with open(tmp_path / "w" / "sweep.csv", newline="") as fh:
        assert next(csv.DictReader(fh))["cost_da"] == objective
    assert yaml.safe_load((tmp_path / "s5" / "summary.yaml").read_text())["objective"] == "609.51390452246562"


@pytest.mark.parametrize("command, flag, value", [
    ("evaluate", "--draws", "0"),
    ("evaluate", "--draws", "-5"),
    ("evaluate", "--seed", "-1"),
    ("sweep", "--draws", "0"),
    ("sweep", "--seed", "-1"),
])
def test_bad_draws_or_seed_exits_2_before_loading(tmp_path, capsys, monkeypatch, command, flag, value):
    strat = tmp_path / "s"
    if command == "evaluate":
        assert main(["solve", "--scenario", SMOKE, "--mode", "M2", "--out", str(strat)]) == 0

    def no_load(path):
        raise AssertionError("the scenario was loaded")

    monkeypatch.setattr(cli, "load_scenario", no_load)
    out = tmp_path / "r"
    extra = ["--strategy", str(strat)] if command == "evaluate" else ["--modes", "M1"]
    code = main([command, "--scenario", SMOKE, *extra, flag, value, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{flag}: {value}" in err
    assert not out.exists()


@pytest.mark.parametrize("solve_argv, eval_scenario, missing", [
    (["--scenario", SMOKE, "--a1", "--mode", "M2"], SMOKE, "bes1"),
    (["--scenario", SMOKE, "--mode", "M2"], TCL100, "tcl000"),
], ids=["a1-strategy", "other-fleet"])
def test_evaluate_of_a_mismatched_strategy_exits_2(tmp_path, capsys, solve_argv, eval_scenario, missing):
    strat = tmp_path / "s"
    assert main(["solve", *solve_argv, "--out", str(strat)]) == 0
    rep = tmp_path / "r"
    code = main(["evaluate", "--scenario", eval_scenario, "--strategy", str(strat),
                 "--draws", "50", "--out", str(rep)])
    err = capsys.readouterr().err
    assert code == 2
    assert missing in err and "strategy_units.csv" in err
    assert not (rep / "report.yaml").exists()


@pytest.mark.parametrize("name", ["strategy_units.csv", "strategy_system.csv", "summary.yaml"])
def test_evaluate_of_a_strategy_without_a_file_exits_1(tmp_path, capsys, name):
    strat = tmp_path / "s"
    assert main(["solve", "--scenario", SMOKE, "--mode", "M2", "--out", str(strat)]) == 0
    (strat / name).unlink()
    rep = tmp_path / "r"
    code = main(["evaluate", "--scenario", SMOKE, "--strategy", str(strat), "--draws", "50", "--out", str(rep)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [err.strip()] and err.startswith(f"error: cannot read {strat / name}: ")
    assert not rep.exists()


@pytest.mark.parametrize("edit, message, units", [
    (lambda rows: [r for r in rows if r["t"] != "23"], "has no row for step(s) 23 of the scenario's 0-23",
     {"bes1", "ev1", "tcl1"}),
    (lambda rows: rows + [{**rows[-1], "t": "24"}], "has rows for step(s) 24 outside the scenario's 0-23", {"tcl1"}),
], ids=["short", "long"])
def test_evaluate_of_a_strategy_off_the_horizon_exits_2(tmp_path, capsys, edit, message, units):
    strat = tmp_path / "s"
    assert main(["solve", "--scenario", SMOKE, "--mode", "M2", "--out", str(strat)]) == 0
    with open(strat / "strategy_units.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    with open(strat / "strategy_units.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(edit(rows))
    rep = tmp_path / "r"
    code = main(["evaluate", "--scenario", SMOKE, "--strategy", str(strat), "--draws", "50", "--out", str(rep)])
    err = capsys.readouterr().err
    assert code == 2
    for uid in ("bes1", "ev1", "tcl1"):
        assert (f"unit {uid} {message}" in err) == (uid in units)
    assert not (rep / "report.yaml").exists()


def test_window_ranges_and_steps_combine():
    from gesdispatch.cli import _parse_window

    mask = _parse_window(" 1-2, 5 ,23,", 24)
    assert list(np.flatnonzero(mask)) == [1, 2, 5, 23]


def test_scenario_shape_class_holds_without_shape_flag(tmp_path, capsys):
    import shutil

    from gesdispatch.optimizer import robust_solve_r1
    from gesdispatch.scenario_io import load_scenario

    scn_dir = tmp_path / "smoke3_na"
    shutil.copytree(FIXTURES / "smoke3", scn_dir)
    cfg = yaml.safe_load((scn_dir / "scenario.yaml").read_text())
    cfg["shape_class"] = "no_assumption"
    (scn_dir / "scenario.yaml").write_text(yaml.safe_dump(cfg))
    out = tmp_path / "s"
    assert main(["solve", "--scenario", str(scn_dir), "--out", str(out)]) == 0
    capsys.readouterr()
    summary = yaml.safe_load((out / "summary.yaml").read_text())
    assert float(summary["objective"]) == robust_solve_r1(load_scenario(scn_dir)).objective_value


def test_sweep_applies_r2_to_the_m3_rows(tmp_path, capsys):
    rows = {}
    for reform in ("R1", "R2"):
        out = tmp_path / reform
        assert main(["sweep", "--scenario", SMOKE, "--reform", reform, "--draws", "200",
                     "--out", str(out)]) == 0
        rows[reform] = (out / "sweep.csv").read_text().splitlines()
    capsys.readouterr()
    assert [r.split(",")[1] for r in rows["R2"][1:]] == ["M1", "M2", "M3"]
    assert rows["R2"][:3] == rows["R1"][:3]  # header, M1 and M2 rows byte-equal
    assert rows["R2"][3] != rows["R1"][3]


def test_sweep_and_reserve_rows_equal_the_solve_command(tmp_path, capsys):
    sweep, reserve = tmp_path / "sweep", tmp_path / "reserve"
    assert main(["sweep", "--scenario", SMOKE, "--gammas", "0.1", "--modes", "M2",
                 "--draws", "200", "--out", str(sweep)]) == 0
    assert main(["reserve", "--scenario", SMOKE, "--gammas", "0.1", "--modes", "S1",
                 "--out", str(reserve)]) == 0
    for argv, table in ((["--mode", "M2"], sweep / "sweep.csv"),
                        (["--reserve", "S1"], reserve / "reserve.csv")):
        out = tmp_path / argv[1]
        assert main(["solve", "--scenario", SMOKE, "--gamma", "0.1", *argv, "--out", str(out)]) == 0
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        (row,) = csv.DictReader(table.read_text().splitlines())
        assert row["cost_da"] == summary["objective"]
    capsys.readouterr()


def test_sweep_rows_equal_the_evaluation_of_each_cell(tmp_path, capsys, smoke3):
    from gesdispatch.reliability import evaluate_reliability
    from gesdispatch.scenario_io import fmt

    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", SMOKE, "--gammas", "0.05,0.3", "--reform", "R2",
                 "--draws", "200", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
    assert [r["mode"] for r in rows] == ["M1", "M2", "M3"] * 2
    for row in rows:
        cfg = RunConfig(model_mode=row["mode"], reformulation="R2" if row["mode"] == "M3" else "R1",
                        gamma=float(row["gamma"]))
        scn = cli._apply_config(smoke3, cfg)
        strategy = cli._dispatch(scn, cfg)
        report = evaluate_reliability(strategy, scn, 200, 3)
        assert [row["cost_da"], row["lorp"], row["cost_rt"], row["cost_tc"]] == [
            fmt(strategy.objective_value), fmt(report.lorp), fmt(report.cost_rt), fmt(report.cost_tc)], row


def test_sweep_and_reserve_write_a_manifest(tmp_path, capsys):
    argv = ["sweep", "--scenario", SMOKE, "--gammas", "0.05,0.1", "--modes", "M1,M2",
            "--draws", "50", "--seed", "4"]
    a, b, rs = tmp_path / "a", tmp_path / "b", tmp_path / "rs"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert main(["reserve", "--scenario", SMOKE, "--gammas", "0.05", "--modes", "S1", "--out", str(rs)]) == 0
    capsys.readouterr()
    assert (a / "manifest.yaml").read_bytes() == (b / "manifest.yaml").read_bytes()
    manifest = yaml.safe_load((a / "manifest.yaml").read_text())
    assert manifest["scenario"] == SMOKE
    assert manifest["config"] == {"gammas": [0.05, 0.1], "modes": ["M1", "M2"], "reform": "R1",
                                  "shape": None, "draws": 50, "seed": 4}
    assert yaml.safe_load((rs / "manifest.yaml").read_text())["config"] == {"gammas": [0.05], "modes": ["S1"]}


@pytest.mark.parametrize("command, modes", [("sweep", "M2,M4"), ("reserve", "S1,none")])
def test_unknown_grid_mode_exits_2(tmp_path, capsys, command, modes):
    out = tmp_path / "x"
    code = main([command, "--scenario", SMOKE, "--modes", modes, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--modes" in err and modes.split(",")[1] in err and "scenario" not in err
    assert not out.exists()


@pytest.mark.parametrize("block", ["reserve: {mode: S1, p_lo: x}", "reserve: {p_lo: 2.0, p_hi: 1.0}",
                                   "diu: 5", "dispatch_window: 5",
                                   # values that a number check passes but the LP cannot use
                                   "reserve: {mode: S1, p_lo: .inf}", "reserve: {mode: S1, p_hi: -.inf}",
                                   "reserve: {mode: S1, ramp_up: .nan}", "reserve: {mode: S1, ramp_dn: .nan}",
                                   "reserve: {mode: S1, a: .nan}", "reserve: {mode: S1, b: .inf}",
                                   "reserve: {mode: S1, s1_price: .nan}",
                                   # a negative flat price makes the reserve LP unbounded
                                   "reserve: {mode: S1, s1_price: -1.0}"])
def test_a_bad_scenario_yaml_block_exits_2(tmp_path, capsys, block):
    scn = tmp_path / "scn"
    shutil.copytree(SMOKE, scn)
    lines = (scn / "scenario.yaml").read_text().splitlines()
    if block.startswith("diu:"):
        lines = [line for line in lines if line != "diu:" and not line.startswith(" ")]
    (scn / "scenario.yaml").write_text("\n".join([*lines, block]) + "\n")
    out = tmp_path / "x"
    code = main(["reserve", "--scenario", str(scn), "--gammas", "0.05", "--modes", "S1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input:") and block.split(":")[0] in err
    assert not out.exists()


def test_mismatched_strategy_message_caps_the_unit_list(tmp_path, capsys):
    strat = tmp_path / "s"
    assert main(["solve", "--scenario", SMOKE, "--mode", "M2", "--out", str(strat)]) == 0
    code = main(["evaluate", "--scenario", TCL100, "--strategy", str(strat),
                 "--draws", "50", "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input:")
    assert "tcl000, tcl001, tcl002, tcl003, tcl004 (+95 more)" in err
    assert "tcl005" not in err


def _with_cell(line: str, j: int, text: str) -> str:
    cells = line.split(",")
    cells[j] = text
    return ",".join(cells)


@pytest.mark.parametrize("name, edit, message", [
    ("strategy_system.csv", lambda lines: lines[:-1],
     "strategy_system.csv has no row for step(s) 23 of the scenario's 0-23"),
    ("strategy_system.csv", lambda lines: lines + lines[-1:], "strategy_system.csv has more than one row for step(s) 23"),
    ("strategy_units.csv", lambda lines: [lines[0].replace("p_c", "p_charge"), *lines[1:]],
     "strategy_units.csv: no column p_c"),
    ("strategy_units.csv", lambda lines: [lines[0], _with_cell(lines[1], 2, "abc"), *lines[2:]],
     "strategy_units.csv row 0 p_c: not a finite number: 'abc'"),
    ("strategy_units.csv", lambda lines: [lines[0], _with_cell(lines[1], 5, "nan"), *lines[2:]],
     "strategy_units.csv row 0 rd: not a finite number: 'nan'"),
    ("strategy_units.csv", lambda lines: [lines[0], _with_cell(lines[1], 1, "0.5"), *lines[2:]],
     "strategy_units.csv row 0 t: not an integer step: '0.5'"),
    ("strategy_units.csv", lambda lines: [*lines, _with_cell(lines[1], 2, "999")],
     "strategy_units.csv: unit bes1 has more than one row for step(s) 0"),
    ("summary.yaml", lambda lines: [line for line in lines if not line.startswith("gamma:")],
     "summary.yaml: missing or bad value: 'gamma'"),
    ("summary.yaml", lambda lines: ["objective: abc" if line.startswith("objective:") else line for line in lines],
     "summary.yaml: missing or bad value: could not convert string to float: 'abc'"),
    ("strategy_units.csv", lambda lines: [lines[0], _with_cell(lines[1], 6, "1.5"), *lines[2:]],
     "strategy_units.csv: unit bes1 has reserve values, but summary.yaml has no reserve block"),
], ids=["system-short", "system-repeated", "no-column", "not-a-number", "nan", "fractional-step", "repeated-row",
        "summary-without-gamma", "summary-objective-not-a-number", "reserve-without-a-reserve-block"])
def test_evaluate_of_a_damaged_strategy_exits_2(tmp_path, capsys, name, edit, message):
    strat = tmp_path / "s"
    assert main(["solve", "--scenario", SMOKE, "--mode", "M2", "--out", str(strat)]) == 0
    (strat / name).write_text("\n".join(edit((strat / name).read_text().splitlines())) + "\n")
    rep = tmp_path / "r"
    code = main(["evaluate", "--scenario", SMOKE, "--strategy", str(strat), "--draws", "50", "--out", str(rep)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input:") and message in err
    assert "no schedule" not in err
    assert not rep.exists()


@pytest.mark.parametrize("cell, message", [
    ("", "strategy_units.csv: unit bes1 has no reserve for step(s) 0"),
    ("nan", "strategy_units.csv row 0 reserve: not a finite number: 'nan'"),
], ids=["blank", "nan"])
def test_a_reserve_strategy_needs_every_reserve_cell(tmp_path, capsys, cell, message):
    strat = tmp_path / "s"
    assert main(["solve", "--scenario", SMOKE, "--reserve", "S1", "--out", str(strat)]) == 0
    lines = (strat / "strategy_units.csv").read_text().splitlines()
    (strat / "strategy_units.csv").write_text("\n".join([lines[0], _with_cell(lines[1], 6, cell), *lines[2:]]) + "\n")
    rep = tmp_path / "r"
    code = main(["evaluate", "--scenario", SMOKE, "--strategy", str(strat), "--draws", "50", "--out", str(rep)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input:") and message in err
    assert not rep.exists()


@pytest.mark.parametrize("fixture", ["smoke3", "tcl100"])
def test_read_strategy_returns_the_written_strategy(request, tmp_path, fixture):
    scn = request.getfixturevalue(fixture)
    configs = [RunConfig(model_mode="M1"), RunConfig(model_mode="M2"), RunConfig(reformulation="R1"),
               RunConfig(reformulation="R2"), RunConfig(reserve="S1"), RunConfig(reserve="S2"),
               RunConfig(model_mode="M2", a1=True)]
    for k, cfg in enumerate(configs):
        want = cli._dispatch(scn, cfg)
        cli.write_strategy(tmp_path / str(k), want)
        got = cli.read_strategy(tmp_path / str(k), aggregate_scenario(scn) if cfg.a1 else scn)
        assert got.schedules.keys() == want.schedules.keys() == got.rd.keys() == want.rd.keys()
        for uid, s in want.schedules.items():
            for a, b in ((got.schedules[uid].p_c, s.p_c), (got.schedules[uid].p_d, s.p_d),
                         (got.schedules[uid].soc, s.soc), (got.rd[uid], want.rd[uid])):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (cfg, uid)
        assert got.grid_import.tobytes() == want.grid_import.tobytes()
        if want.reserve_schedule is None:
            assert got.reserve_schedule is None, cfg
        else:
            assert got.reserve_schedule.keys() == want.reserve_schedule.keys(), cfg
            for uid, rs in want.reserve_schedule.items():
                assert got.reserve_schedule[uid].tobytes() == rs.tobytes(), (cfg, uid)
        assert got.reserve_diag == want.reserve_diag, cfg
        assert got.objective_value == want.objective_value
        assert got.metadata == replace(want.metadata, trace=[])


def write_sigma_h_scenario(tmp_path, sigma_h):
    """A smoke3 copy whose every unit has contraction spread `sigma_h`."""
    dst = tmp_path / "scn"
    shutil.copytree(FIXTURES / "smoke3", dst)
    with open(dst / "ddu.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(dst / "ddu.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows({**row, "sigma_h": str(sigma_h)} for row in rows)
    return str(dst)


def test_empty_soc_bounds_exit_2_from_every_solve_command(tmp_path, capsys):
    # sigma_h 2.0 widens the contraction spread until the tightened SoC intervals are empty
    scenario = write_sigma_h_scenario(tmp_path, 2.0)
    written = {}
    for argv in (["solve"], ["sweep", "--gammas", "0.05", "--modes", "M3"],
                 ["reserve", "--gammas", "0.05", "--modes", "S1"]):
        out = tmp_path / argv[0]
        assert main([argv[0], "--scenario", scenario, *argv[1:], "--out", str(out)]) == 2, argv[0]
        assert capsys.readouterr().err.startswith("infeasible: empty tightened interval(s)"), argv[0]
        assert sorted(p.name for p in out.iterdir()) == ["infeasible.yaml"], argv[0]
        written[argv[0]] = (out / "infeasible.yaml").read_bytes()
    entries = yaml.safe_load(written["solve"])["empty_intervals"]
    assert entries and all(float(e["lower"]) > float(e["upper"]) for e in entries)
    assert written["sweep"] == written["reserve"] == written["solve"]


def test_solve_variant_equals_the_library_solve(tmp_path, capsys, smoke3):
    from gesdispatch.optimizer import robust_solve_r1

    out = tmp_path / "f3"
    assert main(["solve", "--scenario", SMOKE, "--variant", "F3", "--out", str(out)]) == 0
    capsys.readouterr()
    f3 = replace(smoke3, units=[replace(u, ddu=replace(u.ddu, discomfort_variant="F3")) for u in smoke3.units])
    want = robust_solve_r1(f3)
    got = cli.read_strategy(out, smoke3)
    assert got.objective_value == want.objective_value
    assert got.objective_value != robust_solve_r1(smoke3).objective_value  # the variant reaches the LP
    assert got.grid_import.tobytes() == want.grid_import.tobytes()
    for uid, s in want.schedules.items():
        for name in ("p_c", "p_d", "soc"):
            assert getattr(got.schedules[uid], name).tobytes() == getattr(s, name).tobytes(), (uid, name)
        assert got.rd[uid].tobytes() == want.rd[uid].tobytes(), uid
    assert yaml.safe_load((out / "manifest.yaml").read_text())["config"]["discomfort_variant"] == "F3"
