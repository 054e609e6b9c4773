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
                 "--delta", "-1", "--max-iter", "0", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert all(issue in err for issue in ("R2 requires model mode M3", "--nu: 2.0", "--delta: -1.0", "--max-iter: 0"))


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
                                   "diu: 5", "dispatch_window: 5"])
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
