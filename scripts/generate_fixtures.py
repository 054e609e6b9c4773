#!/usr/bin/env python3
"""Generate the versioned scenario fixtures.

Writes two scenario directories:

* ``fixtures/smoke3`` — a 3-unit fleet (one battery, one thermostatic load,
  one EV) for fast statistical checks;
* ``fixtures/synthetic_100tcl`` — 100 heterogeneous thermostatic loads with
  an evening comfort tightening and an evening price peak, used for the
  trend-replication experiments.

All randomness is drawn from fixed seeds so the generated files are stable;
run with ``python3 scripts/generate_fixtures.py [output_root]``.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np
import yaml

HORIZON = 24


def sig(x, digits=10):
    return float(format(float(x), f".{digits}g"))


def tou_profile():
    tou = np.empty(HORIZON)
    tou[:8] = 0.5
    tou[8:18] = 0.55
    tou[18:] = 1.4
    return tou


def write_timeseries(root: Path, tou, load_mean, load_sigma, res_mean, res_sigma):
    with open(root / "timeseries.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "tou_price", "load_family", "load_mean", "load_sigma",
                    "res_family", "res_mean", "res_sigma"])
        for t in range(HORIZON):
            w.writerow([t, sig(tou[t]), "normal", sig(load_mean[t]), sig(load_sigma[t]),
                        "normal", sig(res_mean[t]), sig(res_sigma[t])])


def write_ddu(root: Path, unit_ids, q_g_level=0.05, variant="F2"):
    with open(root / "ddu.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["unit_id", "sigma_g", "sigma_h", "beta_up", "beta_lo", "lam",
                    "c_bar", "q_g_level", "h_family", "discomfort_variant"])
        for uid in unit_ids:
            w.writerow([uid, 0.5, 0.1, 3, 6, 0.7, 1.5, q_g_level, "lognormal", variant])


UNIT_COLS = [
    "unit_id", "kind", "thermal_resistance", "thermal_capacity",
    "conversion_efficiency", "t_comfort_lo", "t_comfort_hi", "p_min", "p_max",
    "baseline_power", "s_capacity", "eta_c", "eta_d", "eps", "p_c_rating",
    "p_d_rating", "soc_lo", "soc_hi", "soc_init", "soc_phys_lo", "soc_phys_hi",
    "soc_ramp_up", "soc_ramp_dn", "deadband", "on_prob",
    "baseline_sigma", "ident_sigma_frac", "price_c", "price_d",
]


def write_units(root: Path, rows):
    with open(root / "units.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=UNIT_COLS, extrasaction="ignore")
        w.writeheader()
        for row in rows:
            w.writerow(row)


def write_unit_series(root: Path, rows):
    if not rows:
        return
    with open(root / "unit_series.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["unit_id", "field", "t", "value"])
        w.writerows(rows)


def write_config(root: Path, **extra):
    cfg = {
        "horizon": HORIZON,
        "dt": 1.0,
        "gamma": 0.05,
        "shape_class": "unimodal",
    }
    cfg.update(extra)
    (root / "scenario.yaml").write_text(yaml.safe_dump(cfg, sort_keys=True))


# ---------------------------------------------------------------------------


def make_smoke3(root: Path):
    root.mkdir(parents=True, exist_ok=True)
    t = np.arange(HORIZON)
    load_mean = 30.0 + 14.0 * np.exp(-((t - 19.0) / 2.5) ** 2)
    load_sigma = 0.02 * load_mean
    res_mean = np.where(np.abs(t - 13) <= 5, 8.0 * np.exp(-((t - 13.0) / 3.0) ** 2), 0.0)
    res_sigma = 0.10 * res_mean
    write_timeseries(root, tou_profile(), load_mean, load_sigma, res_mean, res_sigma)

    rows = [
        {
            "unit_id": "bes1", "kind": "BES", "s_capacity": 50, "eta_c": 0.95,
            "eta_d": 0.95, "eps": 0.01, "p_c_rating": 10, "p_d_rating": 10,
            "soc_lo": 0.1, "soc_hi": 0.9, "soc_init": 0.5, "deadband": 0.2,
            "ident_sigma_frac": 0.05, "price_c": 0.3, "price_d": 0.6,
        },
        {
            "unit_id": "tcl1", "kind": "TCL_IVA", "thermal_resistance": 2.0,
            "thermal_capacity": 2.0, "conversion_efficiency": 2.5,
            "t_comfort_lo": 21.0, "t_comfort_hi": 27.0, "p_min": 0.0,
            "p_max": 5.0, "baseline_power": 2.0, "deadband": 0.2,
            "baseline_sigma": 0.10, "price_c": 0.3, "price_d": 0.6,
        },
        {
            "unit_id": "ev1", "kind": "EV", "s_capacity": 40, "eta_c": 0.95,
            "eta_d": 0.95, "eps": 0.0, "p_c_rating": 7, "p_d_rating": 7,
            "soc_lo": 0.2, "soc_hi": 0.9, "soc_init": 0.55, "deadband": 0.2,
            "ident_sigma_frac": 0.05, "price_c": 0.3, "price_d": 0.6,
        },
    ]
    write_units(root, rows)
    write_ddu(root, [r["unit_id"] for r in rows])

    series = []
    for step in range(HORIZON):
        series.append(["tcl1", "t_in_baseline", step, 24.0])
        charging = 18 <= step <= 21
        series.append(["ev1", "ev_base_p_c", step, 3.0 if charging else 0.0])
        series.append(["ev1", "ev_dsoc", step, sig(3.0 * 0.95 / 40.0) if charging else 0.0])
    write_unit_series(root, series)
    write_config(root, grid_cap=200.0, diu={"samples": 4000, "seed": 11})


def make_100tcl(root: Path, n_units=100, evening_t_lo=22.8, seed=20240817):
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    t = np.arange(HORIZON)
    load_mean = 150.0 + 100.0 * np.exp(-((t - 19.5) / 2.0) ** 2)
    load_sigma = 0.015 * load_mean
    res_mean = np.where(np.abs(t - 13) <= 5, 40.0 * np.exp(-((t - 13.0) / 3.0) ** 2), 0.0)
    res_sigma = 0.10 * res_mean
    write_timeseries(root, tou_profile(), load_mean, load_sigma, res_mean, res_sigma)

    # comfort band: loose all day, tightened during the evening occupancy hours
    evening = (t >= 17) & (t <= 23)
    band_lo = np.where(evening, evening_t_lo, 21.0)
    band_hi = np.where(evening, 48.0 - evening_t_lo, 27.0)  # symmetric about 24

    rows = []
    series = []
    for k in range(n_units):
        uid = f"tcl{k:03d}"
        r = sig(rng.uniform(1.8, 2.2), 6)
        c = sig(rng.uniform(1.8, 2.2), 6)
        p_max = sig(rng.uniform(4.5, 5.5), 6)
        base = sig(rng.uniform(1.6, 2.4), 6)
        t_in = sig(rng.uniform(23.85, 24.15), 6)
        rows.append({
            "unit_id": uid, "kind": "TCL_IVA", "thermal_resistance": r,
            "thermal_capacity": c, "conversion_efficiency": 2.5,
            "p_min": 0.0, "p_max": p_max, "baseline_power": base,
            "deadband": 0.3, "on_prob": 0.83, "baseline_sigma": 0.08,
            "price_c": 0.3, "price_d": 0.6,
        })
        for step in range(HORIZON):
            series.append([uid, "t_comfort_lo", step, sig(band_lo[step], 6)])
            series.append([uid, "t_comfort_hi", step, sig(band_hi[step], 6)])
            series.append([uid, "t_in_baseline", step, t_in])
    write_units(root, rows)
    write_ddu(root, [r["unit_id"] for r in rows])
    write_unit_series(root, series)
    write_config(root, grid_cap=600.0, shape_class="no_assumption",
                 diu={"samples": 4000, "seed": 7})


def main():
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "fixtures"
    make_smoke3(out / "smoke3")
    make_100tcl(out / "synthetic_100tcl")
    print(f"fixtures written under {out}")


if __name__ == "__main__":
    main()
