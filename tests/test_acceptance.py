"""Acceptance gate: ten criteria, one printed pass/fail line each.

Statistical thresholds combine the evaluation sample error with the error of
the bound statistics themselves (4000 propagation samples in the fixtures):
3 * sqrt(gamma * (1 - gamma) * (1/draws + 1/4000)).
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sstats

from gesdispatch.cantelli import ShapeClass, cantelli_bound
from gesdispatch.ddu import DduSpec, expansion_anchor
from gesdispatch.distributions import DistributionSpec, quantile, sample
from gesdispatch.diu import propagate_diu
from gesdispatch.ges import DeviceDescription, GesParams, UnitSchedule, aggregate_fleet, map_device_to_ges
from gesdispatch.optimizer import (
    iterative_solve_r2,
    robust_solve_r1,
    solve_cco_diu,
    solve_deterministic_m1,
)
from gesdispatch.reliability import evaluate_many
from gesdispatch.reserve import required_reliability, reserve_price, solve_with_reserve
from gesdispatch.scenario import ReserveSpec

from util import (
    Realized,
    average_contraction,
    bes_device,
    contraction_distribution,
    expost_row_frequencies,
    make_scenario,
    make_unit,
    nearest_rank,
    point_baseline,
    realized_bounds,
    response_discomfort_series,
    score_bounds,
    stat_threshold,
    step_soc,
)


def report(criterion, ok, detail):
    line = f"{criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, file=sys.stderr)
    assert ok, line


@pytest.fixture(scope="module")
def r2_tcl100(tcl100):
    return iterative_solve_r2(tcl100, delta=1e-3, max_iter=25)


@pytest.fixture(scope="module")
def reserve_sweep(tcl100):
    out = {}
    for g in (0.05, 0.30, 0.55, 0.80):
        scn = replace(tcl100, gamma=g, gamma_balance=g)
        out[g] = {
            mode: solve_with_reserve(scn, ReserveSpec(mode=mode, a=1.0, b=2.0))
            for mode in ("S1", "S2")
        }
    return out


# ---------------------------------------------------------------------------


def test_ac1_catalog_exactness():
    start = time.perf_counter()
    shapes = {
        "na": ShapeClass("no_assumption"), "s": ShapeClass("symmetric"),
        "u": ShapeClass("unimodal"), "su": ShapeClass("symmetric_unimodal"),
        "t5": ShapeClass("student_t", nu=5.0), "n": ShapeClass("normal"),
    }

    def oracle(kind, nu, g):
        if kind == "no_assumption":
            return math.sqrt((1.0 - g) / g)
        if kind == "symmetric":
            return math.sqrt(0.5 / g) if g < 0.5 else 0.0
        if kind == "unimodal":
            if g <= 1 / 6:
                return math.sqrt((4.0 - 9.0 * g) / (9.0 * g))
            return math.sqrt((3.0 - 3.0 * g) / (1.0 + 3.0 * g))
        if kind == "symmetric_unimodal":
            if g <= 1 / 6:
                return math.sqrt(2.0 / (9.0 * g))
            return math.sqrt(3.0) * (1.0 - 2.0 * g) if g <= 0.5 else 0.0
        if kind == "student_t":
            return sstats.t.ppf(1.0 - g, nu) * math.sqrt((nu - 2.0) / nu)
        return sstats.norm.ppf(1.0 - g)

    max_err = 0.0
    ok = True
    for k in range(1, 1000):
        g = k / 1000.0
        vals = {}
        for name, s in shapes.items():
            v = cantelli_bound(s, g)
            vals[name] = v
            max_err = max(max_err, abs(v - oracle(s.kind, s.nu, g)))
        ok &= vals["na"] >= vals["s"] - 1e-12
        ok &= vals["na"] >= vals["u"] - 1e-12
        ok &= vals["u"] >= vals["su"] - 1e-12
        ok &= vals["s"] >= vals["su"] - 1e-12
    for g0 in (1 / 6, 0.5):
        for s in (shapes["u"], shapes["su"]):
            ok &= abs(cantelli_bound(s, g0 - 1e-13) - cantelli_bound(s, g0 + 1e-13)) < 1e-6
    elapsed = time.perf_counter() - start
    report("AC1", ok and max_err <= 1e-12 and elapsed < 1.0,
           f"max closed-form error {max_err:.2e}, dominance on 999-point grid, {elapsed:.2f}s")


def test_ac2_bound_soundness():
    start = time.perf_counter()
    gammas = (0.01, 0.05, 0.1, 0.25, 0.45)
    na = ShapeClass("no_assumption")
    uni = ShapeClass("unimodal")
    su = ShapeClass("symmetric_unimodal")
    worst = -math.inf
    ok = True
    for g in gammas:
        z = sstats.norm.ppf(1.0 - g)
        for shape in (na, uni, su):  # standard normal belongs to all classes
            ok &= z <= cantelli_bound(shape, g) + 1e-9
        # standardized lognormal (unimodal, asymmetric)
        s = 0.5
        m, sd = sstats.lognorm.stats(s, moments="mv")
        q = (sstats.lognorm.ppf(1.0 - g, s) - m) / math.sqrt(sd)
        for shape in (na, uni):
            ok &= q <= cantelli_bound(shape, g) + 1e-9
            worst = max(worst, q - cantelli_bound(shape, g))
        # standardized Student-t(5) (symmetric unimodal)
        qt = sstats.t.ppf(1.0 - g, 5.0) / math.sqrt(5.0 / 3.0)
        for shape in (na, uni, su):
            ok &= qt <= cantelli_bound(shape, g) + 1e-9
            worst = max(worst, qt - cantelli_bound(shape, g))
    elapsed = time.perf_counter() - start
    report("AC2", ok and elapsed < 30.0,
           f"quantiles never exceed class bounds (worst margin {-worst:.3f}), {elapsed:.1f}s")


def test_ac3_diu_row_validity(smoke3, smoke3_m2):
    start = time.perf_counter()
    draws = 100_000
    freqs = expost_row_frequencies(smoke3_m2, smoke3, draws=draws, seed=17)
    thresh = stat_threshold(0.05, draws)
    worst_name, worst = max(
        ((name, float(np.max(f))) for name, f in freqs.items()), key=lambda kv: kv[1]
    )
    elapsed = time.perf_counter() - start
    report("AC3", worst <= thresh and elapsed < 120.0,
           f"worst row {worst_name} at {worst:.4f} <= {thresh:.4f} over {draws} draws, {elapsed:.0f}s")


def test_ac4_fixed_point_convergence(tcl100, tcl100_strategies, r2_tcl100):
    start = time.perf_counter()
    meta = r2_tcl100.metadata
    gap = (tcl100_strategies["M3"].objective_value - r2_tcl100.objective_value) / abs(
        r2_tcl100.objective_value
    )
    elapsed = time.perf_counter() - start
    ok = meta.converged and meta.iterations <= 10 and gap <= 0.03
    report("AC4", ok,
           f"converged in {meta.iterations} iterations, one-shot/fixed-point gap {gap:.3%} <= 3%")


def test_ac5_conservatism_ordering(tcl100, tcl100_strategies, r2_tcl100):
    na = tcl100_strategies["M3"].objective_value  # fixture shape: no assumption
    uni = robust_solve_r1(replace(tcl100, shape_class=ShapeClass("unimodal"))).objective_value
    r2 = r2_tcl100.objective_value
    ok = na >= uni - 1e-6 and uni >= r2 - 1e-6
    report("AC5", ok, f"objectives {na:.2f} (no-assumption) >= {uni:.2f} (unimodal) >= {r2:.2f} (fixed point)")


def test_ac6_reliability_trends(tcl100, tcl100_strategies):
    start = time.perf_counter()
    draws = 10_000
    reports = evaluate_many(tcl100_strategies, tcl100, draws=draws, seed=123)
    l1, l2, l3 = (reports[m].lorp for m in ("M1", "M2", "M3"))
    c1, c2, c3 = (reports[m].cost_rt for m in ("M1", "M2", "M3"))
    thresh = stat_threshold(tcl100.gamma, draws)
    ok = (l1 > l2 > l3) and l3 <= thresh and (c3 < c2 < c1)
    elapsed = time.perf_counter() - start
    report("AC6", ok and elapsed < 900.0,
           f"LORP {l1:.3f} > {l2:.3f} > {l3:.4f} (<= {thresh:.4f}); "
           f"real-time cost {c3:.2f} < {c2:.2f} < {c1:.2f}; {elapsed:.0f}s at {draws} draws")


def test_ac7_window_effect(tcl100):
    start = time.perf_counter()
    mask = np.zeros(tcl100.horizon, dtype=bool)
    mask[19:23] = True  # evening-peak dispatch window
    details = []
    ok = True
    for variant in ("F1", "F2", "F3"):
        units = [replace(u, ddu=replace(u.ddu, discomfort_variant=variant))
                 for u in tcl100.units]
        base = replace(tcl100, units=units)
        d1 = robust_solve_r1(base)
        d2 = robust_solve_r1(replace(base, dispatch_window=mask))
        c1 = average_contraction(d1, base)
        c2 = average_contraction(d2, base)
        ok &= c2 <= c1 + 1e-12
        details.append(f"{variant}: {c2:.4f} <= {c1:.4f}")
    elapsed = time.perf_counter() - start
    report("AC7", ok and elapsed < 600.0,
           "peak-window contraction <= all-day contraction (" + "; ".join(details) + f"), {elapsed:.0f}s")


def test_ac8_reserve_trends(reserve_sweep):
    gammas = sorted(reserve_sweep)
    ges = [reserve_sweep[g]["S2"].reserve_diag["ges_energy_kwh"] for g in gammas]
    rsv = [reserve_sweep[g]["S2"].reserve_diag["reserve_energy_kwh"] for g in gammas]
    ok = all(a >= b - 1e-6 for a, b in zip(ges, ges[1:]))
    ok &= all(a <= b + 1e-6 for a, b in zip(rsv, rsv[1:]))
    for g in gammas:
        ok &= (reserve_sweep[g]["S2"].objective_value
               <= reserve_sweep[g]["S1"].objective_value + 1e-6)
    report("AC8", ok,
           f"storage energy {['%.0f' % v for v in ges]} nonincreasing, "
           f"reserve energy {['%.0f' % v for v in rsv]} nondecreasing, "
           "probabilistic cost <= deterministic cost at every gamma")


def test_ac9_derived_example_oracles(smoke3):
    start = time.perf_counter()
    failures = []

    def check(name, got, want, tol):
        if not abs(got - want) <= tol:
            failures.append(f"{name}: {got} vs {want} (tol {tol})")

    def check_true(name, cond):
        if not cond:
            failures.append(name)

    T = 24
    # device mapping
    tcl = DeviceDescription(
        kind="TCL_IVA", unit_id="tcl", thermal_resistance=2.0, thermal_capacity=2.0,
        conversion_efficiency=2.5, t_comfort_lo=22.0, t_comfort_hi=26.0,
        t_in_baseline=24.0, p_min=0.0, p_max=10.0, baseline_power=4.0,
    )
    p_tcl = map_device_to_ges(tcl, 1.0, T)
    check("tcl eps", p_tcl.eps, 1.0 - math.exp(-0.25), 1e-9)
    check("tcl soc coordinate", float(p_tcl.soc_baseline[0]), (26.0 - 24.0) / (26.0 - 22.0), 1e-12)

    def flat_params(eps=0.0, alpha=0.0):
        z = np.zeros(T)
        return GesParams(
            unit_id="u", S=10.0, eta_c=1.0, eta_d=1.0, eps=eps, dt=1.0,
            p_c_max=np.full(T, 5.0), p_d_max=np.full(T, 5.0),
            soc_lo=z.copy(), soc_hi=np.ones(T), alpha=np.full(T, alpha),
            soc_init=0.5, soc_baseline=np.full(T, 0.5),
            soc_baseline_avg=np.full(T, 0.5), deadband=np.full(T, 0.1),
            on_prob=np.ones(T),
        )

    check("step_soc charge", step_soc(0.5, 1.0, 0.0, flat_params(), 0), 0.6, 1e-12)
    check("step_soc fixed point", step_soc(0.5, 0.0, 0.0, flat_params(0.2, 0.1), 0), 0.5, 1e-12)

    # distributions
    x = sample(DistributionSpec.normal(0.0, 1.0), 10**6, seed=7)
    check("normal mean", float(x.mean()), 0.0, 0.005)
    check("normal sd", float(x.std()), 1.0, 0.005)
    hn = sample(DistributionSpec.truncated_normal(0.0, 1.0, 0.0, math.inf), 10**6, seed=11)
    check("half-normal mean", float(hn.mean()), math.sqrt(2.0 / math.pi), 0.01)
    check("nearest-rank quantile", nearest_rank(np.arange(1.0, 101.0), 0.95), 95.0, 0.0)
    check("empirical normal quantile", nearest_rank(x, 0.95),
          sstats.norm.ppf(0.95), 0.01)

    # tail catalog
    check("no-assumption factor", cantelli_bound(ShapeClass("no_assumption"), 0.05),
          math.sqrt(19.0), 1e-12)
    check("normal factor", cantelli_bound(ShapeClass("normal"), 0.05),
          float(sstats.norm.ppf(0.95)), 1e-9)

    # propagation: truncated-normal rating
    n = 20_000
    a, b = (8.5 - 10.0) / 0.5, (11.5 - 10.0) / 0.5
    stats = propagate_diu(
        {"p_max": DistributionSpec.truncated_normal(10.0, 0.5, 8.5, 11.5)},
        tcl, point_baseline(4.0, T), 1.0, T, n=n, seed=1,
    )
    se = float(sstats.truncnorm.std(a, b, loc=10.0, scale=0.5)) / math.sqrt(n)
    check("propagated rating mean", float(stats.p_c_max.mu[0]),
          float(sstats.truncnorm.mean(a, b, loc=10.0, scale=0.5)) - 4.0, 3 * se)

    # discomfort
    sched_full = UnitSchedule(p_c=np.zeros(T), p_d=np.full(T, 5.0), soc=np.full(T + 1, 0.5))
    rd_f1 = response_discomfort_series(sched_full, flat_params(), DduSpec(discomfort_variant="F1"))
    check("F1 cumulative intensity", float(rd_f1[4]), 5.0 / T, 1e-12)
    sched_dev = UnitSchedule(p_c=np.zeros(T), p_d=np.zeros(T), soc=np.full(T + 1, 0.65))
    rd_f2 = response_discomfort_series(sched_dev, flat_params(), DduSpec(lam=0.7))
    check("F2 deviation term", float(rd_f2[0]), 0.3 * (0.15 - 0.05), 1e-12)

    # realized-bound model with the reference parameter set
    paper = DduSpec(sigma_g=0.5, sigma_h=0.1, beta_up=3.0, beta_lo=6.0, lam=0.7,
                    c_bar=1.5, q_g_level=0.05)
    anchor0 = expansion_anchor(0.9, 1.0, 0.0, replace(paper, q_g_level=0.5))
    g_med = float(sstats.truncnorm.ppf(0.5, 0.0, 2.0, loc=0.0, scale=0.5))
    check("zero-price anchor", anchor0, 0.9 + 0.1 * g_med, 1e-9)
    # upper: comfort 0.6, identified 0.9, physical 1.0; lower: comfort 0.4, identified 0.1, physical 0.0
    up, lo = expansion_anchor(0.9, 1.0, 0.3, paper), expansion_anchor(0.1, 0.0, 0.6, paper)
    rng = np.random.default_rng(0)
    hu = sample(contraction_distribution(0.2, "upper", paper), 100_000, rng.spawn(1)[0])
    hl = sample(contraction_distribution(0.2, "lower", paper), 100_000, rng.spawn(1)[0])
    ordered = np.mean((lo + (0.4 - lo) * hl) <= (up + (0.6 - up) * hu))
    check_true(f"bounds ordered in {ordered:.3f} of draws", ordered >= 0.99)

    z95 = float(sstats.norm.ppf(0.95))
    check("lognormal quantile", quantile(DistributionSpec.lognormal(0.0, 0.1), 0.95),
          math.exp(0.1 * z95), 1e-9)
    check("lognormal scale property", quantile(DistributionSpec.lognormal(0.3, 0.1), 0.95),
          math.exp(0.3) * math.exp(0.1 * z95), 1e-9)

    # dispatch economics
    inert = make_scenario([make_unit(bes_device(rating=0.0, soc_lo=0.0, soc_hi=1.0), T)],
                          T, tou=0.9, load=10.0)
    check("grid-only objective", solve_cco_diu(inert).objective_value, 216.0, 1e-6)
    priced = make_scenario([make_unit(bes_device(), T)], T)
    from gesdispatch.optimizer import evaluate_objective
    from gesdispatch.optimizer import DispatchStrategy, SolveMetadata

    sch = UnitSchedule(p_c=np.zeros(T), p_d=np.zeros(T), soc=np.full(T + 1, 0.5))
    sch.p_d[5] = 2.0
    strat = DispatchStrategy(schedules={"bes": sch}, grid_import=np.zeros(T),
                             rd={"bes": np.zeros(T)}, objective_value=0.0,
                             metadata=SolveMetadata(mode="M2"))
    check("single-discharge cost", evaluate_objective(priced, strat), 1.2, 1e-12)

    # model ordering and fleet merge
    m1 = solve_deterministic_m1(smoke3).objective_value
    m2 = solve_cco_diu(smoke3).objective_value
    m3 = robust_solve_r1(smoke3).objective_value
    check_true(f"model objectives ordered ({m1:.1f} <= {m2:.1f} <= {m3:.1f})",
               m1 <= m2 + 1e-6 <= m3 + 2e-6)
    pa, pb = flat_params(eps=0.1), flat_params(eps=0.3)
    pb = replace(pb, unit_id="u2", S=30.0)
    check("capacity-weighted decay", aggregate_fleet([pa, pb]).eps, 0.25, 1e-12)

    # fixed-point solve on the smoke fleet
    r2 = iterative_solve_r2(smoke3, delta=1e-3)
    deltas = [d for _, d in r2.metadata.trace[2:]]
    check_true("fixed point <= 10 iterations, shrinking steps",
               r2.metadata.iterations <= 10
               and all(x >= y - 1e-9 for x, y in zip(deltas, deltas[1:])))

    # beta doubling contracts realized bounds under common random numbers
    spec = DduSpec(sigma_g=0.5, sigma_h=0.1, beta_up=3.0, beta_lo=6.0, q_g_level=0.05)
    dev = bes_device(soc_lo=0.1, soc_hi=0.9, deadband=0.4)
    s1 = make_scenario([make_unit(dev, 8, ddu=spec)], 8, load=15.0)
    s2 = make_scenario(
        [make_unit(dev, 8, ddu=replace(spec, beta_up=6.0, beta_lo=12.0))], 8, load=15.0)
    active = DispatchStrategy(
        schedules={"bes": UnitSchedule(p_c=np.zeros(8), p_d=np.full(8, 3.0),
                                       soc=np.full(9, 0.5))},
        grid_import=np.zeros(8), rd={}, objective_value=0.0,
        metadata=SolveMetadata(mode="M2"))
    active.rd = {"bes": response_discomfort_series(active.schedules["bes"],
                                                   s1.units[0].params, spec)}
    b1 = realized_bounds(active, s1, draws=500, seed=7)["bes"]
    b2 = realized_bounds(active, s2, draws=500, seed=7)["bes"]
    check_true("beta doubling pulls bounds comfort-ward",
               np.all(b2.upper.mean(axis=0) <= b1.upper.mean(axis=0) + 1e-9)
               and np.all(b2.lower.mean(axis=0) >= b1.lower.mean(axis=0) - 1e-9))

    # scoring arithmetic on constructed realizations
    scn = make_scenario([make_unit(bes_device(S=10.0), 8)], 8, tou=0.9)
    rest = DispatchStrategy(
        schedules={"bes": UnitSchedule(p_c=np.zeros(8), p_d=np.zeros(8),
                                       soc=np.full(9, 0.5))},
        grid_import=np.zeros(8), rd={"bes": np.zeros(8)}, objective_value=0.0,
        metadata=SolveMetadata(mode="M2"))
    upper = np.full(8, 0.9)
    upper[3] = 0.45
    batch = {"bes": Realized(upper=np.tile(upper, (4, 1)), lower=np.tile(np.full(8, 0.1), (4, 1)), crossings=0)}
    rep = score_bounds(rest, scn, batch)
    check("constructed ERNS", float(rep.erns[3]), 0.5, 1e-12)
    check("constructed LORP", rep.lorp, 1.0, 0.0)
    lower = np.full(8, 0.1)
    lower[2] = 0.6
    batch_under = {"bes": Realized(upper=np.tile(np.full(8, 0.9), (4, 1)), lower=np.tile(lower, (4, 1)), crossings=0)}
    check("under-response penalty", score_bounds(rest, scn, batch_under).cost_rt, 1.3 * 0.9, 1e-9)
    scn14 = make_scenario([make_unit(bes_device(S=10.0), 8)], 8, tou=1.4)
    check("over-response penalty",
          score_bounds(DispatchStrategy(
              schedules={"bes": UnitSchedule(p_c=np.zeros(8), p_d=np.zeros(8),
                                             soc=np.full(9, 0.55))},
              grid_import=np.zeros(8), rd={"bes": np.zeros(8)}, objective_value=0.0,
              metadata=SolveMetadata(mode="M2")), scn14, batch).cost_rt,
          0.3 * 1.4, 1e-9)

    # reserve formulas
    check("required reliability", required_reliability(0.83, 0.05), 1.0 - 0.05 / 0.17, 1e-9)
    check("reserve price", reserve_price(0.5, 1.0, 2.0), 0.25, 1e-12)

    elapsed = time.perf_counter() - start
    report("AC9", not failures and elapsed < 300.0,
           f"all derived-example oracles hold, {elapsed:.0f}s"
           + ("" if not failures else "; failures: " + "; ".join(failures)))


def test_ac10_cli_determinism(tmp_path, capsys):
    from gesdispatch.cli import main
    from pathlib import Path

    smoke = str(Path(__file__).resolve().parents[1] / "fixtures" / "smoke3")
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--scenario", smoke, "--mode", "M3", "--reform", "R2",
                     "--out", str(out)]) == 0
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    capsys.readouterr()
    ok = trees[0] == trees[1]
    report("AC10", ok, "two identical solve invocations produced byte-identical artifacts")
