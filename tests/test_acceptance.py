"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package and prints a single
PASS/FAIL line with the measured numbers (run with ``pytest -s`` to see the
lines for passing tests).
"""

import math
import time

import numpy as np
from scipy import stats

import dvrchan as dv
from dvrchan.analytics import NoPathError
from dvrchan.cli import main as cli_main
from dvrchan.geometry import LensSpec, _lens_area, sample_uniform_in_lens
from dvrchan.pointprocess import ScattererClass, Scenario, substream
from dvrchan.simulator import ANGLE_BIN_EDGES, run_experiment

from _oracles import (
    angle_bin_probabilities,
    double_integral,
    fd_mixed_partial,
    grid_cell_probabilities,
    grid_cells,
    inner_integral,
)


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} [{name}] {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_acceptance_pmf_agreement_and_bimodality(gtu, gtu_scenario):
    start = time.perf_counter()
    summary = run_experiment(
        gtu_scenario, gtu.interactions["reflection"], 100_000, seed=gtu.seed
    )
    elapsed = time.perf_counter() - start
    support = np.arange(len(summary.empirical_pmf))
    analytic = dv.mpc_pmf(support, gtu_scenario)
    tv = 0.5 * float(np.abs(summary.empirical_pmf - analytic).sum())
    first_peak = int(np.argmax(analytic[:30]))
    second_peak = 30 + int(np.argmax(analytic[30:]))
    emp_first = int(np.argmax(summary.empirical_pmf[:30]))
    emp_second = 30 + int(np.argmax(summary.empirical_pmf[30:]))
    ok = (
        tv < 0.01
        and elapsed < 30.0
        and abs(first_peak - 20) <= 2
        and abs(second_peak - 41) <= 3
        and abs(emp_first - first_peak) <= 2
        and abs(emp_second - second_peak) <= 2
    )
    report(
        "count-pmf",
        ok,
        f"TV={tv:.4f} (<0.01), peaks analytic=({first_peak},{second_peak}) "
        f"empirical=({emp_first},{emp_second}), runtime={elapsed:.1f}s (<30s)",
    )


def test_acceptance_distance_marginals_ks(gtu, gtu_scenario):
    results = []
    for offset, kind in enumerate(("short", "tall")):
        lens = gtu_scenario.scatterer_class(kind).lens(200.0)
        pts = sample_uniform_in_lens(lens, substream(gtu.seed, 500 + offset), size=100_000)
        x = np.hypot(pts[:, 0], pts[:, 1])
        y = np.hypot(pts[:, 0] - 200.0, pts[:, 1])
        for axis, samples, cdf in (("x", x, dv.distance_cdf_bs), ("y", y, dv.distance_cdf_ms)):
            res = stats.kstest(samples, cdf, args=(gtu_scenario, kind))
            results.append((f"{kind}-{axis}", res.pvalue))
    ok = all(p > 0.01 for _, p in results)
    detail = ", ".join(f"{name} p={p:.3f}" for name, p in results)
    report("distance-marginals-ks", ok, f"{detail} (all > 0.01)")


def test_acceptance_joint_density(gtu_scenario):
    # kernel against an independent finite-difference oracle
    rng = np.random.default_rng(301)
    worst_fd = 0.0
    checked = 0
    while checked < 1000:
        d = rng.uniform(50.0, 400.0)
        x = rng.uniform(10.0, 600.0)
        lo, hi = abs(d - x), d + x
        y = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
        value = dv.density_kernel(d, x, y)
        worst_fd = max(worst_fd, abs(value / fd_mixed_partial(d, x, y) - 1.0))
        checked += 1
    # normalization of the joint density over its support
    pdf = lambda x, y: dv.joint_pdf(x, y, gtu_scenario, "short")
    total = double_integral(pdf, gtu_scenario, "short", n_inner=160, n_outer=160)
    # marginal (integrated joint) against the derivative of the distance CDF
    h = 0.05
    worst_marginal = 0.0
    for x in np.linspace(0.0, 500.0, 102)[1:-1]:
        marginal = inner_integral(pdf, gtu_scenario, "short", float(x))
        fd = (
            dv.distance_cdf_bs(x + h, gtu_scenario, "short")
            - dv.distance_cdf_bs(x - h, gtu_scenario, "short")
        ) / (2.0 * h)
        worst_marginal = max(worst_marginal, abs(marginal / fd - 1.0))
    ok = worst_fd < 1e-4 and abs(total - 1.0) < 1e-3 and worst_marginal < 1e-3
    report(
        "joint-density",
        ok,
        f"kernel-vs-FD max rel={worst_fd:.2e} (<1e-4), integral={total:.6f} "
        f"(|.-1|<1e-3), marginal-vs-CDF' max rel={worst_marginal:.2e} (<1e-3) over 100 points",
    )


def test_acceptance_mean_toa_sweep(gtu):
    gammas = (0.0, 0.22, 0.5, 1.0)
    worst = 0.0
    n_points = 0
    no_path_ok = True
    monotone_ok = True
    for d_prime in gtu.toa_d_prime:
        defined = {}
        for gamma in gammas:
            scenario = gtu.scenario(d_prime=d_prime, gamma=gamma)
            try:
                analytic = dv.mean_toa(scenario)
            except NoPathError:
                # the simulator must agree that the gate-closed branch never
                # produces a component
                summary = run_experiment(
                    scenario, gtu.interactions["reflection"], 5_000, seed=gtu.seed,
                    statistics={"toa"},
                )
                no_path_ok &= summary.tau_closed.count == 0
                if gamma == 0.0:
                    no_path_ok &= summary.tau_open.count == 0
                continue
            summary = run_experiment(
                scenario, gtu.interactions["reflection"], 100_000, seed=gtu.seed,
                statistics={"toa"},
            )
            rel = abs(summary.toa_mean / analytic - 1.0)
            worst = max(worst, rel)
            n_points += 1
            defined[gamma] = analytic
        values = [defined[g] for g in gammas if g in defined]
        monotone_ok &= all(b >= a for a, b in zip(values, values[1:]))
    ok = worst < 0.01 and no_path_ok and monotone_ok
    report(
        "mean-toa-sweep",
        ok,
        f"max rel err={worst:.4f} (<0.01) over {n_points} defined grid points, "
        f"no-path consistent={no_path_ok}, analytic non-decreasing in gamma={monotone_ok}",
    )


def test_acceptance_power_dual_estimators(gtu):
    worst_sigma = 0.0
    for i, d_prime in enumerate(gtu.power_d_prime):
        for mode, interaction in gtu.interactions.items():
            scenario = gtu.scenario(d_prime=d_prime)
            theory, theory_se = dv.mean_received_power(
                scenario, interaction, 100_000, rng=substream(gtu.seed, 600 + i)
            )
            summary = run_experiment(scenario, interaction, 10_000, seed=gtu.seed)
            sigma = abs(theory - summary.power.mean) / math.hypot(theory_se, summary.power.stderr)
            worst_sigma = max(worst_sigma, sigma)
    # long-wavelength synthetic scenario where the direct estimator is smooth
    synthetic = Scenario(
        50.0,
        ScattererClass("short", 80.0, 60.0, 1e-3),
        ScattererClass("tall", 120.0, 100.0, 2e-4),
        0.3,
    )
    interaction = dv.InteractionModel("reflection", 10.0, 500.0, -1.17, 0.4)
    theory, _ = dv.mean_received_power(synthetic, interaction, 200_000, rng=substream(700, 0))
    summary = run_experiment(synthetic, interaction, 200_000, seed=700)
    synth_rel = abs(summary.power.mean / theory - 1.0)
    ok = worst_sigma < 3.0 and synth_rel < 0.05
    report(
        "power-dual-estimators",
        ok,
        f"max |closed-form - simulated| = {worst_sigma:.2f} sigma (<3) over "
        f"{len(gtu.power_d_prime) * 2} grid points, synthetic long-wavelength rel "
        f"err={synth_rel:.4f} (<0.05)",
    )


def test_acceptance_geometry_invariants():
    rng = np.random.default_rng(800)
    triples = []
    for _ in range(10_000):
        a, b = rng.uniform(0.5, 500.0, 2)
        triples.append((rng.uniform(0.01, a + b + 10.0), a, b))
    # the areas of every triple at once, through the elementwise formula
    d0, a, b = np.array(triples).T
    area = _lens_area(d0, a, b)
    sym_ok = bool(np.all(area == _lens_area(d0, b, a)))
    mono_ok = bool(np.all(_lens_area(d0, a * 1.02, b) >= area - 1e-12))
    eps = 1e-9 * np.maximum(a, b)
    contained = math.pi * np.minimum(a, b) ** 2
    inner = np.abs(_lens_area(np.abs(a - b) + eps, a, b) - contained) / contained
    worst_cont = max(
        np.max(inner, where=np.abs(a - b) > eps, initial=0.0),
        np.max(_lens_area(a + b - eps, a, b) / contained),
    )
    spec = LensSpec(200.0, 500.0, 300.0)
    pts = sample_uniform_in_lens(spec, substream(801, 0), size=1_000_000)
    probs = grid_cell_probabilities(spec, 10, 20_000_000, np.random.default_rng(802))
    observed = np.bincount(grid_cells(spec, 10, pts[:, 0], pts[:, 1]), minlength=100)
    expected = probs * len(pts)
    keep = expected >= 20
    chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    pvalue = stats.chi2.sf(chi2, int(keep.sum()) - 1)
    ok = worst_cont < 1e-6 and sym_ok and mono_ok and pvalue > 0.01
    report(
        "geometry-invariants",
        ok,
        f"max boundary discontinuity={worst_cont:.2e} (<1e-6), symmetric={sym_ok}, "
        f"monotone={mono_ok} over 10000 triples, uniformity chi2 p={pvalue:.3f} (>0.01)",
    )


def test_acceptance_angle_profiles(gtu, gtu_scenario):
    n = 45_000
    summary = run_experiment(gtu_scenario, gtu.interactions["reflection"], n, seed=gtu.seed)
    n_mpc = int(summary.aod_histogram.sum())
    centers = 0.5 * (ANGLE_BIN_EDGES[:-1] + ANGLE_BIN_EDGES[1:])
    zero_bin = int(np.argmin(np.abs(centers)))
    profile = angle_bin_probabilities(gtu_scenario, gtu_scenario.gamma, False, ANGLE_BIN_EDGES)
    oracle_peak = int(np.argmax(profile))
    # Given the gate states, short and tall counts are Poisson with means
    # mu_s * n and mu_t * n_open, so given n_mpc the bin counts are
    # multinomial over the lenses mixed by the realized open fraction.
    gamma_hat = summary.n_gate_open / n
    p_values = {}
    for name, hist, from_ms in (
        ("departure", summary.aod_histogram, False),
        ("arrival", summary.aoa_histogram, True),
    ):
        probs = angle_bin_probabilities(gtu_scenario, gamma_hat, from_ms, ANGLE_BIN_EDGES)
        p_values[name] = float(stats.chisquare(hist, n_mpc * probs).pvalue)
    aoa = summary.aoa_histogram.astype(float)
    aoa_ratio = float(aoa.max() / aoa.min()) if aoa.min() > 0 else math.inf
    ok = (
        n_mpc >= 1_000_000
        and oracle_peak == zero_bin
        and min(p_values.values()) > 0.01
        and aoa_ratio < 1.5
    )
    report(
        "angle-profiles",
        ok,
        f"{n_mpc} components, oracle departure peak bin={oracle_peak} (expect {zero_bin}, "
        f"toward the MS), chi-square p departure={p_values['departure']:.3f} "
        f"arrival={p_values['arrival']:.3f} (>0.01, 63 dof), "
        f"arrival max/min bin ratio={aoa_ratio:.3f} (<1.5)",
    )


def test_acceptance_deterministic_outputs(tmp_path):
    digests = {}
    for command, n in (("pmf", "2000"), ("angles", "2000")):
        outs = []
        for name, extra in (("a", []), ("b", []), ("c", ["--workers", "3"])):
            out = tmp_path / f"{command}-{name}.csv"
            code = cli_main([command, "--out", str(out), "--realizations", n] + extra)
            assert code == 0
            outs.append(out.read_bytes())
        digests[command] = outs[0] == outs[1] == outs[2]
    ok = all(digests.values())
    report(
        "deterministic-outputs",
        ok,
        f"byte-identical CSVs across repeat runs and worker counts: {digests}",
    )
