import math

import numpy as np
import pytest
from scipy import integrate, stats

import dvrchan as dv
from dvrchan.analytics import (
    SPEED_OF_LIGHT,
    DegenerateScenarioError,
    InteractionModel,
    NoPathError,
)
from dvrchan.geometry import LensSpec, lens_area, sample_uniform_in_lens, support_bounds
from dvrchan.pointprocess import ScattererClass, Scenario

from _oracles import double_integral, inner_integral, mc_lens_area

GTU_MU_SHORT = 19.98995405479186
GTU_MU_TALL = 20.878560464118564


def make_scenario(d_prime=200.0, gamma=0.22, lam_s=7.07e-5, lam_t=4.2e-7):
    return Scenario(
        d_prime=d_prime,
        short=ScattererClass("short", 500.0, 300.0, lam_s),
        tall=ScattererClass("tall", 4100.0, 4000.0, lam_t),
        gamma=gamma,
    )


class TestMpcPmf:
    def test_mixture_identity(self, gtu_scenario):
        support = np.arange(90)
        pmf = dv.mpc_pmf(support, gtu_scenario)
        expected = 0.22 * stats.poisson.pmf(support, GTU_MU_SHORT + GTU_MU_TALL) + 0.78 * stats.poisson.pmf(support, GTU_MU_SHORT)
        np.testing.assert_allclose(pmf, expected, rtol=1e-12)

    def test_gamma_zero_collapses_to_poisson(self):
        scenario = make_scenario(gamma=0.0)
        support = np.arange(60)
        np.testing.assert_allclose(
            dv.mpc_pmf(support, scenario),
            stats.poisson.pmf(support, GTU_MU_SHORT),
            rtol=1e-12,
        )

    def test_normalization(self, gtu_scenario):
        mu = GTU_MU_SHORT + GTU_MU_TALL
        cap = int(mu + 10.0 * math.sqrt(mu))
        total = float(np.sum(dv.mpc_pmf(np.arange(cap + 1), gtu_scenario)))
        assert total > 1.0 - 1e-10

    def test_gtu_pmf_is_bimodal(self, gtu_scenario):
        pmf = dv.mpc_pmf(np.arange(80), gtu_scenario)
        first_peak = int(np.argmax(pmf[:30]))
        second_peak = 30 + int(np.argmax(pmf[30:55]))
        valley = int(np.argmin(pmf[first_peak:second_peak])) + first_peak
        assert abs(first_peak - 20) <= 2
        assert abs(second_peak - 41) <= 3
        assert pmf[valley] < pmf[first_peak] and pmf[valley] < pmf[second_peak]


class TestMpcMean:
    def test_gtu(self, gtu_scenario):
        assert dv.mpc_mean(gtu_scenario) == pytest.approx(GTU_MU_SHORT + 0.22 * GTU_MU_TALL)
        assert dv.mpc_mean(gtu_scenario) == pytest.approx(24.6, abs=0.05)

    def test_gamma_one(self):
        scenario = make_scenario(gamma=1.0)
        assert dv.mpc_mean(scenario) == pytest.approx(GTU_MU_SHORT + GTU_MU_TALL)

    def test_disjoint_both_classes(self):
        assert dv.mpc_mean(make_scenario(d_prime=9000.0)) == 0.0


class TestDistanceCdfs:
    def test_endpoints(self, gtu_scenario):
        assert dv.distance_cdf_bs(0.0, gtu_scenario, "short") == 0.0
        assert dv.distance_cdf_bs(500.0, gtu_scenario, "short") == 1.0
        assert dv.distance_cdf_ms(300.0, gtu_scenario, "short") == 1.0

    def test_gtu_short_value_is_area_ratio(self, gtu_scenario):
        value = dv.distance_cdf_bs(300.0, gtu_scenario, "short")
        rng = np.random.default_rng(21)
        num = mc_lens_area(200.0, 300.0, 300.0, 2_000_000, rng)
        den = mc_lens_area(200.0, 500.0, 300.0, 2_000_000, rng)
        assert value == pytest.approx(num / den, rel=5e-3)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            scenario = make_scenario(d_prime=rng.uniform(0.0, 700.0))
            for kind in ("short", "tall"):
                grid = np.linspace(0.0, 5000.0, 200)
                values = [dv.distance_cdf_bs(g, scenario, kind) for g in grid]
                assert all(0.0 <= v <= 1.0 for v in values)
                assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_degenerate_lens_raises(self):
        scenario = make_scenario(d_prime=9000.0)
        with pytest.raises(DegenerateScenarioError):
            dv.distance_cdf_bs(100.0, scenario, "short")

    @pytest.mark.parametrize("kind", ["short", "tall"])
    @pytest.mark.parametrize(
        "d_prime, v1, v2",
        [
            (100.0, 500.0, 300.0),  # contained, v1 > v2
            (100.0, 300.0, 500.0),  # contained, v1 < v2
            (600.0, 500.0, 300.0),  # partial
            (800.0 * (1.0 - 1e-6), 500.0, 300.0),  # thin: gap 1e-6 of v1 + v2
            (0.0, 500.0, 300.0),  # d' = 0
            (0.0, 300.0, 300.0),  # d' = 0, concentric equal circles
        ],
    )
    def test_array_matches_scalar(self, kind, d_prime, v1, v2):
        scenario = Scenario(
            d_prime,
            ScattererClass("short", v1, v2, 1e-5),
            ScattererClass("tall", v1, v2, 1e-7),
            0.5,
        )
        if abs(v1 - v2) >= d_prime:
            assert lens_area(LensSpec(d_prime, v1, v2)) == math.pi * min(v1, v2) ** 2
        a_min, a_max, b_min, b_max = support_bounds(LensSpec(d_prime, v1, v2))
        for cdf, lower, upper in (
            (dv.distance_cdf_bs, a_min, a_max),
            (dv.distance_cdf_ms, b_min, b_max),
        ):
            t = np.concatenate([np.linspace(-1.0, 1.1 * upper, 301), [lower, upper]])
            values = cdf(t, scenario, kind)
            scalars = [cdf(float(v), scenario, kind) for v in t]
            assert all(type(v) is float for v in scalars)
            np.testing.assert_array_equal(values, scalars)
            assert np.all(values[t <= lower] == 0.0)
            assert np.all(values[t >= upper] == 1.0)

    def test_matches_sampled_marginal(self, gtu_scenario):
        lens = LensSpec(200.0, 500.0, 300.0)
        pts = sample_uniform_in_lens(lens, np.random.default_rng(23), size=20_000)
        x = np.hypot(pts[:, 0], pts[:, 1])
        result = stats.kstest(x, dv.distance_cdf_bs, args=(gtu_scenario, "short"))
        assert result.pvalue > 0.01


class TestMeanDistances:
    def test_centered_disk_mean(self):
        # d' = 0 with a dominant BS radius: the lens is the MS disk and the
        # mean distance from its center is two thirds of the radius
        scenario = Scenario(
            0.0,
            ScattererClass("short", 5000.0, 300.0, 1e-5),
            ScattererClass("tall", 4100.0, 4000.0, 0.0),
            0.0,
        )
        assert dv.mean_distance_ms(scenario, "short") == pytest.approx(200.0, rel=1e-12)

    @pytest.mark.parametrize(
        "d_prime, v1, v2",
        [
            (100.0, 500.0, 300.0),  # contained, v1 > v2
            (100.0, 300.0, 500.0),  # contained, v1 < v2
            (600.0, 500.0, 300.0),  # partial, v1 > v2
            (600.0, 300.0, 500.0),  # partial, v1 < v2
            (800.0 * (1.0 - 1e-6), 500.0, 300.0),  # thin: gap 1e-6 of v1 + v2
            (700.0, 4100.0, 4000.0),  # tall preset
            (0.5, 4100.0, 4000.0),
        ],
    )
    def test_matches_tight_quad(self, d_prime, v1, v2):
        scenario = Scenario(
            d_prime, ScattererClass("short", v1, v2, 1e-5), ScattererClass("tall", v1, v2, 0.0), 0.0
        )
        a_min, a_max, b_min, b_max = support_bounds(LensSpec(d_prime, v1, v2))
        for mean, cdf, lower, upper, other in (
            (dv.mean_distance_bs, dv.distance_cdf_bs, a_min, a_max, v2),
            (dv.mean_distance_ms, dv.distance_cdf_ms, b_min, b_max, v1),
        ):
            points = [p for p in (lower, abs(d_prime - other)) if 0.0 < p < upper]
            reference, _ = integrate.quad(
                lambda t: 1.0 - cdf(t, scenario, "short"),
                0.0,
                upper,
                points=points or None,
                epsabs=0.0,
                epsrel=1e-13,
                limit=500,
            )
            assert mean(scenario, "short") == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("v1, v2", [(500.0, 300.0), (300.0, 500.0), (4100.0, 4000.0)])
    def test_centered_path_length(self, v1, v2):
        scenario = Scenario(
            0.0, ScattererClass("short", v1, v2, 1e-5), ScattererClass("tall", v1, v2, 0.0), 0.0
        )
        length = dv.mean_distance_bs(scenario, "short") + dv.mean_distance_ms(scenario, "short")
        assert length == pytest.approx(4.0 / 3.0 * min(v1, v2), rel=1e-13)

    @pytest.mark.parametrize("d_prime", [100.0, 600.0, 700.0])
    def test_swapping_radii_swaps_means(self, d_prime):
        def scenario(v1, v2):
            cls = ScattererClass("short", v1, v2, 1e-5)
            return Scenario(d_prime, cls, ScattererClass("tall", v1, v2, 0.0), 0.0)

        one, other = scenario(500.0, 300.0), scenario(300.0, 500.0)
        assert dv.mean_distance_bs(other, "short") == pytest.approx(
            dv.mean_distance_ms(one, "short"), rel=1e-14
        )
        assert dv.mean_distance_ms(other, "short") == pytest.approx(
            dv.mean_distance_bs(one, "short"), rel=1e-14
        )

    @pytest.mark.parametrize("kind", ["short", "tall"])
    def test_matches_sample_mean(self, gtu_scenario, kind):
        cls = gtu_scenario.scatterer_class(kind)
        pts = sample_uniform_in_lens(cls.lens(200.0), np.random.default_rng(24), size=200_000)
        x = np.hypot(pts[:, 0], pts[:, 1])
        y = np.hypot(pts[:, 0] - 200.0, pts[:, 1])
        for sample, value in (
            (x, dv.mean_distance_bs(gtu_scenario, kind)),
            (y, dv.mean_distance_ms(gtu_scenario, kind)),
        ):
            stderr = sample.std() / math.sqrt(len(sample))
            assert abs(sample.mean() - value) < 4.0 * stderr


class TestMeanToa:
    def test_gamma_zero_is_short_only(self, gtu):
        scenario = gtu.scenario(gamma=0.0)
        expected = (
            dv.mean_distance_bs(scenario, "short") + dv.mean_distance_ms(scenario, "short")
        ) / SPEED_OF_LIGHT
        assert dv.mean_toa(scenario) == pytest.approx(expected, rel=1e-12)

    def test_increasing_in_gamma(self, gtu):
        values = [dv.mean_toa(gtu.scenario(gamma=g)) for g in (0.0, 0.22, 0.5, 1.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_gate_open_weights_sum_to_one(self, gtu):
        scenario = gtu.scenario(gamma=1.0)
        mu_s, mu_t = GTU_MU_SHORT, GTU_MU_TALL
        tau_s = dv.mean_distance_bs(scenario, "short") + dv.mean_distance_ms(scenario, "short")
        tau_t = dv.mean_distance_bs(scenario, "tall") + dv.mean_distance_ms(scenario, "tall")
        expected = (mu_s * tau_s + mu_t * tau_t) / (mu_s + mu_t) / SPEED_OF_LIGHT
        assert dv.mean_toa(scenario) == pytest.approx(expected, rel=1e-9)

    def test_no_path_errors(self):
        with pytest.raises(NoPathError):
            dv.mean_toa(make_scenario(d_prime=9000.0, gamma=0.5))
        # short class disjoint while the gate-closed branch still has weight
        with pytest.raises(NoPathError):
            dv.mean_toa(make_scenario(d_prime=900.0, gamma=0.22))
        # gate always open: tall-only paths are fine
        assert dv.mean_toa(make_scenario(d_prime=900.0, gamma=1.0)) > 0.0


class TestJointPdf:
    def test_outside_support_is_zero(self, gtu_scenario):
        assert dv.joint_pdf(600.0, 100.0, gtu_scenario, "short") == 0.0
        assert dv.joint_pdf(100.0, 600.0, gtu_scenario, "short") == 0.0
        # inside the nominal box but violating the triangle inequality
        assert dv.joint_pdf(400.0, 100.0, gtu_scenario, "short") == 0.0

    def test_edge_with_short_baseline_is_zero(self):
        # on the edge y = x + d' with d' << x (see test_geometry's kernel test)
        scenario = make_scenario(d_prime=6.5e-4)
        for x in np.linspace(999.0, 1001.0, 201):
            assert dv.joint_pdf(x, x + 6.5e-4, scenario, "tall") == 0.0

    def test_array_matches_scalar_calls(self, gtu_scenario):
        # inside; outside the box; outside the triangle; on the edges
        # x + y = d', x - y = d' and y - x = d'; at a negative distance
        x = np.array([450.0, 100.0, 600.0, 100.0, 400.0, 150.0, 400.0, 50.0, -1.0])
        y = np.array([280.0, 150.0, 100.0, 600.0, 100.0, 50.0, 200.0, 250.0, 100.0])
        # d' << x: on the edge y = x + d' and inside, at y = x
        thin = make_scenario(d_prime=6.5e-4)
        x_thin = np.linspace(999.0, 1001.0, 201)
        for scenario, kind, xs, ys in (
            (gtu_scenario, "short", x, y),
            (thin, "tall", x_thin, x_thin + 6.5e-4),
            (thin, "tall", x_thin, x_thin),
        ):
            values = dv.joint_pdf(xs, ys, scenario, kind)
            scalars = [dv.joint_pdf(float(a), float(b), scenario, kind) for a, b in zip(xs, ys)]
            assert all(isinstance(value, float) for value in scalars)
            assert values.tolist() == scalars
        assert np.count_nonzero(dv.joint_pdf(x, y, gtu_scenario, "short")) == 2
        assert np.all(dv.joint_pdf(x_thin, x_thin, thin, "tall") > 0.0)

    def test_coincident_ends_have_no_density(self):
        scenario = make_scenario(d_prime=0.0)
        for x, y in ((100.0, 100.0), (100.0, 200.0), (600.0, 100.0)):
            with pytest.raises(DegenerateScenarioError, match="no density"):
                dv.joint_pdf(x, y, scenario, "short")

    def test_normalization_short(self, gtu_scenario):
        total = double_integral(
            lambda x, y: dv.joint_pdf(x, y, gtu_scenario, "short"),
            gtu_scenario,
            "short",
            n_inner=128,
            n_outer=128,
        )
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_marginal_matches_cdf_derivative(self, gtu_scenario):
        h = 1e-3
        for x in np.linspace(40.0, 480.0, 12):
            marginal = inner_integral(
                lambda xv, yv: dv.joint_pdf(xv, yv, gtu_scenario, "short"),
                gtu_scenario,
                "short",
                float(x),
            )
            fd = (
                dv.distance_cdf_bs(x + h, gtu_scenario, "short")
                - dv.distance_cdf_bs(x - h, gtu_scenario, "short")
            ) / (2.0 * h)
            assert marginal == pytest.approx(fd, rel=1e-3)


class TestMomentTerms:
    def test_zero_coefficient_gives_zero_terms(self, gtu_scenario):
        interaction = InteractionModel("reflection", 10.0, 0.15, 0.0, 0.0)
        terms = dv.moment_terms(gtu_scenario, "short", interaction, 10_000, rng=1)
        assert terms.h == terms.g == terms.h_prime == terms.g_prime == 0.0

    def test_long_wavelength_limit(self):
        # lens excluding both BS and MS so 1/g2 has finite variance
        scenario = Scenario(
            600.0,
            ScattererClass("short", 500.0, 300.0, 1e-4),
            ScattererClass("tall", 4100.0, 4000.0, 0.0),
            0.0,
        )
        interaction = InteractionModel("scattering", 10.0, 1e15, 2.0, 0.0)
        terms = dv.moment_terms(scenario, "short", interaction, 200_000, rng=2)
        pts = sample_uniform_in_lens(LensSpec(600.0, 500.0, 300.0), np.random.default_rng(33), size=200_000)
        x = np.hypot(pts[:, 0], pts[:, 1])
        y = np.hypot(pts[:, 0] - 600.0, pts[:, 1])
        inv_g2 = 2.0 / (x * y)
        stderr = math.hypot(terms.se_h, inv_g2.std() / math.sqrt(len(inv_g2)))
        assert abs(terms.h - inv_g2.mean()) < 4.0 * stderr
        assert abs(terms.h_prime) < 1e-9 * abs(terms.h)

    def test_two_seeds_agree(self, gtu_scenario):
        interaction = InteractionModel("reflection", 10.0, SPEED_OF_LIGHT / 2e9, -1.17, 0.4)
        a = dv.moment_terms(gtu_scenario, "short", interaction, 100_000, rng=3)
        b = dv.moment_terms(gtu_scenario, "short", interaction, 100_000, rng=4)
        assert abs(a.h - b.h) < 4.0 * math.hypot(a.se_h, b.se_h)
        assert abs(a.g - b.g) < 4.0 * math.hypot(a.se_g, b.se_g)
        assert abs(a.h_prime - b.h_prime) < 4.0 * math.hypot(a.se_h_prime, b.se_h_prime)

    def test_small_sample_rejected(self, gtu_scenario):
        interaction = InteractionModel("reflection", 10.0, 0.15, 1.0, 0.1)
        with pytest.raises(ValueError):
            dv.moment_terms(gtu_scenario, "short", interaction, 100, rng=5)

    def test_degenerate_class_rejected(self):
        scenario = make_scenario(d_prime=9000.0)
        interaction = InteractionModel("reflection", 10.0, 0.15, 1.0, 0.1)
        with pytest.raises(DegenerateScenarioError):
            dv.moment_terms(scenario, "short", interaction, 10_000, rng=6)


class TestMeanReceivedPower:
    def test_zero_coefficients_give_zero_power(self):
        scenario = make_scenario(gamma=0.0)
        interaction = InteractionModel("reflection", 10.0, 0.15, 0.0, 0.0)
        value, stderr = dv.mean_received_power(scenario, interaction, 10_000, rng=7)
        assert value == 0.0
        assert stderr == 0.0

    def test_single_class_second_moment_identity(self):
        # gate always open, one class: the closed form equals
        # k0 * (Var[a] + E[a]^2 + Var[b] + E[b]^2) for the in-phase and
        # quadrature sums a, b simulated directly
        scenario = Scenario(
            50.0,
            ScattererClass("short", 80.0, 60.0, 1e-3),
            ScattererClass("tall", 100.0, 100.0, 0.0),
            1.0,
        )
        interaction = InteractionModel("reflection", 10.0, 400.0, -1.17, 0.4)
        value, stderr = dv.mean_received_power(scenario, interaction, 200_000, rng=8)
        rng = np.random.default_rng(88)
        lens = scenario.short.lens(50.0)
        mu = scenario.short.density * lens_area(lens)
        n_real = 40_000
        counts = rng.poisson(mu, n_real)
        pts = sample_uniform_in_lens(lens, rng, size=int(counts.sum()))
        x = np.hypot(pts[:, 0], pts[:, 1])
        y = np.hypot(pts[:, 0] - 50.0, pts[:, 1])
        theta = interaction.phase(x, y)
        r = rng.normal(-1.17, math.sqrt(0.4), len(x))
        seg = np.repeat(np.arange(n_real), counts)
        alpha = np.bincount(seg, weights=r * np.cos(theta) / interaction.g2(x, y), minlength=n_real)
        beta = np.bincount(seg, weights=r * np.sin(theta) / interaction.g2(x, y), minlength=n_real)
        direct = interaction.k0 * float(np.mean(alpha**2) + np.mean(beta**2))
        assert value == pytest.approx(direct, rel=0.03)

    def test_both_classes_degenerate_rejected(self):
        scenario = make_scenario(d_prime=9000.0)
        interaction = InteractionModel("reflection", 10.0, 0.15, 1.0, 0.1)
        with pytest.raises(DegenerateScenarioError):
            dv.mean_received_power(scenario, interaction, 10_000, rng=9)

    @pytest.mark.parametrize("d_prime", [200.0, 1000.0])
    def test_stderr_matches_seed_spread(self, gtu, d_prime):
        # the reported standard error must match the spread of the value over
        # independent seeds, covariances within a class included
        scenario = gtu.scenario(d_prime=d_prime)
        results = np.array(
            [
                dv.mean_received_power(scenario, gtu.interactions["reflection"], 10_000, rng=seed)
                for seed in range(300)
            ]
        )
        ratio = np.median(results[:, 1]) / np.std(results[:, 0], ddof=1)
        assert 0.92 <= ratio <= 1.08


class TestInteractionModel:
    def test_mode_constants(self):
        lam = 0.2
        refl = InteractionModel("reflection", 10.0, lam, 1.0, 0.0)
        scat = InteractionModel("scattering", 10.0, lam, 1.0, 0.0)
        assert refl.k0 == pytest.approx(10.0 * (lam / (4 * math.pi)) ** 2)
        assert scat.k0 == pytest.approx(10.0 * lam**2 / (4 * math.pi) ** 3)
        assert refl.g2(3.0, 4.0) == 7.0
        assert scat.g2(3.0, 4.0) == 12.0
        assert refl.g1(3.0, 4.0) == scat.g1(3.0, 4.0) == 7.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            InteractionModel("diffraction", 10.0, 0.15, 1.0, 0.1)
        with pytest.raises(ValueError):
            InteractionModel("reflection", 0.0, 0.15, 1.0, 0.1)
        with pytest.raises(ValueError):
            InteractionModel("reflection", 10.0, 0.15, 1.0, -0.1)
