import decimal
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from dvrchan.geometry import lens_area
from dvrchan.pointprocess import (
    _poisson_counts,
    _poisson_table,
    ScattererClass,
    Scenario,
    mean_active_count,
    sample_block,
    sample_positions,
    substream,
)

# Frozen from the closed-form areas, themselves validated against the Monte
# Carlo membership oracle in test_geometry.
GTU_MU_SHORT = 19.98995405479186
GTU_MU_TALL = 20.878560464118564


def make_scenario(d_prime=200.0, gamma=0.22, lam_s=7.07e-5, lam_t=4.2e-7):
    return Scenario(
        d_prime=d_prime,
        short=ScattererClass("short", 500.0, 300.0, lam_s),
        tall=ScattererClass("tall", 4100.0, 4000.0, lam_t),
        gamma=gamma,
    )


class TestTypes:
    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            ScattererClass("medium", 1.0, 1.0, 1.0)

    def test_invalid_radii_and_density(self):
        with pytest.raises(ValueError):
            ScattererClass("short", 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ScattererClass("short", 1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            ScattererClass("short", 1.0, math.inf, 1.0)

    def test_scenario_invariants(self):
        with pytest.raises(ValueError):
            make_scenario(gamma=1.5)
        with pytest.raises(ValueError):
            make_scenario(d_prime=-1.0)
        short = ScattererClass("short", 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Scenario(1.0, short, short, 0.5)


class TestMeanActiveCount:
    def test_gtu_short_is_twenty(self):
        scenario = make_scenario()
        assert mean_active_count(scenario, "short") == pytest.approx(GTU_MU_SHORT)
        assert mean_active_count(scenario, "short") == pytest.approx(20.0, rel=1e-3)

    def test_gtu_tall(self):
        scenario = make_scenario()
        mu = mean_active_count(scenario, "tall")
        assert mu == pytest.approx(GTU_MU_TALL)
        assert mu == 4.2e-7 * lens_area(scenario.tall.lens(200.0))

    def test_disjoint_class_is_zero(self):
        scenario = make_scenario(d_prime=9000.0)
        assert mean_active_count(scenario, "short") == 0.0
        assert mean_active_count(scenario, "tall") == 0.0


def sample_with_positions(scenario, n, rng):
    """``n`` realizations with their positions: the counts, then the positions."""
    return sample_positions(scenario, sample_block(scenario, n, rng), rng)


class TestSampling:
    def test_gamma_zero_never_tall(self):
        scenario = make_scenario(gamma=0.0)
        rng = substream(1, 0)
        block = sample_with_positions(scenario, 2000, rng)
        assert not (block.gate < scenario.gamma).any()
        assert len(block.tall_points) == 0

    def test_membership_invariants(self):
        scenario = make_scenario(gamma=1.0)
        block = sample_with_positions(scenario, 2000, substream(3, 0))
        for cls, pts in ((scenario.short, block.short_points), (scenario.tall, block.tall_points)):
            assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= cls.v1 + 1e-9)
            assert np.all(np.hypot(pts[:, 0] - 200.0, pts[:, 1]) <= cls.v2 + 1e-9)

    def test_gtu_mean_total_count(self):
        scenario = make_scenario()
        block = sample_block(scenario, 100_000, substream(11, 0))
        totals = block.n_short + block.n_tall
        expected = GTU_MU_SHORT + 0.22 * GTU_MU_TALL
        stderr = totals.std() / math.sqrt(len(totals))
        assert abs(totals.mean() - expected) < 3.0 * stderr

    def test_single_class_counts_are_poisson(self):
        scenario = make_scenario(gamma=1.0, lam_s=0.0)
        block = sample_block(scenario, 100_000, substream(12, 0))
        counts = block.n_tall
        n = len(counts)
        support = np.arange(counts.max() + 1)
        probs = stats.poisson.pmf(support, GTU_MU_TALL)
        observed = np.bincount(counts, minlength=len(support)).astype(float)
        keep = probs * n >= 10
        obs_cells = np.append(observed[keep], observed[~keep].sum())
        exp_cells = np.append(probs[keep] * n, (1.0 - probs[keep].sum()) * n)
        chi2 = float(np.sum((obs_cells - exp_cells) ** 2 / exp_cells))
        assert stats.chi2.sf(chi2, len(obs_cells) - 1) > 0.01

    def test_thinning_fraction_matches_gamma(self):
        scenario = make_scenario()
        block = sample_block(scenario, 50_000, substream(13, 0))
        frac = (block.gate < scenario.gamma).mean()
        sigma = math.sqrt(0.22 * 0.78 / len(block))
        assert abs(frac - 0.22) < 3.0 * sigma

    def test_conditional_uniformity(self):
        # given the counts, positions are uniform over the lens: compare
        # x-coordinate histogram against an independent membership oracle
        from _oracles import grid_cell_probabilities, grid_cells

        scenario = make_scenario(gamma=0.0)
        block = sample_with_positions(scenario, 30_000, substream(5, 0))
        pts = block.short_points
        spec = scenario.short.lens(200.0)
        probs = grid_cell_probabilities(spec, 8, 2_000_000, np.random.default_rng(55))
        observed = np.bincount(grid_cells(spec, 8, pts[:, 0], pts[:, 1]), minlength=64)
        expected = probs * len(pts)
        keep = expected >= 20
        chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
        assert stats.chi2.sf(chi2, int(keep.sum()) - 1) > 0.01

    def test_determinism(self):
        scenario = make_scenario()
        a = sample_with_positions(scenario, 500, substream(77, 0))
        b = sample_with_positions(scenario, 500, substream(77, 0))
        assert np.array_equal(a.gate, b.gate)
        assert np.array_equal(a.short_points, b.short_points)
        assert np.array_equal(a.tall_points, b.tall_points)

    def test_single_realization(self):
        scenario = make_scenario()
        block = sample_with_positions(scenario, 1, substream(9, 0))
        assert len(block) == 1
        assert len(block.short_points) == block.n_short[0]
        assert len(block.tall_points) == block.n_tall[0]
        if block.gate[0] >= scenario.gamma:
            assert len(block.tall_points) == 0

    def test_zero_area_lens_yields_no_points(self):
        scenario = make_scenario(d_prime=9000.0, gamma=1.0)
        block = sample_block(scenario, 100, substream(1, 0))
        assert block.n_short.sum() == 0
        assert block.n_tall.sum() == 0


def test_substream_independent_of_call_order():
    a = substream(42, 3).random(4)
    _ = substream(42, 2).random(4)
    b = substream(42, 3).random(4)
    assert np.array_equal(a, b)


class TestGammaFreeStage:
    """A block's counts, gate uniforms and child stream are free of ``gamma``.

    The simulator's ToA pick (``simulator._toa_pick``) reads only these, so
    its gamma-free head (``simulator._toa_head``) keeps them and the pick
    and reuses them across ``gamma``.
    """

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("d_prime", [100.0, 400.0, 900.0])
    def test_same_for_every_gamma(self, gtu, d_prime, seed):
        draws = []
        for gamma in (0.0, 0.22, 0.5, 1.0):
            scenario = gtu.scenario(d_prime=d_prime, gamma=gamma)
            rng = substream(seed, 0)
            block = sample_with_positions(scenario, 2000, rng)
            counts = substream(seed, 0)
            bare = sample_block(scenario, 2000, counts)
            # sample_block stops right after the tall counts: one uniform
            # per short count, per gate, per tall count
            expected = substream(seed, 0)
            expected.random(2000)
            gate = expected.random(2000)
            expected.random(2000)
            assert counts.bit_generator.state == expected.bit_generator.state
            assert np.array_equal(bare.gate, np.sort(gate))
            assert bare.short_points is None and bare.tall_points is None
            for name in ("n_short", "n_tall", "gate", "tall_counts"):
                assert np.array_equal(getattr(bare, name), getattr(block, name))
            child = rng.spawn(1)[0].random(2000)
            assert np.array_equal(child, counts.spawn(1)[0].random(2000))
            draws.append((block.n_short, block.gate, block.tall_counts, block.short_points, child))
            # the gate uniforms are sorted, so the gate-open realizations lead
            u = block.gate < gamma
            assert np.array_equal(u, np.arange(2000) < np.count_nonzero(u))
            assert np.array_equal(block.n_tall, np.where(u, block.tall_counts, 0))
        assert draws[0][0].sum() > 0 or d_prime > 800.0
        for other in draws[1:]:
            for a, b in zip(draws[0], other):
                assert np.array_equal(a, b)


def _exact_table_cdf(mu, first, n):
    """Poisson(mu) CDF over counts first..first+n-1, normalised there, in 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        terms = [decimal.Decimal(1)]
        for k in range(first + 1, first + n):
            terms.append(terms[-1] * decimal.Decimal(mu) / k)
        total = sum(terms)
        return np.array([float(c / total) for c in itertools.accumulate(terms)])


class TestPoissonInversion:
    """Counts are one uniform each, inverted through a cached CDF table."""

    MEANS = (1e-3, 0.5, 8.7, 20.0, 1e3, 1e6)

    @pytest.mark.parametrize("mu", MEANS)
    def test_table_matches_cdf(self, mu):
        first, cdf, _ = _poisson_table(mu)
        assert len(cdf) <= 24.0 * math.sqrt(mu) + 27.0
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
        last = first + len(cdf) - 1
        assert stats.poisson.cdf(first - 1, mu) + stats.poisson.sf(last, mu) < 2.0**-53
        assert np.abs(cdf - _exact_table_cdf(mu, first, len(cdf))).max() < 1e-12
        # scipy's own CDF is off by ~4e-11 at mu = 1e6 (against the exact sum)
        reference = stats.poisson.cdf(np.arange(first, last + 1), mu)
        assert np.abs(cdf - reference).max() < (1e-12 if mu <= 1e3 else 1e-10)

    @pytest.mark.parametrize("mu", MEANS)
    def test_chi_square(self, mu):
        counts = _poisson_counts(mu, 100_000, np.random.default_rng(2027))
        first, cdf, _ = _poisson_table(mu)
        assert counts.min() >= first and counts.max() < first + len(cdf)
        observed = np.bincount(counts - first, minlength=len(cdf))
        expected = stats.poisson.pmf(np.arange(first, first + len(cdf)), mu) * len(counts)
        # merge neighbouring counts into cells expecting at least 20 draws
        cells = np.cumsum(np.concatenate(([0.0], expected)))
        edges = np.searchsorted(cells, np.arange(0.0, cells[-1], 20.0), side="right") - 1
        edges = np.unique(np.concatenate((edges[:-1], [len(expected)])))
        obs = np.add.reduceat(observed, edges[:-1])
        exp = np.add.reduceat(expected, edges[:-1])
        chi2 = float(np.sum((obs - exp) ** 2 / exp))
        assert stats.chi2.sf(chi2, max(len(obs) - 1, 1)) > 0.01

    @pytest.mark.parametrize("mu", (0.0,) + MEANS + (1e7,))
    def test_guide_matches_binary_search(self, mu):
        first, cdf, guide = _poisson_table(mu)
        m = len(guide)
        assert m & (m - 1) == 0 and not guide.flags.writeable
        # every bin edge, every CDF value below 1 with its neighbours, and
        # the extreme uniforms
        below_one = cdf[cdf < 1.0]
        u = np.concatenate(
            (
                np.arange(m) / m,
                below_one,
                np.nextafter(below_one, 0.0),
                np.nextafter(below_one, 1.0),
                [0.0, 1.0 - 2.0**-53],
            )
        )
        u = u[u < 1.0]

        class Fixed:
            def random(self, n):
                assert n == len(u)
                return u.copy()

        counts = _poisson_counts(mu, len(u), Fixed())
        expected = np.searchsorted(cdf, u, side="right") + first
        assert counts.dtype == np.int32
        assert np.array_equal(counts, expected)

    def test_table_size_at_largest_mean(self):
        _, cdf, guide = _poisson_table(1e7)
        assert cdf.nbytes + guide.nbytes <= 1.2 * 2**20

    @pytest.mark.parametrize("mu", [0.0, 20.0])
    def test_one_uniform_per_count(self, mu):
        rng, expected = np.random.default_rng(8), np.random.default_rng(8)
        counts = _poisson_counts(mu, 1000, rng)
        expected.random(1000)
        assert rng.bit_generator.state == expected.bit_generator.state
        assert len(counts) == 1000
        assert counts.any() == (mu > 0.0)
