import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from dvrchan import geometry
from dvrchan.geometry import (
    EmptyRegionError,
    KernelDomainError,
    LensSpec,
    density_kernel,
    lens_area,
    lens_bounding_box,
    sample_uniform_in_lens,
    support_bounds,
)

from _oracles import (
    fd_mixed_partial,
    grid_cell_probabilities,
    grid_cells,
    lens_angle_bin_areas,
    loop_sample_uniform_in_lens,
    mc_lens_area,
)

# Monte Carlo membership oracle, 1e7 uniform samples, seed 12345:
#   unit lens (d0=a=b=1)            -> 1.2280906  (exact 2*pi/3 - sqrt(3)/2)
#   tall-class lens (200,4100,4000) -> 4.97273e7
UNIT_LENS_AREA = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
TALL_LENS_AREA_MC = 4.97273e7


class TestLensArea:
    def test_disjoint(self):
        # far apart, the factor product f1 * f2 overflows past d0 ~ 1.3e154 m
        # unless disjoint disks are evaluated at tangency; 1e-14 is below half
        # an ulp of 300, so 300 - 1e-14 == 300 + 1e-14 and, once d0 is clamped
        # to a + b, the last disks would read as contained
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for spec in (
                LensSpec(700.0, 300.0, 300.0),
                LensSpec(1e200, 500.0, 300.0),
                LensSpec(400.0, 1e-14, 300.0),
            ):
                assert lens_area.__wrapped__(spec) == 0.0

    def test_contained(self):
        assert lens_area(LensSpec(100.0, 500.0, 300.0)) == pytest.approx(math.pi * 300.0**2)

    def test_finite_up_to_the_radius_bound(self):
        # config.MAX_RADIUS_M = 1e75 m: radii up to it keep every product finite
        rng = np.random.default_rng(7)
        a, b = 10.0 ** rng.uniform(-3.0, 75.0, (2, 20_000))
        d0 = rng.uniform(0.0, 1.0, 20_000) * (a + b) * 1.1
        with np.errstate(all="raise"):
            area = geometry._lens_area(d0, a, b)
            assert geometry._lens_area(0.0, 1e75, 1e75) == math.pi * (1e75 * 1e75)
        assert np.all((area >= 0.0) & (area <= math.pi * np.minimum(a, b) ** 2 * (1.0 + 1e-12)))

    def test_unit_lens_against_mc_oracle(self):
        value = lens_area(LensSpec(1.0, 1.0, 1.0))
        assert value == pytest.approx(UNIT_LENS_AREA, rel=1e-12)
        oracle = mc_lens_area(1.0, 1.0, 1.0, 1_000_000, np.random.default_rng(12345))
        assert value == pytest.approx(oracle, rel=3e-3)

    def test_gtu_tall_lens_against_mc_oracle(self):
        value = lens_area(LensSpec(200.0, 4100.0, 4000.0))
        assert value == pytest.approx(4.9712e7, rel=1e-3)
        assert value == pytest.approx(TALL_LENS_AREA_MC, rel=1e-3)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            LensSpec(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            LensSpec(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            LensSpec(1.0, 1.0, math.nan)
        with pytest.raises(ValueError):
            LensSpec(math.inf, 1.0, 1.0)

    def test_classification_is_total(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            spec = LensSpec(rng.uniform(0, 10), rng.uniform(0.1, 10), rng.uniform(0.1, 10))
            area = lens_area(spec)
            assert 0.0 <= area <= math.pi * min(spec.a, spec.b) ** 2 + 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            d0, a, b = rng.uniform(0.1, 10, 3)
            assert lens_area(LensSpec(d0, a, b)) == lens_area(LensSpec(d0, b, a))

    def test_monotonicity(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            d0, a, b = rng.uniform(0.1, 10, 3)
            base = lens_area(LensSpec(d0, a, b))
            assert lens_area(LensSpec(d0, a * 1.05, b)) >= base - 1e-12
            assert lens_area(LensSpec(d0, a, b * 1.05)) >= base - 1e-12
            assert lens_area(LensSpec(d0 * 1.05, a, b)) <= base + 1e-12


# Radii from 1e-3 m to the config's 1e75 m bound, log-uniform and drawn
# independently, so many pairs have b below half an ulp of a.
_RADII = st.floats(-3.0, 75.0).map(lambda exponent: 10.0**exponent)


@st.composite
def _lenses(draw, n=1):
    """Radii ``(a, b)`` and ``n`` centre distances, each anywhere from 0 to
    1.1 (a + b) or inside the partial regime ``[|a - b|, a + b]``."""
    a, b = draw(_RADII), draw(_RADII)
    lo, hi = abs(a - b), a + b
    d0s = []
    for _ in range(n):
        t = draw(st.floats(0.0, 1.0))
        d0s.append(draw(st.sampled_from([1.1 * t * hi, lo + t * (hi - lo)])))
    return a, b, *d0s


class TestLensAreaProperties:
    """The lens area over radii from 1e-3 m to 1e75 m.

    The tolerances are those of the fixed-seed tests in ``TestLensArea`` and
    ``TestLensAreaPartial``, taken relative to the smaller disk's area
    ``pi min(a, b)^2``.
    """

    @given(st.lists(_lenses(), min_size=1, max_size=20))
    def test_array_matches_scalar(self, lenses):
        a, b, d0 = (np.array(column) for column in zip(*lenses))
        areas = geometry._lens_area(d0, a, b)
        for area, (a_i, b_i, d0_i) in zip(areas, lenses):
            assert area == lens_area(LensSpec(d0_i, a_i, b_i))

    @given(_lenses())
    # b below half an ulp of a: both tangencies round to d0 = a
    @example((300.0, 1e-14, 300.0))
    @example((1e75, 1e-3, 1e75))
    # b a few ulps of a, d0 between the tangencies
    @example((2.403431052920917e22, 3223838.4012857266, 2.403431052920917e22))
    @example((9.068487588001195e28, 9046486992297.156, 9.068487588001195e28))
    @example((1e75, 1e75, 0.0))
    def test_symmetric_and_bounded(self, lens):
        a, b, d0 = lens
        area = lens_area(LensSpec(d0, a, b))
        assert area == lens_area(LensSpec(d0, b, a))
        assert 0.0 <= area <= math.pi * min(a, b) ** 2 * (1.0 + 1e-12)

    @given(_lenses(n=2))
    # equal circles less than an ulp apart are contained, not disjoint
    @example((1.0, 1.0, 1e-100, 1.1))
    def test_not_increasing_in_d0(self, lens):
        a, b, *d0s = lens
        near, far = sorted(d0s)
        slack = 1e-12 * math.pi * min(a, b) ** 2
        assert lens_area(LensSpec(far, a, b)) <= lens_area(LensSpec(near, a, b)) + slack

    @given(_RADII, _RADII)
    @example(300.0, 1e-14)
    @example(1.0, 1.0)
    def test_continuous_at_tangencies(self, a, b):
        # Each tangency is approached from inside the partial regime, a step
        # small against the smaller radius away; with b below half an ulp of
        # a no d0 lies strictly between them and there is nothing to approach.
        contained = math.pi * min(a, b) ** 2
        eps = 1e-9 * min(a, b)
        lo, hi = abs(a - b), a + b
        if lo < lo + eps < hi:
            near = lens_area(LensSpec(lo + eps, a, b))
            assert near == pytest.approx(contained, rel=1e-6)
        if lo < hi - eps < hi:
            assert lens_area(LensSpec(hi - eps, a, b)) <= 1e-6 * contained


class TestLensAreaPartial:
    """The overlap area over the partial-overlap regime ``|a - b| <= d0 <= a + b``."""

    def test_externally_tangent_is_zero(self):
        assert lens_area(LensSpec(2.0, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_internally_tangent_matches_contained(self):
        assert lens_area(LensSpec(200.0, 500.0, 300.0)) == pytest.approx(math.pi * 300.0**2)

    def test_unit_lens(self):
        assert lens_area(LensSpec(1.0, 1.0, 1.0)) == pytest.approx(UNIT_LENS_AREA, rel=1e-12)

    def test_continuity_at_branch_boundaries(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            a, b = rng.uniform(0.5, 400.0, 2)
            eps = 1e-9 * max(a, b)
            contained = math.pi * min(a, b) ** 2
            if abs(a - b) > eps:
                near = lens_area(LensSpec(abs(a - b) + eps, a, b))
                assert near == pytest.approx(contained, rel=1e-6)
            near_zero = lens_area(LensSpec(a + b - eps, a, b))
            assert near_zero <= 1e-6 * contained


class TestDensityKernel:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            d = rng.uniform(50.0, 400.0)
            x = rng.uniform(10.0, 600.0)
            y = rng.uniform(max(abs(d - x), 1.0) + 2.0, x + d - 2.0)
            if y <= abs(d - x) + 2.0:
                continue
            value = density_kernel(d, x, y)
            assert value == pytest.approx(fd_mixed_partial(d, x, y), rel=1e-4)
            checked += 1

    def test_triangle_violation_is_domain_error(self):
        with pytest.raises(KernelDomainError):
            density_kernel(200.0, 100.0, 50.0)
        with pytest.raises(KernelDomainError):
            density_kernel(200.0, 100.0, 400.0)

    def test_interior_point_positive(self):
        assert density_kernel(200.0, 450.0, 280.0) > 0.0

    def test_edge_with_short_baseline_is_domain_error(self):
        # d' << x: the expanded radicand 4 d'^2 x^2 - (d'^2 + x^2 - y^2)^2
        # cancels to a spurious positive value on the edge y = x + d' at 7
        # of these x; the factored one is exactly 0 there
        d = 6.5e-4
        for x in np.linspace(999.0, 1001.0, 201):
            with pytest.raises(KernelDomainError):
                density_kernel(d, float(x), float(x) + d)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            density_kernel(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            density_kernel(1.0, -1.0, 1.0)


class TestSupportBounds:
    def test_gtu_short(self):
        assert support_bounds(LensSpec(200.0, 500.0, 300.0)) == (0.0, 500.0, 0.0, 300.0)

    def test_gtu_tall(self):
        assert support_bounds(LensSpec(200.0, 4100.0, 4000.0)) == (0.0, 4100.0, 0.0, 4000.0)

    def test_offset_lens(self):
        assert support_bounds(LensSpec(600.0, 500.0, 300.0)) == (300.0, 500.0, 100.0, 300.0)

    def test_disjoint_raises(self):
        with pytest.raises(EmptyRegionError):
            support_bounds(LensSpec(1000.0, 500.0, 300.0))


class TestSampling:
    def test_contained_case_membership(self):
        spec = LensSpec(100.0, 500.0, 300.0)
        pts = sample_uniform_in_lens(spec, np.random.default_rng(1), size=20_000)
        assert np.all(np.hypot(pts[:, 0] - 100.0, pts[:, 1]) <= 300.0 + 1e-9)

    def test_unit_lens_symmetry(self):
        spec = LensSpec(1.0, 1.0, 1.0)
        pts = sample_uniform_in_lens(spec, np.random.default_rng(2), size=1_000_000)
        # mean x is 0.5 by symmetry; x spread is bounded by the lens width
        stderr = pts[:, 0].std() / math.sqrt(len(pts))
        assert abs(pts[:, 0].mean() - 0.5) < 3.0 * stderr

    def test_single_point_shape(self):
        point = sample_uniform_in_lens(LensSpec(1.0, 1.0, 1.0), np.random.default_rng(3), size=1)
        assert point.shape == (1, 2)

    def test_zero_area_lens_raises(self):
        # the second lens has area pi * 1e-28, but d0 +- b rounds to d0: its
        # bounding box has zero width
        for spec in (LensSpec(10.0, 1.0, 1.0), LensSpec(200.0, 4100.0, 1e-14)):
            with pytest.raises(EmptyRegionError, match="LensSpec"):
                sample_uniform_in_lens(spec, np.random.default_rng(4), size=1)

    def test_chi_square_uniformity(self):
        spec = LensSpec(200.0, 500.0, 300.0)
        pts = sample_uniform_in_lens(spec, np.random.default_rng(5), size=200_000)
        probs = grid_cell_probabilities(spec, 10, 2_000_000, np.random.default_rng(6))
        observed = np.bincount(grid_cells(spec, 10, pts[:, 0], pts[:, 1]), minlength=100)
        expected = probs * len(pts)
        keep = expected >= 20
        chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
        dof = int(keep.sum()) - 1
        assert stats.chi2.sf(chi2, dof) > 0.01

    @pytest.mark.parametrize("size", [0, 1, 16383, 16384, 16385, 100_000])
    @pytest.mark.parametrize(
        "spec",
        [LensSpec(100.0, 500.0, 300.0), LensSpec(1.0, 1.0, 1.0), LensSpec(1.99, 1.0, 1.0)],
        ids=["contained", "partial", "thin"],
    )
    def test_matches_whole_array_loop(self, spec, size):
        x_lo, x_hi, y_lo, y_hi = lens_bounding_box(spec)
        # candidates per point scale as 1/acceptance; keep the runs short
        assert lens_area(spec) / ((x_hi - x_lo) * (y_hi - y_lo)) >= 0.01
        # at the small sizes, 126 of these seeds (10, 14, 15, ...) find no
        # point in the thin lens's first 31 candidates and draw again
        for seed in range(1000 if size <= 1 else 1):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_uniform_in_lens(spec, rng, size=size)
            assert np.array_equal(got, loop_sample_uniform_in_lens(spec, ref, size=size))
            assert rng.random() == ref.random()

    def test_memory_bounded_per_round(self):
        # acceptance ~9.4e-4: 1000 points take ~1.1e6 candidates, 17 MB if
        # drawn at once; a round holds at most 16384 x and y values
        spec = LensSpec(2.0 - 2e-6, 1.0, 1.0)
        x_lo, x_hi, y_lo, y_hi = lens_bounding_box(spec)
        assert lens_area(spec) / ((x_hi - x_lo) * (y_hi - y_lo)) < 1e-3
        tracemalloc.start()
        try:
            pts = sample_uniform_in_lens(spec, np.random.default_rng(9), size=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pts.shape == (1000, 2)
        assert peak < 2_000_000


@pytest.mark.parametrize(
    "spec",
    [
        LensSpec(200.0, 500.0, 300.0),
        LensSpec(200.0, 4100.0, 4000.0),
        LensSpec(600.0, 500.0, 300.0),
        LensSpec(1.99, 1.0, 1.0),
        LensSpec(0.0, 2.0, 1.0),
    ],
    ids=["contained", "tall", "partial", "thin", "concentric"],
)
def test_angle_bin_areas_sum_to_lens_area(spec):
    edges = -math.pi + math.pi / 64 + np.arange(65) * math.pi / 32
    for center_x in (0.0, spec.d0 / 2, spec.d0):
        areas = lens_angle_bin_areas(spec, center_x, edges)
        assert np.all(areas >= 0.0)
        assert areas.sum() == pytest.approx(lens_area(spec), rel=1e-12)


def test_bounding_box_encloses_lens():
    rng = np.random.default_rng(12)
    for _ in range(50):
        d0, a, b = rng.uniform(0.5, 10.0, 3)
        spec = LensSpec(d0, a, b)
        if lens_area(spec) <= 0:
            continue
        x_lo, x_hi, y_lo, y_hi = lens_bounding_box(spec)
        pts = sample_uniform_in_lens(spec, rng, size=500)
        assert np.all((pts[:, 0] >= x_lo) & (pts[:, 0] <= x_hi))
        assert np.all((pts[:, 1] >= y_lo) & (pts[:, 1] <= y_hi))
