import copy
import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dvrchan import pointprocess, simulator
from dvrchan.analytics import InteractionModel, mean_received_power, mean_toa, mpc_pmf
from dvrchan.pointprocess import (
    RealizationBlock,
    ScattererClass,
    Scenario,
    mean_active_count,
    sample_block,
    sample_positions,
    substream,
)
from dvrchan.simulator import (
    _BLOCK_SIZE,
    ANGLE_BIN_EDGES,
    N_ANGLE_BINS,
    STATISTICS,
    Moments,
    _angles,
    _power,
    _reduce_block,
    run_experiment,
)

GTU_REFLECTION = InteractionModel("reflection", 10.0, 299792458.0 / 2e9, -1.17, 0.4)


def _position_from_distances(d_prime, x, y):
    px = (d_prime**2 + x**2 - y**2) / (2.0 * d_prime)
    return np.array([px, math.sqrt(x * x - px * px)])


def make_scenario(d_prime=200.0, gamma=0.22, seed=0):
    return Scenario(
        d_prime=d_prime,
        short=ScattererClass("short", 500.0, 300.0, 7.07e-5),
        tall=ScattererClass("tall", 4100.0, 4000.0, 4.2e-7),
        gamma=gamma,
        seed=seed,
    )


def one_realization(short_points):
    """A hand-built block of one gate-closed realization with these short scatterers."""
    points = np.asarray(short_points, dtype=float).reshape(-1, 2)
    return RealizationBlock(
        np.array([len(points)]),
        np.array([0]),
        points,
        np.empty((0, 2)),
        gate=np.array([1.0]),
        tall_counts=np.array([0]),
    )


def power_of(short_points, interaction=GTU_REFLECTION, seed=0):
    """Power of one gate-closed realization, through the block power kernel."""
    block = one_realization(short_points)
    return _power(block, make_scenario(), interaction, substream(seed, 0)).mean


def binned_center(histogram):
    """Center of the single occupied angle bin."""
    (index,) = np.flatnonzero(histogram)
    return 0.5 * (ANGLE_BIN_EDGES[index] + ANGLE_BIN_EDGES[index + 1])


class TestComputeAngles:
    """Angle binning of hand-placed scatterers, through the block angle kernel."""

    def test_midpoint_scatterer(self):
        aod, aoa = _angles(np.array([[100.0, 0.0]]), 200.0)
        assert binned_center(aod) == pytest.approx(0.0, abs=1e-12)
        # pi is a bin center; the arrival angle lands there, not at -pi
        assert binned_center(aoa) == pytest.approx(math.pi, abs=1e-12)

    def test_perpendicular_scatterer(self):
        aod, aoa = _angles(np.array([[0.0, 50.0]]), 200.0)
        assert binned_center(aod) == pytest.approx(math.pi / 2.0, abs=1e-12)
        index = int(np.flatnonzero(aoa)[0])
        assert ANGLE_BIN_EDGES[index] <= math.atan2(50.0, -200.0) < ANGLE_BIN_EDGES[index + 1]

    def test_bin_edges_center_zero_and_pi(self):
        assert len(ANGLE_BIN_EDGES) == N_ANGLE_BINS + 1
        width = 2.0 * math.pi / N_ANGLE_BINS
        # 0 and pi sit at bin centers
        centers = ANGLE_BIN_EDGES[:-1] + width / 2.0
        assert np.min(np.abs(centers - 0.0)) < 1e-12
        assert np.min(np.abs(centers - math.pi)) < 1e-12


class TestTraceRealization:
    """Hand-built one-realization blocks traced through the block kernels.

    With ``coeff_var=0`` every bounce coefficient equals ``coeff_mean``.
    """

    def single_point_power(self, mode, x, y):
        interaction = InteractionModel(mode, 10.0, 0.15, -1.17, 0.0)
        return interaction, power_of(_position_from_distances(200.0, x, y), interaction)

    def test_single_reflection_power(self):
        x, y = 350.0, 220.0
        interaction, power = self.single_point_power("reflection", x, y)
        assert power == pytest.approx(interaction.k0 * 1.17**2 / (x + y) ** 2, rel=1e-12)

    def test_single_scattering_power(self):
        x, y = 350.0, 220.0
        interaction, power = self.single_point_power("scattering", x, y)
        assert power == pytest.approx(interaction.k0 * 1.17**2 / (x * y) ** 2, rel=1e-12)

    def test_destructive_interference(self):
        # two bounces with the same amplitude (equal distance product) whose
        # path lengths differ by half a wavelength cancel coherently
        interaction = InteractionModel("scattering", 10.0, 2.0, 1.0, 0.0)
        p1 = _position_from_distances(200.0, 200.0, 50.0)
        p2 = _position_from_distances(200.0, 198.6636703514598, 50.336329648540186)
        single = power_of([p1], interaction, seed=1)
        paired = power_of([p1, p2], interaction, seed=1)
        assert single > 0.0
        assert paired < 1e-12 * single

    def test_empty_realization(self):
        assert power_of(np.empty((0, 2)), seed=2) == 0.0
        aod, aoa = _angles(np.empty((0, 2)), 200.0)
        assert aod.sum() == aoa.sum() == 0


@given(
    offset=st.sampled_from([0.0, -3e5, 1e9]),
    values=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=60),
    cuts=st.lists(st.integers(0, 60), max_size=6),
)
@example(offset=1e9, values=np.random.default_rng(0).normal(size=50).tolist(), cuts=[20])
def test_moments_merge_matches_whole(offset, values, cuts):
    # A large common offset is where sumsq/n - mean^2 loses the variance:
    # at 1e9 + O(1) data its rounding error is ~n * eps * 1e18, far above
    # the tolerance below.
    x = offset + np.asarray(values)
    bounds = [0] + sorted(min(c, len(x)) for c in cuts) + [len(x)]
    merged = Moments()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        merged = merged.merge(Moments.of(x[lo:hi]))
    whole = Moments.of(x)
    scale = float(np.max(np.abs(x)))
    spread = float(np.ptp(x))
    assert merged.count == whole.count == len(x)
    assert merged.mean == pytest.approx(whole.mean, rel=1e-9, abs=1e-12 * scale)
    assert merged.m2 == pytest.approx(
        whole.m2, rel=1e-9, abs=1e-12 * len(x) * scale * (spread + 1e-9 * scale)
    )


class TestRunExperiment:
    def test_pmf_total_variation(self):
        scenario = make_scenario(seed=10)
        summary = run_experiment(scenario, GTU_REFLECTION, 20_000)
        support = np.arange(len(summary.empirical_pmf))
        tv = 0.5 * float(np.abs(summary.empirical_pmf - mpc_pmf(support, scenario)).sum())
        assert tv < 0.02

    def test_gate_fraction(self):
        scenario = make_scenario(seed=11)
        summary = run_experiment(scenario, GTU_REFLECTION, 20_000)
        sigma = math.sqrt(0.22 * 0.78 / 20_000)
        assert abs(summary.n_gate_open / 20_000 - 0.22) < 4.0 * sigma

    def test_toa_matches_closed_form(self):
        scenario = make_scenario(seed=12)
        summary = run_experiment(scenario, GTU_REFLECTION, 30_000)
        assert abs(summary.toa_mean - mean_toa(scenario)) < 4.0 * summary.toa_stderr

    def test_power_matches_closed_form(self):
        scenario = make_scenario(seed=14)
        summary = run_experiment(scenario, GTU_REFLECTION, 20_000)
        value, stderr = mean_received_power(scenario, GTU_REFLECTION, 100_000, rng=14)
        combined = math.hypot(stderr, summary.power.stderr)
        assert abs(summary.power.mean - value) < 4.0 * combined

    def test_stderr_scales_with_sample_size(self):
        scenario = make_scenario(seed=15)
        small = run_experiment(scenario, GTU_REFLECTION, 10_000)
        large = run_experiment(scenario, GTU_REFLECTION, 40_000)
        ratio = large.toa_stderr / small.toa_stderr
        assert 0.4 < ratio < 0.62
        ratio = large.power.stderr / small.power.stderr
        assert 0.35 < ratio < 0.65

    def test_worker_count_invariance(self):
        scenario = make_scenario(seed=16)
        serial = run_experiment(scenario, GTU_REFLECTION, 25_000, workers=1)
        parallel = run_experiment(scenario, GTU_REFLECTION, 25_000, workers=3)
        assert serial.n_gate_open == parallel.n_gate_open
        assert np.array_equal(serial.mpc_count_histogram, parallel.mpc_count_histogram)
        for name in ("tau_open", "tau_closed", "power"):
            assert getattr(serial, name) == getattr(parallel, name)
        assert np.array_equal(serial.aod_histogram, parallel.aod_histogram)
        assert np.array_equal(serial.aoa_histogram, parallel.aoa_histogram)

    def test_repeat_run_identical(self):
        scenario = make_scenario(seed=17)
        a = run_experiment(scenario, GTU_REFLECTION, 5_000)
        b = run_experiment(scenario, GTU_REFLECTION, 5_000)
        for name in ("tau_open", "tau_closed", "power"):
            assert getattr(a, name) == getattr(b, name)
        assert np.array_equal(a.mpc_count_histogram, b.mpc_count_histogram)

    def test_angle_densities_normalized(self):
        scenario = make_scenario(seed=18)
        summary = run_experiment(scenario, GTU_REFLECTION, 5_000)
        width = 2.0 * math.pi / N_ANGLE_BINS
        assert float(summary.aod_density.sum() * width) == pytest.approx(1.0)
        assert float(summary.aoa_density.sum() * width) == pytest.approx(1.0)
        assert summary.aod_histogram.sum() == summary.aoa_histogram.sum()
        # every component was binned
        counts = summary.mpc_count_histogram
        assert summary.aod_histogram.sum() == np.arange(len(counts)) @ counts

    def test_invalid_realization_count(self):
        with pytest.raises(ValueError):
            run_experiment(make_scenario(), GTU_REFLECTION, 0)


_MOMENT_FIELDS = {
    "toa": ("tau_open", "tau_closed"),
    "power": ("power",),
}
_ALL_SUBSETS = [
    frozenset(names)
    for k in range(len(STATISTICS) + 1)
    for names in itertools.combinations(sorted(STATISTICS), k)
]


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 1000 realizations, so a run of a few thousand spans several.

    The kept ToA head is dropped before and after: its key holds no block
    length, so a head drawn in blocks of 16384 must not serve these runs.
    """
    monkeypatch.setattr(simulator, "_BLOCK_SIZE", 1_000)
    simulator._head = None
    yield
    simulator._head = None


@pytest.mark.usefixtures("small_blocks")
class TestStatisticSets:
    """Every statistic subset draws the same random numbers as a full run."""

    @pytest.mark.parametrize("seed", [21, 22])
    def test_requested_fields_match_full_run(self, seed, cache):
        scenario = make_scenario(seed=seed)
        full = run_experiment(scenario, GTU_REFLECTION, 3_000)
        assert full.statistics == STATISTICS
        for workers, wanted, warm in itertools.product((1, 3), _ALL_SUBSETS, (False, True)):
            # the gamma-free cache starts empty and, when warm, holds a run at another gamma
            cache.cache_clear()
            if warm:
                run_experiment(
                    dataclasses.replace(scenario, gamma=0.7), GTU_REFLECTION, 3_000,
                    workers=workers, statistics=wanted,
                )
            part = run_experiment(
                scenario, GTU_REFLECTION, 3_000, workers=workers, statistics=wanted
            )
            assert part.statistics == wanted
            assert part.n_gate_open == full.n_gate_open
            assert np.array_equal(part.mpc_count_histogram, full.mpc_count_histogram)
            assert np.array_equal(part.empirical_pmf, full.empirical_pmf)
            for name, fields in _MOMENT_FIELDS.items():
                for field in fields:
                    if name in wanted:
                        assert getattr(part, field) == getattr(full, field)
                    else:
                        assert getattr(part, field).count == 0
                        assert math.isnan(getattr(part, field).mean)
            for field in ("aod_histogram", "aoa_histogram"):
                expected = getattr(full, field) if "angles" in wanted else np.zeros(0)
                assert np.array_equal(getattr(part, field), expected)
            if "toa" not in wanted:
                assert math.isnan(part.toa_mean)
            if "power" not in wanted:
                assert math.isnan(part.power.mean)

    def test_merge_rejects_different_sets(self):
        scenario = make_scenario(seed=23)
        a = run_experiment(scenario, GTU_REFLECTION, 500, statistics={"toa"})
        b = run_experiment(scenario, GTU_REFLECTION, 500, statistics={"toa", "power"})
        with pytest.raises(ValueError, match="different statistics"):
            a.merge(b)
        with pytest.raises(ValueError, match="different statistics"):
            b.merge(a)

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ValueError, match="unknown statistics"):
            run_experiment(make_scenario(), GTU_REFLECTION, 100, statistics={"tao"})

    @pytest.mark.parametrize("wanted", _ALL_SUBSETS, ids=lambda w: "+".join(sorted(w)) or "none")
    def test_reducer_draws_coefficients_only_for_power(self, wanted):
        # the block is one sub-chunk: its positions, then the coefficients
        scenario = make_scenario(gamma=0.5, seed=24)
        assert simulator._block_length(scenario) >= 500
        rng = substream(24, 0)
        block = sample_block(scenario, 500, rng)
        expected = copy.deepcopy(rng)
        if wanted & {"power", "angles"}:
            part = sample_positions(scenario, block, expected)
        if "power" in wanted:
            sigma = math.sqrt(GTU_REFLECTION.coeff_var)
            for points in (part.short_points, part.tall_points):
                expected.normal(GTU_REFLECTION.coeff_mean, sigma, len(points))
        _reduce_block(block, scenario, GTU_REFLECTION, rng, wanted)
        assert rng.bit_generator.state == expected.bit_generator.state


def _toa_fields(summary):
    hist = tuple(summary.mpc_count_histogram)
    return summary.n_gate_open, hist, summary.tau_open, summary.tau_closed


class _Head:
    """The gamma-free head a ToA-only run keeps (``simulator._toa_head``)."""

    @staticmethod
    def cache_clear():
        simulator._head = None

    @staticmethod
    def blocks():
        return simulator._head[1]


@pytest.fixture
def cache():
    """The kept gamma-free head, dropped before and after the test."""
    _Head.cache_clear()
    yield _Head
    _Head.cache_clear()


def _reference(scenario, n, **kwargs):
    """ToA fields of a run of every statistic, which never reads the cache."""
    return _toa_fields(run_experiment(scenario, GTU_REFLECTION, n, **kwargs))


@pytest.mark.usefixtures("small_blocks")
class TestToaMemo:
    """ToA-only runs reuse the gamma-free head of the last such run with the same result."""

    GAMMAS = (0.0, 0.22, 0.5, 1.0)

    def _toa(self, scenario, n=3_000, **kwargs):
        return _toa_fields(
            run_experiment(scenario, GTU_REFLECTION, n, statistics={"toa"}, **kwargs)
        )

    def test_warm_run_draws_nothing(self, cache, monkeypatch):
        scenario = make_scenario(seed=30)
        expected = _reference(scenario, 3_000)
        self._toa(dataclasses.replace(scenario, gamma=0.0))
        assert len(cache.blocks()) == 3
        calls = []
        for module, name in ((simulator, "sample_block"), (pointprocess, "sample_uniform_in_lens")):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, f=original, **k: calls.append(a) or f(*a, **k)
            )
        assert self._toa(scenario) == expected
        assert calls == []

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sweep_order_and_workers(self, cache, workers):
        base = make_scenario(seed=31)
        for d_prime in (100.0, 400.0, 700.0):
            scenarios = {g: dataclasses.replace(base, d_prime=d_prime, gamma=g) for g in self.GAMMAS}
            expected = {g: _reference(s, 3_000) for g, s in scenarios.items()}
            for order in (self.GAMMAS, self.GAMMAS[::-1]):
                for gamma in order:
                    assert self._toa(scenarios[gamma], workers=workers) == expected[gamma]

    @pytest.mark.parametrize(
        "fields, n",
        [
            ({"d_prime": 250.0}, 3_000),
            ({"short": ScattererClass("short", 500.0, 300.0, 5e-5)}, 3_000),
            ({"tall": ScattererClass("tall", 4100.0, 4000.0, 3e-7)}, 3_000),
            ({"seed": 33}, 3_000),
            ({}, 2_500),
        ],
        ids=["d_prime", "short", "tall", "seed", "n"],
    )
    def test_key_tells_runs_apart(self, cache, fields, n):
        base = make_scenario(seed=32)
        self._toa(base)
        other = dataclasses.replace(base, gamma=0.5, **fields)
        assert self._toa(other, n) == _reference(other, n)

    def test_concurrent_runs(self, cache, monkeypatch):
        # More threads than cores, each sweeping gamma at its own d', with a
        # short switch interval: runs share the cache, and more blocks are
        # live than it holds.
        monkeypatch.setattr(simulator, "_BLOCK_SIZE", 500)
        base = make_scenario(seed=34)
        d_primes = (100.0, 300.0, 500.0, 700.0)
        expected = {
            (d, g): _reference(dataclasses.replace(base, d_prime=d, gamma=g), 3_000)
            for d in d_primes
            for g in self.GAMMAS
        }
        got = {}

        def sweep(d_prime):
            for gamma in self.GAMMAS:
                scenario = dataclasses.replace(base, d_prime=d_prime, gamma=gamma)
                got[d_prime, gamma] = self._toa(scenario, workers=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=sweep, args=(d,)) for d in d_primes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    @pytest.mark.parametrize("workers", [1, 3])
    def test_capacity(self, cache, monkeypatch, workers):
        # The preset's toa-sweep runs (1e5 realizations) fit the head.
        assert simulator._GAMMA_FREE_BLOCKS * _BLOCK_SIZE >= 100_000
        # a run of four times the head's length: blocks past it are sampled whole
        scenario = Scenario(
            d_prime=200.0,
            short=ScattererClass("short", 500.0, 300.0, 1e-5),
            tall=ScattererClass("tall", 4100.0, 4000.0, 4e-8),
            gamma=0.5,
            seed=35,
        )
        n = 4 * simulator._GAMMA_FREE_BLOCKS * 1_000
        expected = _reference(scenario, n)
        self._toa(dataclasses.replace(scenario, gamma=0.22), n, workers=workers)
        head = cache.blocks()
        assert [len(block) for block, _ in head] == [1_000] * simulator._GAMMA_FREE_BLOCKS
        drawn = []
        sample = simulator.sample_block
        monkeypatch.setattr(
            simulator,
            "sample_block",
            lambda s, size, rng, **k: drawn.append((size, k)) or sample(s, size, rng, **k),
        )
        assert self._toa(scenario, n, workers=workers) == expected
        # the second gamma reuses the head and draws every later block afresh
        assert cache.blocks() is head
        assert drawn == [(1_000, {})] * 3 * simulator._GAMMA_FREE_BLOCKS

    def test_cached_records_read_only(self, cache):
        # The head is shared by every later run and thread, and holds 32
        # bytes per realization: the gate, two int32 counts, the pick.
        scenario = make_scenario(seed=36)
        self._toa(scenario)
        head = cache.blocks()
        assert len(head) == 3
        for block, pick in head:
            assert block.n_tall is block.short_points is block.tall_points is None
            arrays = (block.gate, block.n_short, block.tall_counts, *pick)
            assert sum(array.nbytes for array in arrays) <= 32 * len(block)
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1

    def test_pool_only_draws(self, cache, monkeypatch):
        # Two workers draw a head that is not kept on the pool, one job per
        # block, and reduce every head block on the calling thread.
        submitted = []

        class Counting(simulator.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(args)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(simulator, "ThreadPoolExecutor", Counting)
        cold, warm = (make_scenario(gamma=g, seed=37) for g in (0.22, 0.5))
        expected = {s: self._toa(s) for s in (cold, warm)}
        cache.cache_clear()
        assert self._toa(cold, workers=2) == expected[cold]
        assert submitted == [(0,), (1,), (2,)]
        submitted.clear()
        assert self._toa(warm, workers=2) == expected[warm]
        assert submitted == []

    def test_one_worker_builds_no_pool(self, cache, monkeypatch):
        # One worker maps every block inline, head or not, cold or warm.
        def no_pool(*args, **kwargs):
            raise AssertionError("one worker built a thread pool")

        scenario = make_scenario(gamma=0.22, seed=37)
        expected = {
            frozenset(wanted): run_experiment(scenario, GTU_REFLECTION, 3_000, statistics=wanted)
            for wanted in ({"toa"}, set(), {"power"}, {"angles"})
        }
        cache.cache_clear()
        monkeypatch.setattr(simulator, "ThreadPoolExecutor", no_pool)
        for wanted in ({"toa"}, {"toa"}, set(), {"power"}, {"angles"}):
            got = run_experiment(scenario, GTU_REFLECTION, 3_000, workers=1, statistics=wanted)
            reference = expected[frozenset(wanted)]
            assert _toa_fields(got) == _toa_fields(reference)
            assert got.power == reference.power
            assert np.array_equal(got.aod_histogram, reference.aod_histogram)

    def test_one_head_alive(self, cache, monkeypatch):
        # The kept head is freed before the next one is drawn.
        refs = []
        pick = simulator._toa_pick

        def watched_pick(*args):
            closed, open_ = pick(*args)
            refs.append(weakref.ref(closed))
            return closed, open_

        base = make_scenario(seed=38)
        monkeypatch.setattr(simulator, "_toa_pick", watched_pick)
        self._toa(dataclasses.replace(base, d_prime=100.0))
        monkeypatch.setattr(simulator, "_toa_pick", pick)
        assert len(refs) == 3 and all(ref() is not None for ref in refs)
        alive = []
        sample = simulator.sample_block
        monkeypatch.setattr(
            simulator,
            "sample_block",
            lambda *a, **k: alive.append(sum(ref() is not None for ref in refs)) or sample(*a, **k),
        )
        self._toa(dataclasses.replace(base, d_prime=400.0))
        assert alive[0] == 0


def _thin_lens(gtu):
    """The short class of perfbench's thin-lens config (0.42 per m^2) at d' = 0.1 km:
    ~1.2e5 scatterers per realization."""
    return dataclasses.replace(
        gtu.scenario(d_prime=100.0),
        short=dataclasses.replace(gtu.short, density=0.42),
    )


def _dense(gtu):
    """The config ``{"scenario": {"short": {"density_exponent": 0}}}``: a short
    density of 7.07 per m^2, ~2.0e6 scatterers per realization."""
    return dataclasses.replace(gtu.scenario(), short=dataclasses.replace(gtu.short, density=7.07))


@pytest.mark.parametrize("wanted", [{"angles"}, {"power"}], ids=["angles", "power"])
def test_block_memory_bounded(gtu, monkeypatch, wanted):
    # A block of the thin lens's 16384 realizations would need ~29 GiB of
    # positions.  A position-drawing run draws them in sub-chunks of the
    # derived length, ~2**21 points, 32 MiB of positions, and frees each
    # sub-chunk before it draws the next.  The power kernel holds one
    # coefficient per position and evaluates its phasors a piece at a time.
    scenario = _thin_lens(gtu)
    mu = mean_active_count(scenario, "short") + mean_active_count(scenario, "tall")
    assert simulator._block_length(scenario) * mu <= simulator._BLOCK_POINTS
    assert simulator._block_length(gtu.scenario()) == simulator._BLOCK_SIZE
    densest = dataclasses.replace(gtu.short, density=1e7 / (math.pi * gtu.short.v2**2))
    assert simulator._block_length(dataclasses.replace(scenario, short=densest)) == 1
    parts = []
    positions = simulator.sample_positions
    monkeypatch.setattr(
        simulator,
        "sample_positions",
        lambda s, block, rng, part: parts.append(part) or positions(s, block, rng, part),
    )
    n = 2 * simulator._block_length(scenario) + 1
    tracemalloc.start()
    try:
        summary = run_experiment(scenario, GTU_REFLECTION, n, statistics=wanted)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parts) == 3
    assert summary.mpc_count_histogram.sum() == n
    if "angles" in wanted:
        counts = summary.mpc_count_histogram
        assert summary.aod_histogram.sum() == np.arange(len(counts)) @ counts
    else:
        assert summary.power.count == n
    assert peak < 2 * simulator._BLOCK_POINTS * 16


@pytest.mark.parametrize(
    "config, wanted", [(_thin_lens, {"toa"}), (_dense, set())], ids=["thin-toa", "dense-counts"]
)
def test_partition_is_the_same_for_every_scenario(gtu, cache, monkeypatch, config, wanted):
    # The thin and dense lenses, whose sub-chunks hold 17 and 1 realizations,
    # draw their counts in blocks of _BLOCK_SIZE all the same.
    scenario = config(gtu)
    assert simulator._block_length(scenario) in (17, 1)
    sizes = []
    sample = simulator.sample_block
    monkeypatch.setattr(
        simulator,
        "sample_block",
        lambda s, size, rng, **k: sizes.append(size) or sample(s, size, rng, **k),
    )
    n = simulator._BLOCK_SIZE + 1
    summary = run_experiment(scenario, GTU_REFLECTION, n, statistics=wanted)
    assert sizes == [simulator._BLOCK_SIZE, 1]
    assert summary.mpc_count_histogram.sum() == n


@pytest.mark.usefixtures("small_blocks")
def test_sub_chunked_run(cache, monkeypatch):
    # Blocks of 1000, 1000 and 500 realizations, each drawn and reduced in
    # sub-chunks of 2**14 // 41 = 399 realizations (41 scatterers each, on
    # average, with the gate open).
    monkeypatch.setattr(simulator, "_BLOCK_POINTS", 1 << 14)
    scenario = make_scenario(seed=39)
    assert simulator._block_length(scenario) == 399
    parts = []
    positions = simulator.sample_positions
    monkeypatch.setattr(
        simulator,
        "sample_positions",
        lambda s, block, rng, part: parts.append(part) or positions(s, block, rng, part),
    )
    serial = run_experiment(scenario, GTU_REFLECTION, 2_500, workers=1)
    assert len(parts) == 3 + 3 + 2
    parallel = run_experiment(scenario, GTU_REFLECTION, 2_500, workers=2)
    for name in ("n_gate_open", "tau_open", "tau_closed", "power"):
        assert getattr(serial, name) == getattr(parallel, name)
    for name in ("mpc_count_histogram", "aod_histogram", "aoa_histogram"):
        assert np.array_equal(getattr(serial, name), getattr(parallel, name))
    # the ToA reads the whole block, as a {"toa"} run does from its head
    toa = run_experiment(scenario, GTU_REFLECTION, 2_500, workers=2, statistics={"toa"})
    assert _toa_fields(serial) == _toa_fields(toa)
    counts = serial.mpc_count_histogram
    assert serial.aod_histogram.sum() == np.arange(len(counts)) @ counts


@pytest.mark.parametrize("wanted", [{"toa"}, set()], ids=["toa", "none"])
def test_work_bounded_by_realizations(gtu, cache, monkeypatch, wanted):
    # The thin-lens short class holds ~1.2e5 scatterers per realization at
    # d' = 0.1 km; a run that reads no position draws at most the picked
    # component's short and tall points.
    scenario = dataclasses.replace(
        gtu.scenario(d_prime=100.0),
        short=dataclasses.replace(gtu.short, density=0.42),
    )
    assert mean_active_count(scenario, "short") > 1e5
    points = []
    sample = pointprocess.sample_uniform_in_lens
    monkeypatch.setattr(
        pointprocess,
        "sample_uniform_in_lens",
        lambda spec, rng, size: points.append(size) or sample(spec, rng, size=size),
    )
    n = 500
    summary = run_experiment(scenario, GTU_REFLECTION, n, statistics=wanted)
    assert summary.mpc_count_histogram.sum() == n
    assert sum(points) <= 2 * n
    if not wanted:
        assert points == []


class TestToaAwayFromPreset:
    """The ToA estimator agrees with ``mean_toa`` far from the preset lenses."""

    CASES = {
        # v1 + v2 - d' = 0.3 m = 1e-3 * v: ~1.5 % of the bounding box is lens
        "thin-short-lens": dict(
            short=ScattererClass("short", 300.0, 300.0, 1.0), d_prime=599.7, gamma=0.3
        ),
        "v1-below-v2": dict(short=ScattererClass("short", 200.0, 600.0, 7.07e-5), d_prime=500.0),
        "d-prime-zero": dict(short=ScattererClass("short", 300.0, 500.0, 7.07e-5), d_prime=0.0),
        "gamma-zero": dict(gamma=0.0),
        "gamma-one": dict(gamma=1.0),
    }

    @pytest.mark.parametrize("seed", [41, 42, 43])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_closed_form(self, cache, case, seed):
        fields = {"d_prime": 300.0, "gamma": 0.5, "seed": seed, **self.CASES[case]}
        scenario = dataclasses.replace(make_scenario(), **fields)
        assert mean_active_count(scenario, "short") > 1.0
        summary = run_experiment(scenario, GTU_REFLECTION, 20_000, statistics={"toa"})
        z = (summary.toa_mean - mean_toa(scenario)) / summary.toa_stderr
        assert abs(z) < 4.0
