"""Monte Carlo experiment engine.

Generates blocks of realizations of the scatterer process, evaluates each
component's distances, path length, departure/arrival angles and bounce
coefficient and each realization's coherent received-power sum, and
aggregates the empirical statistics that cross-check every closed-form
result.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytics import SPEED_OF_LIGHT, InteractionModel
from .geometry import distances
from .pointprocess import (
    RealizationBlock,
    Scenario,
    mean_active_count,
    sample_block,
    sample_gated,
    substream,
)

__all__ = [
    "N_ANGLE_BINS",
    "ANGLE_BIN_EDGES",
    "Moments",
    "RunSummary",
    "STATISTICS",
    "run_experiment",
]

# 64 uniform angle bins with centers on multiples of 2*pi/64, so that 0 and
# pi are bin centers rather than shared edges.
N_ANGLE_BINS = 64
_BIN_WIDTH = 2.0 * math.pi / N_ANGLE_BINS
ANGLE_BIN_EDGES = -math.pi + _BIN_WIDTH / 2.0 + np.arange(N_ANGLE_BINS + 1) * _BIN_WIDTH

# A block holds at most _BLOCK_SIZE realizations and, on average, at most
# _BLOCK_POINTS scatterers, so its memory is bounded whatever the densities.
_BLOCK_SIZE = 8192
_BLOCK_POINTS = 1 << 21

# Optional statistics a run can compute.  The count histogram and the gate
# count are always computed.
STATISTICS = frozenset({"toa", "pooled_toa", "power", "angles"})


@dataclass(frozen=True)
class Moments:
    """Count, mean and sum of squared deviations (``m2``) of a sample.

    Partial results combine with :meth:`merge`, so a block-parallel run keeps
    no raw sums of squares and never takes the variance as ``sumsq/n - mean^2``.
    """

    count: int = 0
    mean: float = math.nan
    m2: float = 0.0

    @classmethod
    def of(cls, values: np.ndarray) -> "Moments":
        if len(values) == 0:
            return cls()
        mean = float(np.mean(values))
        return cls(len(values), mean, float(np.sum((values - mean) ** 2)))

    def merge(self, other: "Moments") -> "Moments":
        """Pairwise update of Chan, Golub & LeVeque (1979)."""
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        count = self.count + other.count
        delta = other.mean - self.mean
        return Moments(
            count,
            self.mean + delta * other.count / count,
            self.m2 + other.m2 + delta * delta * self.count * other.count / count,
        )

    @property
    def stderr(self) -> float:
        """Standard error of the mean; NaN below two samples."""
        if self.count < 2:
            return math.nan
        return math.sqrt(self.m2 / (self.count - 1) / self.count)


@dataclass
class RunSummary:
    """Aggregated statistics of a batch of realizations.

    Path-length ("tau") accumulators are kept separately for the gate-open
    and gate-closed branches; the single-component time-of-arrival estimator
    reweights the branches by the gate probability so that its expectation
    matches the closed-form mean regardless of how often a branch is empty.
    ``mpc_count_histogram`` counts every realization once, so its sum is the
    number of realizations.  ``statistics`` names the optional statistics
    held (see :data:`STATISTICS`); each one not held reads as an empty
    ``Moments()`` (NaN mean) or a zero-length angle histogram.
    """

    gamma: float
    mode: str
    statistics: frozenset
    n_gate_open: int
    mpc_count_histogram: np.ndarray
    tau_open: Moments = Moments()
    tau_closed: Moments = Moments()
    pooled_tau: Moments = Moments()
    power: Moments = Moments()
    aod_histogram: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0, np.int64))
    aoa_histogram: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0, np.int64))

    def merge(self, other: "RunSummary") -> "RunSummary":
        if (self.gamma, self.mode) != (other.gamma, other.mode):
            raise ValueError("cannot merge summaries from different configurations")
        if self.statistics != other.statistics:
            raise ValueError("cannot merge summaries holding different statistics")
        width = max(len(self.mpc_count_histogram), len(other.mpc_count_histogram))
        hist = np.zeros(width, dtype=np.int64)
        hist[: len(self.mpc_count_histogram)] += self.mpc_count_histogram
        hist[: len(other.mpc_count_histogram)] += other.mpc_count_histogram
        return RunSummary(
            self.gamma,
            self.mode,
            self.statistics,
            n_gate_open=self.n_gate_open + other.n_gate_open,
            mpc_count_histogram=hist,
            tau_open=self.tau_open.merge(other.tau_open),
            tau_closed=self.tau_closed.merge(other.tau_closed),
            pooled_tau=self.pooled_tau.merge(other.pooled_tau),
            power=self.power.merge(other.power),
            aod_histogram=self.aod_histogram + other.aod_histogram,
            aoa_histogram=self.aoa_histogram + other.aoa_histogram,
        )

    @property
    def empirical_pmf(self) -> np.ndarray:
        return self.mpc_count_histogram / self.mpc_count_histogram.sum()

    @property
    def toa_mean(self) -> float:
        """Gate-reweighted single-component mean ToA estimate, in seconds."""
        return self._toa_estimate()[0]

    @property
    def toa_stderr(self) -> float:
        return self._toa_estimate()[1]

    def _toa_estimate(self) -> tuple[float, float]:
        tau = 0.0
        var = 0.0
        for weight, branch in ((self.gamma, self.tau_open), (1.0 - self.gamma, self.tau_closed)):
            if weight > 0.0:
                tau += weight * branch.mean
                var += (weight * branch.stderr) ** 2
        return tau / SPEED_OF_LIGHT, math.sqrt(var) / SPEED_OF_LIGHT

    @property
    def pooled_toa_mean(self) -> float:
        """Mean ToA over all components pooled across realizations, seconds."""
        return self.pooled_tau.mean / SPEED_OF_LIGHT

    @property
    def power_mean(self) -> float:
        return self.power.mean

    @property
    def power_stderr(self) -> float:
        return self.power.stderr

    def _angle_density(self, counts: np.ndarray) -> np.ndarray:
        total = counts.sum()
        if total == 0:
            return np.zeros_like(counts, dtype=float)
        return counts / (total * _BIN_WIDTH)

    @property
    def aod_density(self) -> np.ndarray:
        return self._angle_density(self.aod_histogram)

    @property
    def aoa_density(self) -> np.ndarray:
        return self._angle_density(self.aoa_histogram)


def _histogram_angles(angles: np.ndarray) -> np.ndarray:
    shifted = np.where(angles <= ANGLE_BIN_EDGES[0], angles + 2.0 * math.pi, angles)
    counts, _ = np.histogram(shifted, bins=ANGLE_BIN_EDGES)
    return counts.astype(np.int64)


def _picked_path_lengths(
    block: RealizationBlock, n_tall: np.ndarray, pick: np.ndarray, d_prime: float
) -> np.ndarray:
    """Path length of the component each realization picks for the ToA estimator.

    Realization ``j`` has ``block.n_short[j] + n_tall[j]`` components and
    picks the one at index ``floor(pick[j] * count)``, short ones first.
    Reads NaN where it has none, and ``-1 - k`` where it picks its ``k``-th
    tall scatterer: :func:`_toa_moments` fills those in from the tall
    positions, so they need not be drawn yet.
    """
    n_total = block.n_short + n_tall
    tau = np.full(len(pick), math.nan)
    nonempty = np.flatnonzero(n_total > 0)
    n_comp = n_total[nonempty]
    idx = np.minimum((pick[nonempty] * n_comp).astype(np.int64), n_comp - 1)
    n_short = block.n_short[nonempty]
    short = np.flatnonzero(idx < n_short)
    rows = block.short_offsets[nonempty[short]] + idx[short]
    x, y = distances(block.short_points.take(rows, axis=0), d_prime)
    tau[nonempty[short]] = x + y
    tall = np.flatnonzero(idx >= n_short)
    tau[nonempty[tall]] = n_short[tall] - idx[tall] - 1
    return tau


def _toa_moments(
    tau: np.ndarray, u: np.ndarray, n_tall: np.ndarray, tall_points: np.ndarray, d_prime: float
) -> tuple[Moments, Moments]:
    """Gate-open and gate-closed moments of the picked path lengths ``tau``.

    Fills the tall picks of :func:`_picked_path_lengths` in place from
    ``tall_points``, laid out by ``n_tall``.
    """
    tall = np.flatnonzero(tau < 0.0)
    rows = (np.cumsum(n_tall) - n_tall)[tall] + (-1.0 - tau[tall]).astype(np.int64)
    x, y = distances(tall_points.take(rows, axis=0), d_prime)
    tau[tall] = x + y
    defined = ~np.isnan(tau)
    return Moments.of(tau[defined & u]), Moments.of(tau[defined & ~u])


def _reduce_block(
    block: RealizationBlock,
    scenario: Scenario,
    interaction: InteractionModel,
    rng: np.random.Generator,
    statistics: frozenset = STATISTICS,
) -> RunSummary:
    """Summarize one sampled block, computing only the requested ``statistics``.

    Only when ``"power"`` is requested, draws the short and then the tall
    bounce coefficients from ``rng``.  The uniforms that pick each
    realization's component for the single-component ToA estimator come from
    a child of ``rng`` (:meth:`numpy.random.Generator.spawn`), so they do not
    depend on whether coefficients were drawn.  Each active scatterer is one
    component; a realization's power is the coherent sum over its
    components, zero when it has none.
    """
    block_len = len(block)
    d_prime = scenario.d_prime
    computed = {}

    if "toa" in statistics:
        pick = rng.spawn(1)[0].random(block_len)
        tau = _picked_path_lengths(block, block.n_tall, pick, d_prime)
        computed["tau_open"], computed["tau_closed"] = _toa_moments(
            tau, block.u, block.n_tall, block.tall_points, d_prime
        )

    if "pooled_toa" in statistics or "power" in statistics:
        xs, ys = distances(block.short_points, d_prime)
        xt, yt = distances(block.tall_points, d_prime)
        if "pooled_toa" in statistics:
            computed["pooled_tau"] = Moments.of(np.concatenate((xs + ys, xt + yt)))
        if "power" in statistics:
            sigma = math.sqrt(interaction.coeff_var)
            r_short = rng.normal(interaction.coeff_mean, sigma, len(block.short_points))
            r_tall = rng.normal(interaction.coeff_mean, sigma, len(block.tall_points))
            re = np.zeros(block_len)
            im = np.zeros(block_len)
            for x, y, r, counts in (
                (xs, ys, r_short, block.n_short),
                (xt, yt, r_tall, block.n_tall),
            ):
                seg = np.repeat(np.arange(block_len), counts)
                c, s = interaction.phasor(x, y, r)
                re += np.bincount(seg, weights=c, minlength=block_len)
                im += np.bincount(seg, weights=s, minlength=block_len)
            computed["power"] = Moments.of(interaction.k0 * (re * re + im * im))

    if "angles" in statistics:
        points = np.concatenate((block.short_points, block.tall_points))
        computed["aod_histogram"] = _histogram_angles(np.arctan2(points[:, 1], points[:, 0]))
        computed["aoa_histogram"] = _histogram_angles(
            np.arctan2(points[:, 1], points[:, 0] - d_prime)
        )

    return RunSummary(
        scenario.gamma,
        interaction.mode,
        statistics,
        int(block.u.sum()),
        np.bincount(block.n_short + block.n_tall),
        **computed,
    )


# The gamma-free stage of a ToA-only run is cached for this many blocks: 16
# of 8192 realizations at 32 bytes each (~4 MiB), more than a preset
# toa-sweep run's 13.  Later blocks are sampled whole.
_GAMMA_FREE_BLOCKS = 16
# Per realization: the gate uniform, the path lengths picked with the gate
# closed and open (see _picked_path_lengths), the short and the tall count
# (int32: a config's mean count per class is at most 1e7).
_GAMMA_FREE_ROW = np.dtype(
    [("gate", "f8"), ("closed", "f8"), ("open", "f8"), ("n_short", "i4"), ("n_tall", "i4")]
)


@functools.lru_cache(maxsize=_GAMMA_FREE_BLOCKS)
def _gamma_free(scenario0: Scenario, seed: int, index: int, block_len: int) -> tuple:
    """The gamma-free stage of block ``index`` of a ToA-only run.

    ``gamma`` only gates the tall class, and every draw of a block before its
    tall positions is free of it (see :func:`~dvrchan.pointprocess.sample_block`),
    so ``scenario0`` is the scenario with ``gamma`` and ``seed`` set to 0.
    Returns a read-only record per realization and the generator state after
    the short positions; both are shared by every later call with the same
    key, so neither may be written.
    """
    # Allocated before the block is drawn: allocated after, the long-lived
    # record lands among the block's freed temporaries and raises peak RSS.
    record = np.empty(block_len, _GAMMA_FREE_ROW)
    rng = substream(seed, index)
    # At gamma 0 no gate opens, so sample_block draws the gamma-free stage
    # and nothing more.
    free = sample_block(scenario0, block_len, rng)
    pick = rng.spawn(1)[0].random(block_len)
    record["gate"] = free.gate
    record["n_short"] = free.n_short
    record["n_tall"] = free.tall_counts
    record["closed"] = _picked_path_lengths(free, free.n_tall, pick, scenario0.d_prime)
    record["open"] = _picked_path_lengths(free, free.tall_counts, pick, scenario0.d_prime)
    record.flags.writeable = False
    return record, rng.bit_generator.state


def _reduce_toa(
    scenario: Scenario, interaction: InteractionModel, seed: int, index: int, block_len: int
) -> RunSummary:
    """ToA-only summary of block ``index``, bit for bit the one :func:`_reduce_block` gives.

    Reads the block's gamma-free stage from :func:`_gamma_free` and draws
    only the tall positions.
    """
    scenario0 = dataclasses.replace(scenario, gamma=0.0, seed=0)
    record, state = _gamma_free(scenario0, seed, index, block_len)
    rng = substream(seed, index)
    rng.bit_generator.state = state
    u, n_tall, tall_points = sample_gated(scenario, record["gate"], record["n_tall"], rng)
    tau = np.where(u, record["open"], record["closed"])
    return RunSummary(
        scenario.gamma,
        interaction.mode,
        frozenset({"toa"}),
        int(u.sum()),
        np.bincount(record["n_short"] + n_tall),
        *_toa_moments(tau, u, n_tall, tall_points, scenario.d_prime),
    )


def _block_length(scenario: Scenario) -> int:
    mu = mean_active_count(scenario, "short") + mean_active_count(scenario, "tall")
    return max(1, min(_BLOCK_SIZE, _BLOCK_POINTS // max(1, math.ceil(mu))))


def run_experiment(
    scenario: Scenario,
    interaction: InteractionModel,
    n_realizations: int,
    seed: int | None = None,
    workers: int = 1,
    block_size: int | None = None,
    *,
    statistics: Iterable[str] = STATISTICS,
) -> RunSummary:
    """Run a Monte Carlo experiment and aggregate its statistics.

    Realizations are partitioned into fixed-size blocks with deterministic
    per-block RNG substreams and merged in block order, so the result depends
    only on (scenario, seed, n_realizations), never on the worker count.
    ``block_size`` defaults to ``min(8192, 2**21 // ceil(mean scatterers per
    realization))``, at least 1, which depends on the scenario alone and
    bounds a block's memory.  ``statistics`` is a subset of :data:`STATISTICS` naming
    the optional statistics to compute; what a block draws for one statistic
    does not depend on the others named, so each computed statistic equals
    that of a full run.  A run computing ``{"toa"}`` alone reuses each
    block's gamma-free draws from an earlier such run at another ``gamma``
    (see :func:`_gamma_free`), with the same result.
    """
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
    statistics = frozenset(statistics)
    if not statistics <= STATISTICS:
        raise ValueError(f"unknown statistics {sorted(statistics - STATISTICS)}")
    if seed is None:
        seed = scenario.seed
    if block_size is None:
        block_size = _block_length(scenario)
    n_blocks = -(-n_realizations // block_size)
    cached = _GAMMA_FREE_BLOCKS if statistics == {"toa"} else 0

    def job(index: int) -> RunSummary:
        block_len = min(block_size, n_realizations - index * block_size)
        if index < cached:
            return _reduce_toa(scenario, interaction, seed, index, block_len)
        rng = substream(seed, index)
        block = sample_block(scenario, block_len, rng)
        return _reduce_block(block, scenario, interaction, rng, statistics)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return functools.reduce(RunSummary.merge, pool.map(job, range(n_blocks)))
