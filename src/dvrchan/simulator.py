"""Monte Carlo experiment engine.

Generates blocks of realizations of the scatterer process, evaluates each
component's distances, path length, departure/arrival angles and bounce
coefficient and each realization's coherent received-power sum, and
aggregates the empirical statistics that cross-check every closed-form
result.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytics import SPEED_OF_LIGHT, InteractionModel
from .geometry import distances
from .pointprocess import RealizationBlock, Scenario, sample_block, substream

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

_BLOCK_SIZE = 8192

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
    tau_open: Moments
    tau_closed: Moments
    pooled_tau: Moments
    power: Moments
    aod_histogram: np.ndarray
    aoa_histogram: np.ndarray

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
    n_total = block.n_short + block.n_tall
    tau_open = tau_closed = pooled_tau = power = Moments()
    aod = aoa = np.zeros(0, dtype=np.int64)

    if "toa" in statistics:
        pick = rng.spawn(1)[0].random(block_len)
        nonempty = np.flatnonzero(n_total > 0)
        n_comp = n_total[nonempty]
        idx = np.minimum((pick[nonempty] * n_comp).astype(np.int64), n_comp - 1)
        n_short = block.n_short[nonempty]
        short = np.flatnonzero(idx < n_short)
        tall = np.flatnonzero(idx >= n_short)
        picked = np.empty((len(nonempty), 2))
        picked[short] = block.short_points.take(
            block.short_offsets[nonempty[short]] + idx[short], axis=0
        )
        picked[tall] = block.tall_points.take(
            block.tall_offsets[nonempty[tall]] + idx[tall] - n_short[tall], axis=0
        )
        x, y = distances(picked, d_prime)
        tau_choice = x + y
        open_mask = block.u[nonempty]
        tau_open = Moments.of(tau_choice[open_mask])
        tau_closed = Moments.of(tau_choice[~open_mask])

    if "pooled_toa" in statistics or "power" in statistics:
        xs, ys = distances(block.short_points, d_prime)
        xt, yt = distances(block.tall_points, d_prime)
        if "pooled_toa" in statistics:
            pooled_tau = Moments.of(np.concatenate((xs + ys, xt + yt)))
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
            power = Moments.of(interaction.k0 * (re * re + im * im))

    if "angles" in statistics:
        points = np.concatenate((block.short_points, block.tall_points))
        aod = _histogram_angles(np.arctan2(points[:, 1], points[:, 0]))
        aoa = _histogram_angles(np.arctan2(points[:, 1], points[:, 0] - d_prime))

    return RunSummary(
        scenario.gamma,
        interaction.mode,
        statistics,
        n_gate_open=int(block.u.sum()),
        mpc_count_histogram=np.bincount(n_total),
        tau_open=tau_open,
        tau_closed=tau_closed,
        pooled_tau=pooled_tau,
        power=power,
        aod_histogram=aod,
        aoa_histogram=aoa,
    )


def run_experiment(
    scenario: Scenario,
    interaction: InteractionModel,
    n_realizations: int,
    seed: int | None = None,
    workers: int = 1,
    block_size: int = _BLOCK_SIZE,
    *,
    statistics: Iterable[str] = STATISTICS,
) -> RunSummary:
    """Run a Monte Carlo experiment and aggregate its statistics.

    Realizations are partitioned into fixed-size blocks with deterministic
    per-block RNG substreams and merged in block order, so the result depends
    only on (scenario, seed, n_realizations), never on the worker count.
    ``statistics`` is a subset of :data:`STATISTICS` naming the optional
    statistics to compute; what a block draws for one statistic does not
    depend on the others named, so each computed statistic equals that of a
    full run.
    """
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
    statistics = frozenset(statistics)
    if not statistics <= STATISTICS:
        raise ValueError(f"unknown statistics {sorted(statistics - STATISTICS)}")
    if seed is None:
        seed = scenario.seed

    def job(index: int) -> RunSummary:
        rng = substream(seed, index)
        block_len = min(block_size, n_realizations - index * block_size)
        block = sample_block(scenario, block_len, rng)
        return _reduce_block(block, scenario, interaction, rng, statistics)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        blocks = range(-(-n_realizations // block_size))
        return functools.reduce(RunSummary.merge, pool.map(job, blocks))
