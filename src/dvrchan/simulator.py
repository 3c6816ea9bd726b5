"""Monte Carlo experiment engine.

Generates blocks of realizations of the scatterer process, evaluates each
component's distances, path length, departure/arrival angles and bounce
coefficient and each realization's coherent received-power sum, and
aggregates the empirical statistics that cross-check every closed-form
result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
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
    sample_class_points,
    sample_positions,
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

# Every run is partitioned into blocks of _BLOCK_SIZE realizations, whatever
# the scenario (see _block).  A block that draws positions draws them in
# sub-chunks that hold, on average, at most _BLOCK_POINTS scatterers (see
# _block_length), and _power reads them in pieces of _PIECE_POINTS, so a
# block's memory is bounded whatever the densities.
_BLOCK_SIZE = 16384
_BLOCK_POINTS = 1 << 21
_PIECE_POINTS = 1 << 17

# Optional statistics a run can compute.  The count histogram and the gate
# count are always computed.
STATISTICS = frozenset({"toa", "power", "angles"})


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
    power: Moments = Moments()
    aod_histogram: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0, np.int64))
    aoa_histogram: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0, np.int64))

    def merge(self, other: "RunSummary") -> "RunSummary":
        if (self.gamma, self.mode) != (other.gamma, other.mode):
            raise ValueError("cannot merge summaries from different configurations")
        if self.statistics != other.statistics:
            raise ValueError("cannot merge summaries holding different statistics")
        return RunSummary(
            self.gamma,
            self.mode,
            self.statistics,
            n_gate_open=self.n_gate_open + other.n_gate_open,
            mpc_count_histogram=_add_counts(self.mpc_count_histogram, other.mpc_count_histogram),
            tau_open=self.tau_open.merge(other.tau_open),
            tau_closed=self.tau_closed.merge(other.tau_closed),
            power=self.power.merge(other.power),
            aod_histogram=_add_counts(self.aod_histogram, other.aod_histogram),
            aoa_histogram=_add_counts(self.aoa_histogram, other.aoa_histogram),
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

    def _angle_density(self, counts: np.ndarray) -> np.ndarray:
        """Counts per unit angle over their total; NaN in every bin if none was counted."""
        return counts / (counts.sum() * _BIN_WIDTH)

    @property
    def aod_density(self) -> np.ndarray:
        return self._angle_density(self.aod_histogram)

    @property
    def aoa_density(self) -> np.ndarray:
        return self._angle_density(self.aoa_histogram)


def _add_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of two count histograms, the shorter one zero-padded."""
    if len(a) < len(b):
        a, b = b, a
    total = a.copy()
    total[: len(b)] += b
    return total


def _histogram_angles(angles: np.ndarray) -> np.ndarray:
    """Angle-bin counts of ``angles``, which are wrapped into the bins in place."""
    angles[angles <= ANGLE_BIN_EDGES[0]] += 2.0 * math.pi
    counts, _ = np.histogram(angles, bins=ANGLE_BIN_EDGES)
    return counts.astype(np.int64)


def _path_lengths(scenario: Scenario, cls, count: int, rng: np.random.Generator) -> np.ndarray:
    x, y = distances(sample_class_points(scenario, cls, count, rng), scenario.d_prime)
    return x + y


def _toa_pick(
    block: RealizationBlock, scenario: Scenario, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Path lengths ``(closed, open)`` of the component each realization picks for ToA.

    Reads only the block's counts and gate uniforms, so it is the same for
    every ``gamma``.  Given its count, a Poisson process's points are i.i.d.
    uniform over its lens, so the picked component is drawn on its own, with
    the law it has among all the realization's points.  A child of ``rng``
    (:meth:`numpy.random.Generator.spawn`, the same whatever ``rng`` has
    drawn) gives, in order: a uniform ``pick`` per realization; one short-lens
    point per realization with a short scatterer, whose path length is
    ``closed``; one tall-lens point per realization that picks a tall
    scatterer with the gate open, that is where ``pick * (n_short + n_tall) >=
    n_short``.  ``open`` is that tall point's path length, or else ``closed``.
    Both are NaN where there is no component.
    """
    child = rng.spawn(1)[0]
    n_short, n_tall = block.n_short, block.tall_counts
    pick = child.random(len(block))
    short = np.flatnonzero(n_short > 0)
    tall = np.flatnonzero((n_tall > 0) & (pick * (n_short + n_tall) >= n_short))
    closed = np.full(len(block), math.nan)
    closed[short] = _path_lengths(scenario, scenario.short, len(short), child)
    open_ = closed.copy()
    open_[tall] = _path_lengths(scenario, scenario.tall, len(tall), child)
    return closed, open_


def _power(
    part: RealizationBlock, scenario: Scenario, interaction: InteractionModel, rng
) -> Moments:
    """Moments of the coherent received power of each realization of ``part``.

    Draws the short and then the tall bounce coefficients from ``rng``.  Each
    active scatterer is one component; a realization's power is the coherent
    sum over its components, zero when it has none.  A class's phasors are
    summed in pieces of whole realizations, each realization's in one order.
    """
    sigma = math.sqrt(interaction.coeff_var)
    r_short = rng.normal(interaction.coeff_mean, sigma, len(part.short_points))
    r_tall = rng.normal(interaction.coeff_mean, sigma, len(part.tall_points))
    re = np.zeros(len(part))
    im = np.zeros(len(part))
    for points, r, counts in (
        (part.short_points, r_short, part.n_short),
        (part.tall_points, r_tall, part.n_tall),
    ):
        ends = np.concatenate(([0], np.cumsum(counts)))
        step = max(1, len(part) * _PIECE_POINTS // max(1, len(points)))
        for lo in range(0, len(part), step):
            hi = min(lo + step, len(part))
            seg = np.repeat(np.arange(hi - lo), counts[lo:hi])
            piece = slice(ends[lo], ends[hi])
            c, s = interaction.phasor(*distances(points[piece], scenario.d_prime), r[piece])
            re[lo:hi] += np.bincount(seg, weights=c, minlength=hi - lo)
            im[lo:hi] += np.bincount(seg, weights=s, minlength=hi - lo)
    # numpy's error state is per thread, so a pool thread sets its own.
    with np.errstate(over="ignore", invalid="ignore"):
        return Moments.of(interaction.k0 * (re * re + im * im))


def _angles(points: np.ndarray, d_prime: float) -> tuple[np.ndarray, np.ndarray]:
    """Departure and arrival angle histograms of ``(n, 2)`` scatterer positions."""
    x, y = points[:, 0], points[:, 1]
    aod = _histogram_angles(np.arctan2(y, x))
    angles = np.subtract(x, d_prime)
    return aod, _histogram_angles(np.arctan2(y, angles, out=angles))


def _reduce_block(
    block: RealizationBlock,
    scenario: Scenario,
    interaction: InteractionModel,
    rng: np.random.Generator | None,
    statistics: frozenset,
    pick: tuple[np.ndarray, np.ndarray] | None = None,
) -> RunSummary:
    """Summarize one block, computing only the requested ``statistics``.

    The count histogram, the gate count and the single-component ToA
    estimator are over the whole block.  They read the gate from
    ``scenario.gamma``, the sorted gate uniforms and the ungated tall
    counts, so a block drawn at any ``gamma`` gives the same; the estimator
    reads ``pick``, drawn from a child of ``rng`` when not given (see
    :func:`_toa_pick`), and no position of the block.

    Only when ``"power"`` or ``"angles"`` is requested does the block read
    positions.  It draws them here, in sub-chunks of :func:`_block_length`
    realizations, in order: from ``rng``, a sub-chunk's short positions, its
    tall positions (:func:`sample_positions`) and then, for ``"power"``, its
    bounce coefficients (:func:`_power`).  Each sub-chunk's power moments, and
    the angle counts of each of its classes, merge into the block's summary
    as in :meth:`RunSummary.merge`.
    """
    # The gate uniforms are sorted: the first n_open realizations are gate-open.
    n_open = int(np.searchsorted(block.gate, scenario.gamma))
    counts = block.n_short.copy()
    counts[:n_open] += block.tall_counts[:n_open]
    summary = RunSummary(scenario.gamma, interaction.mode, statistics, n_open, np.bincount(counts))

    if "toa" in statistics:
        closed, open_ = _toa_pick(block, scenario, rng) if pick is None else pick
        summary.tau_open, summary.tau_closed = (
            Moments.of(tau[~np.isnan(tau)]) for tau in (open_[:n_open], closed[n_open:])
        )

    if statistics & {"power", "angles"}:
        step = _block_length(scenario)
        for lo in range(0, len(block), step):
            part = sample_positions(scenario, block, rng, slice(lo, lo + step))
            if "power" in statistics:
                summary.power = summary.power.merge(_power(part, scenario, interaction, rng))
            if "angles" in statistics:
                for points in (part.short_points, part.tall_points):
                    aod, aoa = _angles(points, scenario.d_prime)
                    summary.aod_histogram = _add_counts(summary.aod_histogram, aod)
                    summary.aoa_histogram = _add_counts(summary.aoa_histogram, aoa)
            del part  # free a sub-chunk's positions before the next one's are drawn
    return summary


def _block(
    scenario: Scenario, seed: int, n_realizations: int, index: int
) -> tuple[RealizationBlock, np.random.Generator]:
    """Block ``index`` of a run's partition (:func:`sample_block`), and the stream it draws from.

    Block ``i`` holds ``min(_BLOCK_SIZE, n_realizations - i * _BLOCK_SIZE)``
    realizations and draws from ``substream(seed, i)``.
    """
    rng = substream(seed, index)
    return sample_block(scenario, min(_BLOCK_SIZE, n_realizations - index * _BLOCK_SIZE), rng), rng


# A ToA-only run draws the gamma-free arrays of its first _GAMMA_FREE_BLOCKS
# blocks as one head: 2**17 realizations at 32 bytes each (~4 MiB), more
# than a preset toa-sweep run's 1e5.  Later blocks are drawn afresh.  Only
# the last head drawn is kept, as the pair (key, blocks).
_GAMMA_FREE_BLOCKS = (1 << 17) // _BLOCK_SIZE
_head = None


def _toa_head(
    scenario: Scenario, seed: int, n_realizations: int, map_blocks
) -> tuple[tuple[RealizationBlock, tuple[np.ndarray, np.ndarray]], ...]:
    """Blocks ``0, 1, ...`` of a run (:func:`_block`), at most ``_GAMMA_FREE_BLOCKS``, each
    with its ToA pick (:func:`_toa_pick`), drawn through ``map_blocks``, the run's block map.

    Both are free of ``gamma``, so the head is kept under the scenario with
    ``gamma`` set to 0, the seed and ``n_realizations``, and returned while
    that key matches; else the kept head is freed first.  A block keeps what
    :func:`_reduce_block` reads, frozen and shared by later runs: the gate
    and the short and ungated tall counts, the very arrays
    :func:`sample_block` drew, and the pick, 32 bytes per realization.  The
    global is read once, so a thread never compares one head's key and
    returns another's blocks.
    """
    global _head
    scenario0 = dataclasses.replace(scenario, gamma=0.0)
    key = (scenario0, seed, n_realizations)
    head = _head
    if head is not None and head[0] == key:
        return head[1]
    head = _head = None

    def draw(index: int):
        block, rng = _block(scenario0, seed, n_realizations, index)
        pick = _toa_pick(block, scenario0, rng)
        block = RealizationBlock(block.n_short, None, None, None, block.gate, block.tall_counts)
        for array in (block.gate, block.n_short, block.tall_counts, *pick):
            array.flags.writeable = False
        return block, pick

    n_head = min(_GAMMA_FREE_BLOCKS, -(-n_realizations // _BLOCK_SIZE))
    blocks = tuple(map_blocks(draw, range(n_head)))
    _head = key, blocks
    return blocks


def _block_length(scenario: Scenario) -> int:
    """Sub-chunk length of a block that draws positions: at most ``_BLOCK_SIZE``
    realizations, which hold on average at most ``_BLOCK_POINTS`` scatterers."""
    mu = mean_active_count(scenario, "short") + mean_active_count(scenario, "tall")
    return max(1, min(_BLOCK_SIZE, _BLOCK_POINTS // max(1, math.ceil(mu))))


def run_experiment(
    scenario: Scenario,
    interaction: InteractionModel,
    n_realizations: int,
    seed: int,
    workers: int = 1,
    *,
    statistics: Iterable[str] = STATISTICS,
) -> RunSummary:
    """Run a Monte Carlo experiment and aggregate its statistics.

    Realizations are partitioned into blocks of ``_BLOCK_SIZE`` (16384)
    realizations, the last one shorter, whatever the scenario.  Block ``i``
    draws from ``substream(seed, i)`` and the blocks merge in block order, so
    the result depends only on (scenario, seed, n_realizations), never on
    the worker count.  ``statistics`` is a subset of :data:`STATISTICS`
    naming the optional statistics to compute; what a block draws for one
    statistic does not depend on the others named, so each computed
    statistic equals that of a full run.  A run computing ``{"toa"}`` or
    nothing draws no scatterer position.  One computing ``"power"`` or
    ``"angles"`` draws each block's positions in sub-chunks of
    :func:`_block_length` realizations, which bounds a block's memory (see
    :func:`_reduce_block`).  One computing ``{"toa"}`` alone takes the
    gamma-free arrays of its first ``_GAMMA_FREE_BLOCKS`` blocks as one head
    (see :func:`_toa_head`), kept from the last such run when it had the
    same scenario apart from ``gamma``, seed and ``n_realizations``, and
    reduces them on the calling thread through the same reducer, with the
    same result.  Blocks are mapped in order: with one worker inline by
    :func:`map`, with more by one thread pool's ``map``, which runs at most
    ``workers`` blocks at once and cancels the blocks not yet started when
    one raises.  The pool only draws a head that is not kept, and the
    blocks past the head.
    """
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
    statistics = frozenset(statistics)
    if not statistics <= STATISTICS:
        raise ValueError(f"unknown statistics {sorted(statistics - STATISTICS)}")

    def job(index: int) -> RunSummary:
        block, rng = _block(scenario, seed, n_realizations, index)
        return _reduce_block(block, scenario, interaction, rng, statistics)

    pooled = ThreadPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()
    with pooled as pool:
        map_blocks = map if pool is None else pool.map
        head = ()
        if statistics == {"toa"}:
            head = _toa_head(scenario, seed, n_realizations, map_blocks)
        cached = (_reduce_block(b, scenario, interaction, None, statistics, p) for b, p in head)
        rest = range(len(head), -(-n_realizations // _BLOCK_SIZE))
        return functools.reduce(RunSummary.merge, itertools.chain(cached, map_blocks(job, rest)))
