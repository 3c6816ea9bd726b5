"""Doubly stochastic scatterer process sampling.

Short scatterers form a homogeneous Poisson process restricted to their
visibility-region lens.  Tall scatterers form a Poisson process in their own
lens, gated by a Bernoulli state drawn once per realization, which makes the
combined process a Cox process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import LensSpec, lens_area, sample_uniform_in_lens

__all__ = [
    "ScattererClass",
    "Scenario",
    "RealizationBlock",
    "substream",
    "mean_active_count",
    "sample_block",
    "sample_class_points",
    "sample_positions",
]

KINDS = ("short", "tall")


@dataclass(frozen=True)
class ScattererClass:
    """One scatterer population: visibility radii and spatial intensity.

    ``v1`` is the visibility radius toward the BS, ``v2`` toward the MS
    (meters); ``density`` is the process intensity in scatterers per m^2.
    """

    kind: str
    v1: float
    v2: float
    density: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name, value in (("v1", self.v1), ("v2", self.v2)):
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not math.isfinite(self.density) or self.density < 0.0:
            raise ValueError(f"density must be finite and >= 0, got {self.density!r}")

    def lens(self, d_prime: float) -> LensSpec:
        return LensSpec(d_prime, self.v1, self.v2)


@dataclass(frozen=True)
class Scenario:
    """BS-MS link plus the two scatterer classes.

    BS sits at the origin, MS at ``(d_prime, 0)``.  ``gamma`` is the
    probability that tall scatterers are visible for a given realization.
    """

    d_prime: float
    short: ScattererClass
    tall: ScattererClass
    gamma: float

    def __post_init__(self):
        if not math.isfinite(self.d_prime) or self.d_prime < 0.0:
            raise ValueError(f"d_prime must be finite and >= 0, got {self.d_prime!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma!r}")
        if self.short.kind != "short":
            raise ValueError("scenario.short must have kind 'short'")
        if self.tall.kind != "tall":
            raise ValueError("scenario.tall must have kind 'tall'")

    def scatterer_class(self, kind: str) -> ScattererClass:
        if kind == "short":
            return self.short
        if kind == "tall":
            return self.tall
        raise ValueError(f"unknown class kind {kind!r}")


@dataclass
class RealizationBlock:
    """Vectorized batch of realizations.

    ``gate`` holds the uniforms behind the gate states, sorted, so the
    gate-open realizations ``gate < gamma`` are a prefix of the block;
    ``tall_counts`` holds the tall counts before the gate zeroes them and
    ``n_tall`` after, every count int32.  Each class's positions are laid
    out in realization order, ``counts[j]`` rows for realization ``j``, and
    are ``None`` in a block of counts (:func:`sample_block`).  The simulator's
    cached blocks keep only the gamma-free ``n_short``, ``gate`` and ``tall_counts``.
    """

    n_short: np.ndarray
    n_tall: np.ndarray | None
    short_points: np.ndarray | None
    tall_points: np.ndarray | None
    gate: np.ndarray
    tall_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.gate)


def substream(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-index RNG substream derived from a base seed.

    Serial and parallel runs that partition work by index see identical
    streams.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def mean_active_count(scenario: Scenario, class_kind: str) -> float:
    """Mean number of active scatterers of a class, conditioned on visibility.

    For the tall class this is the gate-open conditional mean; the gate
    probability is not applied here.
    """
    cls = scenario.scatterer_class(class_kind)
    return cls.density * lens_area(cls.lens(scenario.d_prime))


def sample_class_points(
    scenario: Scenario, cls: ScattererClass, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` points drawn uniformly over the lens of ``cls``."""
    if count == 0:
        return np.empty((0, 2))
    return sample_uniform_in_lens(cls.lens(scenario.d_prime), rng, size=count)


# Poisson tables are cached per mean: a run asks for the same few means.  At
# the largest mean a config allows (1e7) a table holds ~76k CDF entries and a
# 2**16-entry int32 guide (~0.83 MiB); at the preset means it is ~9 KiB.
_POISSON_TABLES = 32


@functools.lru_cache(maxsize=_POISSON_TABLES)
def _poisson_table(mu: float) -> tuple[int, np.ndarray, np.ndarray]:
    """First count, float64 CDF and guide table of Poisson(``mu``) over ``mode ± (12 sqrt(mu) + 12)``.

    The table starts at ``max(0, mode - 12 sqrt(mu) - 12)``.  Its log
    probabilities are summed from the ratios ``p(k) / p(k - 1) = mu / k``, so
    it holds for any mean, and its CDF is normalised to end at exactly 1.0.
    The mass it leaves out, beyond 12 standard deviations plus 12, is far
    below 2**-53.

    The guide cuts ``[0, 1)`` into ``m = len(guide)`` equal bins, ``m`` the
    power of two from 16 bins per CDF entry up, at most 2**16 (Chen & Asau,
    *AIIE Trans.* 6(2), 1974).  ``guide[j]`` is
    ``searchsorted(cdf, u, "right")`` for every ``u`` in bin ``j`` when no
    CDF value lies strictly inside the bin, and -1 when one does.  Shared by
    every caller, so read-only.
    """
    if mu == 0.0:
        first, cdf = 0, np.ones(1)
    else:
        mode = math.floor(mu)
        half = math.ceil(12.0 * math.sqrt(mu) + 12.0)
        first = max(0, mode - half)
        steps = np.log(mu / np.arange(first + 1, mode + half + 1))
        log_pmf = np.concatenate(([0.0], np.cumsum(steps)))
        cdf = np.cumsum(np.exp(log_pmf - log_pmf.max()))
        cdf /= cdf[-1]
        cdf[-1] = 1.0
    m = min(1 << (16 * len(cdf) - 1).bit_length(), 2**16)
    edges = np.arange(m + 1) / m
    guide = np.searchsorted(cdf, edges[:-1], side="right").astype(np.int32)
    guide[guide != np.searchsorted(cdf, edges[1:], side="left")] = -1
    cdf.flags.writeable = False
    guide.flags.writeable = False
    return first, cdf, guide


def _poisson_counts(mu: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` int32 Poisson(``mu``) counts, each one uniform inverted through a CDF table.

    Inversion by table lookup is exact up to the table (Devroye,
    *Non-Uniform Random Variate Generation*, 1986, sec. III.2): a count is
    the first ``k`` whose CDF exceeds its uniform.  The uniforms of
    ``rng.random`` are multiples of 2**-53, so probability mass finer than
    that is never drawn.  Always draws exactly ``n`` uniforms, also at
    ``mu = 0``, where every count is 0.

    The guide table answers a uniform ``u`` from its bin ``floor(u m)``;
    only uniforms in the bins it marks -1 are searched in the CDF.  ``m`` is
    a power of two, so ``u m``, its floor and the bin edges ``j / m`` are
    exact, and every count equals ``searchsorted(cdf, u, "right") + first``.
    """
    first, cdf, guide = _poisson_table(float(mu))
    u = rng.random(n)
    counts = guide.take((u * len(guide)).astype(np.intp))
    marked = np.flatnonzero(counts < 0)
    counts[marked] = np.searchsorted(cdf, u[marked], side="right")
    counts += first
    return counts


def sample_block(scenario: Scenario, n: int, rng: np.random.Generator) -> RealizationBlock:
    """Sample the counts and gates of ``n`` independent realizations in one vectorized pass.

    Draw order is fixed (short counts, gate uniforms, tall counts) so a given
    generator state always yields the same block; each count takes one
    uniform (:func:`_poisson_counts`).  The block holds no positions
    (:func:`sample_positions` draws them).  The gate uniforms are sorted, so
    the gate-open realizations are the first ``searchsorted(gate, gamma)``.
    The gate is independent of every other draw, so the block holds ``n``
    independent realizations listed in the order of their gate uniforms.
    """
    n_short = _poisson_counts(mean_active_count(scenario, "short"), n, rng)
    gate = np.sort(rng.random(n))
    # Tall counts are drawn for every realization, whatever its gate, so that
    # the counts and gate uniforms are the same for every gamma: the
    # simulator's gamma-free cache relies on this.
    tall_counts = _poisson_counts(mean_active_count(scenario, "tall"), n, rng)
    n_tall = np.where(gate < scenario.gamma, tall_counts, 0)
    return RealizationBlock(n_short, n_tall, None, None, gate, tall_counts)


def sample_positions(
    scenario: Scenario, block: RealizationBlock, rng: np.random.Generator, part: slice = slice(None)
) -> RealizationBlock:
    """Realizations ``part`` of ``block`` with their positions, drawn from ``rng``.

    Draws the short positions and then the tall ones of the realizations in
    ``part``, a slice with step 1, so their gate uniforms stay sorted.
    """
    arrays = (block.n_short, block.n_tall, block.gate, block.tall_counts)
    n_short, n_tall, gate, tall_counts = (array[part] for array in arrays)
    short_points = sample_class_points(scenario, scenario.short, int(n_short.sum()), rng)
    tall_points = sample_class_points(scenario, scenario.tall, int(n_tall.sum()), rng)
    return RealizationBlock(n_short, n_tall, short_points, tall_points, gate, tall_counts)
