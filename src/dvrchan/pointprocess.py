"""Doubly stochastic scatterer process sampling.

Short scatterers form a homogeneous Poisson process restricted to their
visibility-region lens.  Tall scatterers form a Poisson process in their own
lens, gated by a Bernoulli state drawn once per realization, which makes the
combined process a Cox process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import LensSpec, lens_area, sample_uniform_in_lens

__all__ = [
    "ScattererClass",
    "Scenario",
    "Realization",
    "RealizationBlock",
    "substream",
    "mean_active_count",
    "sample_realization",
    "sample_block",
    "sample_class_points",
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
    seed: int = 0

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
class Realization:
    """One draw of the process: gate state and active scatterer positions."""

    u: int
    short_points: np.ndarray
    tall_points: np.ndarray


@dataclass
class RealizationBlock:
    """Vectorized batch of realizations.

    Each class's positions are laid out in realization order, ``counts[j]``
    rows for realization ``j``; both are ``None`` in a block sampled without
    positions.  ``gate`` holds the uniforms behind the gate states
    (``u = gate < gamma``) and ``tall_counts`` the tall counts before the gate
    zeroes them.
    """

    u: np.ndarray
    n_short: np.ndarray
    n_tall: np.ndarray
    short_points: np.ndarray | None
    tall_points: np.ndarray | None
    gate: np.ndarray
    tall_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.u)


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


def sample_block(
    scenario: Scenario, n: int, rng: np.random.Generator, positions: bool = True
) -> RealizationBlock:
    """Sample ``n`` independent realizations in one vectorized pass.

    Draw order is fixed (short counts, gate uniforms, tall counts, short
    positions, tall positions) so a given generator state always yields the
    same block.  Without ``positions`` it stops after the tall counts.
    """
    mu_s = mean_active_count(scenario, "short")
    mu_t = mean_active_count(scenario, "tall")
    n_short = rng.poisson(mu_s, n)
    gate = rng.random(n)
    # Tall counts are drawn for every realization, whatever its gate, so that
    # the counts and gate uniforms are the same for every gamma: the
    # simulator's gamma-free cache relies on this.
    tall_counts = rng.poisson(mu_t, n)
    u = gate < scenario.gamma
    n_tall = np.where(u, tall_counts, 0)
    short_points = tall_points = None
    if positions:
        short_points = sample_class_points(scenario, scenario.short, int(n_short.sum()), rng)
        tall_points = sample_class_points(scenario, scenario.tall, int(n_tall.sum()), rng)
    return RealizationBlock(u, n_short, n_tall, short_points, tall_points, gate, tall_counts)


def sample_realization(scenario: Scenario, rng: np.random.Generator) -> Realization:
    """Sample a single realization of the scatterer process."""
    block = sample_block(scenario, 1, rng)
    return Realization(int(block.u[0]), block.short_points, block.tall_points)
