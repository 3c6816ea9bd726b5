"""Exact circle-circle lens geometry.

The overlap ("lens") of a disk of radius ``a`` centered at the origin and a
disk of radius ``b`` centered at ``(d0, 0)`` is the support region for active
scatterers.  This module provides the closed-form overlap area, the
mixed-partial density kernel behind the joint distance law, the marginal
support bounds, uniform rejection sampling inside the lens, and the distances
of points from the two centers.

All lengths are in meters, areas in square meters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelDomainError",
    "EmptyRegionError",
    "LensSpec",
    "lens_area",
    "density_kernel",
    "support_bounds",
    "lens_bounding_box",
    "sample_uniform_in_lens",
    "distances",
]

# Radicands slightly below zero (floating-point cancellation at the branch
# boundaries) are rounded up to zero when within this relative slack.
_RADICAND_SLACK = 1e-9

# Most candidates per round of the lens sampler, small enough that a round's
# arrays stay in cache.
_CHUNK = 16384


class KernelDomainError(ValueError):
    """Kernel evaluated where a square-root radicand is non-positive."""


class EmptyRegionError(ValueError):
    """Operation requires a lens with strictly positive area."""


def _require_positive_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class LensSpec:
    """Two circles: radius ``a`` at the origin, radius ``b`` at ``(d0, 0)``."""

    d0: float
    a: float
    b: float

    def __post_init__(self):
        if not math.isfinite(self.d0) or self.d0 < 0.0:
            raise ValueError(f"d0 must be finite and >= 0, got {self.d0!r}")
        _require_positive_finite(a=self.a, b=self.b)


@functools.lru_cache(maxsize=256)
def lens_area(spec: LensSpec) -> float:
    """Intersection area of the two circles of ``spec``.

    Memoised on the frozen spec: a run asks for the same few lenses many times.
    """
    return float(_lens_area(spec.d0, spec.a, spec.b))


def _lens_area(d0, a, b):
    """Elementwise overlap area of every lens the broadcast arguments describe.

    The area is the sum of two circular segments, ``r^2 (x - sin x) / 2`` for
    radius ``r`` and central angle ``x``; neither is negative, so no ratio
    of the radii makes it a small difference of large terms.  The angles
    come from the factored forms
    ``1 -/+ cos = (product of side sums/differences) / (2 d0 r)`` and
    ``acos(c) = 2 atan2(sqrt(1 - c), sqrt(1 + c))``, accurate arbitrarily
    close to either tangency; the tangency factors subtract ``a`` and ``d0``
    first, which is exact near ``d0 = a``.  Contained disks, where the
    internal-tangency factor is 0, are ``pi b^2``: equal circles less than
    an ulp apart (``atan2(0, 0)``) among them.  Disjoint disks
    (``d0 >= a + b``) are 0, tested before ``d0`` is clamped to ``a + b``: a
    ``b`` below half an ulp of ``a`` would otherwise read as contained.  The
    clamp keeps a far-away ``d0`` from overflowing a factor: with radii up to
    1e75 m every product stays finite.
    """
    # The expression is symmetric in (a, b); canonicalize so the
    # floating-point result is exactly symmetric too.
    a, b = np.maximum(a, b), np.minimum(a, b)
    disjoint = d0 >= a + b
    d0 = np.minimum(d0, a + b)
    f1 = np.maximum((d0 - a) + b, 0.0)  # internal-tangency factor
    f2 = d0 + b + a
    f3 = np.maximum((a - d0) + b, 0.0)  # external-tangency factor
    f4 = a + d0 - b
    # x - sin x of the central angles x of the segments of b and of a; below
    # x = 1, where the difference cancels, by the Taylor series
    # x^3/6 (1 - x^2/20 (1 - x^2/42 (...))), whose terms past x^19 are below 2**-53.
    x = 4.0 * np.arctan2(np.sqrt([f3 * f4, f3 * f1]), np.sqrt([f1 * f2, f4 * f2]))
    seg = x - np.sin(x)
    small = x < 1.0
    x2, series = x[small] ** 2, 1.0
    for k in range(18, 2, -2):
        series = 1.0 - x2 / (k * (k + 1)) * series
    seg[small] = x[small] * x2 / 6.0 * series
    partial = 0.5 * (b * b * seg[0] + a * a * seg[1])
    return np.where(disjoint, 0.0, np.where(f1 == 0.0, math.pi * (b * b), partial))


def _density_kernel(d_prime, x, y):
    """Elementwise mixed second partial of the overlap area with respect to both radii.

    The raw mixed partial is a sum of three inverse-square-root terms whose
    leading singularities cancel; the sum collapses algebraically to
    ``4xy / sqrt(4 d'^2 x^2 - (d'^2 + x^2 - y^2)^2)``, which is what is
    evaluated here (the three-term form loses all precision near the
    boundary, where two ~eps^-1.5 terms cancel down to the true ~eps^-0.5
    growth).  The radicand is evaluated factored,
    ``(x + d' - y)(x + d' + y)(y - x + d')(y + x - d')``, which is exactly 0 on
    the support edges even when ``d' << x``, where the expanded form cancels.
    The kernel is 0 where the radicand is at most ``_RADICAND_SLACK (d' max(x,
    y))^2``, that is outside the triangle ``|x - y| < d' < x + y``.  The
    radicand is 16 times the squared area of the triangle of sides ``d'``,
    ``x`` and ``y``, at most ``4 x^2 y^2``, so inside the kernel is at least 2.
    """
    scale = (d_prime * np.maximum(x, y)) ** 2
    radicand = (x + d_prime - y) * (x + d_prime + y) * (y - x + d_prime) * (y + x - d_prime)
    inside = radicand > _RADICAND_SLACK * scale
    return np.where(inside, 4.0 * x * y / np.sqrt(np.where(inside, radicand, 1.0)), 0.0)


def density_kernel(d_prime: float, x: float, y: float) -> float:
    """The density kernel (:func:`_density_kernel`) at one point.

    Raises:
        KernelDomainError: outside the triangle region, where the kernel is
            0 (callers treat the density as zero there).
    """
    _require_positive_finite(d_prime=d_prime, x=x, y=y)
    value = float(_density_kernel(d_prime, x, y))
    if value == 0.0:
        raise KernelDomainError(
            f"kernel undefined at (d'={d_prime}, x={x}, y={y}): radicand <= 0"
        )
    return value


def support_bounds(spec: LensSpec) -> tuple[float, float, float, float]:
    """Marginal distance bounds ``(a_min, a_max, b_min, b_max)`` of the lens.

    ``a`` refers to the distance from the origin circle's center, ``b`` to the
    distance from the offset circle's center.
    """
    if lens_area(spec) <= 0.0:
        raise EmptyRegionError(f"lens {spec} has zero area")
    d0, a, b = spec.d0, spec.a, spec.b
    return (max(d0 - b, 0.0), min(d0 + b, a), max(d0 - a, 0.0), min(d0 + a, b))


def lens_bounding_box(spec: LensSpec) -> tuple[float, float, float, float]:
    """Axis-aligned box ``(x_lo, x_hi, y_lo, y_hi)`` enclosing the lens."""
    x_lo = max(-spec.a, spec.d0 - spec.b)
    x_hi = min(spec.a, spec.d0 + spec.b)
    y_hi = min(spec.a, spec.b)
    return (x_lo, x_hi, -y_hi, y_hi)


def sample_uniform_in_lens(spec: LensSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``(size, 2)`` points uniformly over the lens by rejection from its bounding box.

    Each round draws ``k = min(_CHUNK, remaining / acceptance + 16)``
    candidates, all ``k`` x values and then all ``k`` y values, keeps those
    inside the lens in order, and repeats until ``size`` points are filled.
    Memory per round is bounded by ``_CHUNK`` whatever the acceptance rate.

    Raises:
        EmptyRegionError: the lens or its bounding box has no positive area,
            as when a radius is below the floating-point resolution of ``d0``.
    """
    n = int(size)
    if n < 0:
        raise ValueError(f"size must be non-negative, got {size!r}")
    area = lens_area(spec)
    x_lo, x_hi, y_lo, y_hi = lens_bounding_box(spec)
    box = (x_hi - x_lo) * (y_hi - y_lo)
    if not (area > 0.0 and box > 0.0):
        raise EmptyRegionError(f"cannot sample from lens {spec}: area {area!r}, box {box!r}")
    accept_rate = area / box
    a2, b2, d0 = spec.a * spec.a, spec.b * spec.b, spec.d0
    low = np.array([[x_lo], [y_lo]])
    span = np.array([[x_hi - x_lo], [y_hi - y_lo]])
    out = np.empty((n, 2))
    # Buffers reused by every round; ``rng.random(out=u); u *= span; u += low``
    # gives the bits of ``rng.uniform`` for the k x values, then the k y values.
    k_max = min(_CHUNK, int(n / accept_rate) + 16)
    uniforms, work = np.empty((2, 2 * k_max))
    filled = 0
    while filled < n:
        k = min(k_max, int((n - filled) / accept_rate) + 16)
        cand = uniforms[: 2 * k].reshape(2, k)
        rng.random(out=cand)
        cand *= span
        cand += low
        cx, cy = cand
        t, yy = work[: 2 * k].reshape(2, k)
        np.multiply(cy, cy, out=yy)
        np.multiply(cx, cx, out=t)
        t += yy
        inside = t <= a2
        np.subtract(cx, d0, out=t)
        t *= t
        t += yy
        inside &= t <= b2
        hits = np.flatnonzero(inside)[: n - filled]
        out[filled : filled + len(hits), 0] = cx.take(hits)
        out[filled : filled + len(hits), 1] = cy.take(hits)
        filled += len(hits)
    return out


def distances(points: np.ndarray, d0: float) -> tuple[np.ndarray, np.ndarray]:
    """Distances of ``(n, 2)`` points from the origin and from ``(d0, 0)``.

    Plain ``sqrt`` of the sums of squares, sharing the ``py * py`` term, in
    place of ``hypot``: the squares overflow only for coordinates beyond
    ~1e154 m, which no lens the area formula resolves reaches.
    """
    px, py = points[:, 0], points[:, 1]
    py2 = py * py
    dx = px - d0
    return np.sqrt(px * px + py2), np.sqrt(dx * dx + py2)
