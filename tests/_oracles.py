"""Independent numerical oracles used across the test suite.

These deliberately avoid the library's closed forms: areas come from Monte
Carlo membership counting, the kernel check from central finite differences,
and integrals from Gauss-Legendre quadrature with an endpoint-taming cosine
substitution.
"""

import functools
import math

import numpy as np

from dvrchan.geometry import EmptyRegionError, _lens_area, lens_area, lens_bounding_box


def mc_lens_area(d0, a, b, n, rng):
    """Monte Carlo intersection area of two circles, by membership counting."""
    x_lo, x_hi = max(-a, d0 - b), min(a, d0 + b)
    y_hi = min(a, b)
    if x_hi <= x_lo:
        return 0.0
    px = rng.uniform(x_lo, x_hi, n)
    py = rng.uniform(-y_hi, y_hi, n)
    inside = (px * px + py * py <= a * a) & ((px - d0) ** 2 + py * py <= b * b)
    return inside.mean() * (x_hi - x_lo) * 2.0 * y_hi


def fd_mixed_partial(d_prime, x, y, h=1e-2):
    """Central finite-difference mixed partial of the partial-overlap area."""
    return (
        _lens_area(d_prime, x + h, y + h)
        - _lens_area(d_prime, x + h, y - h)
        - _lens_area(d_prime, x - h, y + h)
        + _lens_area(d_prime, x - h, y - h)
    ) / (4.0 * h * h)


@functools.lru_cache(maxsize=None)
def _leggauss(n_nodes):
    """Gauss-Legendre nodes and weights, built once per node count."""
    return np.polynomial.legendre.leggauss(n_nodes)


def _cos_nodes(lo, hi, t, w):
    # Clusters nodes at both endpoints; tames inverse-square-root
    # singularities of the kernel at the support boundary.
    u = (t + 1.0) * math.pi / 2.0
    nodes = lo + (hi - lo) * (1.0 - np.cos(u)) / 2.0
    weights = w * (math.pi / 2.0) * (hi - lo) / 2.0 * np.sin(u)
    return nodes, weights


def joint_support(scenario, class_kind):
    cls = scenario.scatterer_class(class_kind)
    d = scenario.d_prime
    x_min = max(d - cls.v2, 0.0)
    x_max = min(d + cls.v2, cls.v1)
    return cls, d, x_min, x_max


def inner_integral(pdf, scenario, class_kind, x, n_nodes=160):
    """Integrate ``pdf(x, y)`` over the admissible y range at fixed x.

    ``pdf`` takes the array of y nodes at once; the weighted values are
    summed in node order.
    """
    cls, d, _, _ = joint_support(scenario, class_kind)
    y_lo = abs(d - x)
    y_hi = min(cls.v2, x + d)
    if y_hi <= y_lo:
        return 0.0
    ys, ws = _cos_nodes(y_lo, y_hi, *_leggauss(n_nodes))
    return float(sum((ws * pdf(x, ys)).tolist()))


def double_integral(pdf, scenario, class_kind, n_inner=160, n_outer=160):
    """Integrate ``pdf(x, y)`` over the full joint support."""
    cls, d, x_min, x_max = joint_support(scenario, class_kind)
    corners = {x_min, x_max}
    for c in (abs(d - cls.v2), d + cls.v2, abs(cls.v2 - d), d, cls.v1, cls.v2 - d):
        if x_min < c < x_max:
            corners.add(c)
    corners = sorted(corners)
    total = 0.0
    for lo, hi in zip(corners[:-1], corners[1:]):
        xs, wxs = _cos_nodes(lo, hi, *_leggauss(n_outer))
        for xv, wx in zip(xs, wxs):
            total += wx * inner_integral(pdf, scenario, class_kind, float(xv), n_inner)
    return total


def grid_cell_probabilities(spec, grid, n, rng):
    """Lens-restricted cell probabilities of a grid over the bounding box."""
    x_lo, x_hi, y_lo, y_hi = lens_bounding_box(spec)
    px = rng.uniform(x_lo, x_hi, n)
    py = rng.uniform(y_lo, y_hi, n)
    inside = (px * px + py * py <= spec.a**2) & ((px - spec.d0) ** 2 + py * py <= spec.b**2)
    counts = np.bincount(grid_cells(spec, grid, px[inside], py[inside]), minlength=grid * grid)
    return counts / counts.sum()


def grid_cells(spec, grid, x, y):
    x_lo, x_hi, y_lo, y_hi = lens_bounding_box(spec)
    ix = np.clip(((x - x_lo) / (x_hi - x_lo) * grid).astype(int), 0, grid - 1)
    iy = np.clip(((y - y_lo) / (y_hi - y_lo) * grid).astype(int), 0, grid - 1)
    return ix * grid + iy


# Most candidates per round of the lens sampler (``geometry._CHUNK``), written
# out here because the round sizes fix every seeded output.
SAMPLER_ROUND = 16384


def loop_sample_uniform_in_lens(spec, rng, size):
    """The lens sampler written with fresh arrays and whole-array masks.

    Each round draws ``k = min(SAMPLER_ROUND, remaining / acceptance + 16)`` x
    values, then ``k`` y values, and keeps the hits in order.  The library's
    sampler must return the same points and leave ``rng`` in the same state.
    """
    area = lens_area(spec)
    if area <= 0.0:
        raise EmptyRegionError(f"cannot sample from zero-area lens {spec}")
    n = int(size)
    if n < 0:
        raise ValueError(f"size must be non-negative, got {size!r}")
    x_lo, x_hi, y_lo, y_hi = lens_bounding_box(spec)
    accept_rate = area / ((x_hi - x_lo) * (y_hi - y_lo))
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        k = min(SAMPLER_ROUND, int((n - filled) / accept_rate) + 16)
        px = rng.uniform(x_lo, x_hi, k)
        py = rng.uniform(y_lo, y_hi, k)
        inside = (px * px + py * py <= spec.a * spec.a) & (
            (px - spec.d0) ** 2 + py * py <= spec.b * spec.b
        )
        hits_x = px[inside]
        hits_y = py[inside]
        take = min(len(hits_x), n - filled)
        out[filled : filled + take, 0] = hits_x[:take]
        out[filled : filled + take, 1] = hits_y[:take]
        filled += take
    return out


def _ray_interval(center_x, disk_x, radius, theta):
    """Range of ``r`` along the ray from ``(center_x, 0)`` at angle ``theta``
    that lies in the disk of ``radius`` about ``(disk_x, 0)``; empty as lo > hi."""
    along = (disk_x - center_x) * np.cos(theta)
    across = (disk_x - center_x) * np.sin(theta)
    half = np.sqrt(np.maximum(radius * radius - across * across, 0.0))
    lo = np.where(radius >= np.abs(across), along - half, np.inf)
    return lo, along + half


def _ray_breakpoints(spec, center_x):
    """Angles seen from ``(center_x, 0)`` where the ray's lens chord has a kink:
    tangents to either circle and the two circle intersection points."""
    points = []
    for disk_x, radius in ((0.0, spec.a), (spec.d0, spec.b)):
        gap = abs(disk_x - center_x)
        if gap > radius:
            tangent = math.asin(radius / gap)
            base = 0.0 if disk_x > center_x else math.pi
            points += [base + tangent, base - tangent]
    if spec.d0 > 0.0:
        x_star = (spec.d0**2 + spec.a**2 - spec.b**2) / (2.0 * spec.d0)
        y_sq = spec.a**2 - x_star**2
        if y_sq > 0.0:
            y_star = math.sqrt(y_sq)
            points += [math.atan2(sign * y_star, x_star - center_x) for sign in (1.0, -1.0)]
    return points


def lens_angle_bin_areas(spec, center_x, edges, n_nodes=32):
    """Area of the lens in each angular bin seen from ``(center_x, 0)``.

    Bin ``i`` spans angles ``edges[i]..edges[i+1]`` (``edges`` increasing and
    spanning 2*pi).  Along each ray the lens holds ``r_lo <= r <= r_hi``, so a
    bin's area is the integral of ``(r_hi^2 - r_lo^2) / 2`` over its angles,
    taken by Gauss-Legendre on panels split at every kink of the integrand,
    with the endpoint-clustering substitution of :func:`_cos_nodes`.
    """
    edges = np.asarray(edges, dtype=float)
    period = edges[-1] - edges[0]
    kinks = [edges[0] + (p - edges[0]) % period for p in _ray_breakpoints(spec, center_x)]
    t, w = _leggauss(n_nodes)
    areas = np.zeros(len(edges) - 1)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        cuts = sorted({lo, hi, *(k for k in kinks if lo < k < hi)})
        for p_lo, p_hi in zip(cuts[:-1], cuts[1:]):
            theta, weights = _cos_nodes(p_lo, p_hi, t, w)
            lo_a, hi_a = _ray_interval(center_x, 0.0, spec.a, theta)
            lo_b, hi_b = _ray_interval(center_x, spec.d0, spec.b, theta)
            r_lo = np.maximum(np.maximum(lo_a, lo_b), 0.0)
            r_hi = np.minimum(hi_a, hi_b)
            chord = np.where(r_hi > r_lo, (r_hi * r_hi - r_lo * r_lo) / 2.0, 0.0)
            areas[i] += float(np.dot(weights, chord))
    return areas


def angle_bin_probabilities(scenario, gamma, from_ms, edges):
    """Per-bin probability of one active scatterer's departure angle (seen
    from the BS) or, with ``from_ms``, arrival angle (seen from the MS).

    The short and tall lenses are mixed by their mean active counts,
    ``mu_s : gamma * mu_t``; each bin's lens area comes from
    :func:`lens_angle_bin_areas`.
    """
    d = scenario.d_prime
    mix = np.zeros(len(edges) - 1)
    for cls, weight in ((scenario.short, 1.0), (scenario.tall, gamma)):
        mix += weight * cls.density * lens_angle_bin_areas(cls.lens(d), d if from_ms else 0.0, edges)
    return mix / mix.sum()
