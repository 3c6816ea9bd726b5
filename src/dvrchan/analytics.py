"""Closed-form channel statistics for the dual-visibility-region model.

Covers the multipath-count PMF (a two-component Poisson mixture driven by the
tall-scatterer gate), the marginal distance laws of an active scatterer, the
mean time of arrival, the joint distance density, and the mean received power
through single-bounce NLoS paths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    LensSpec,
    _density_kernel,
    _lens_area,
    distances,
    lens_area,
    sample_uniform_in_lens,
    support_bounds,
)
from .pointprocess import Scenario, mean_active_count

__all__ = [
    "SPEED_OF_LIGHT",
    "DegenerateScenarioError",
    "NoPathError",
    "InteractionModel",
    "MomentTerms",
    "mpc_pmf",
    "mpc_mean",
    "distance_cdf_bs",
    "distance_cdf_ms",
    "mean_distance_bs",
    "mean_distance_ms",
    "mean_toa",
    "joint_pdf",
    "moment_terms",
    "mean_received_power",
]

SPEED_OF_LIGHT = 299792458.0

# Fixed 32-node Gauss-Legendre rule for the survival-function integrals: on a
# panel [t0, t0 + L] the nodes sit at t0 + L (1 - cos phi) / 2, which smooths
# the (t - t0)^(3/2) tangency behaviour at both ends; weights include dt/dphi.
_phi, _w = np.polynomial.legendre.leggauss(32)
_phi = 0.5 * math.pi * (_phi + 1.0)
_GL_NODES = 0.5 - 0.5 * np.cos(_phi)
_GL_WEIGHTS = 0.25 * math.pi * _w * np.sin(_phi)

MODES = ("reflection", "scattering")


class DegenerateScenarioError(ValueError):
    """A required scatterer class has an empty visibility lens."""


class NoPathError(DegenerateScenarioError):
    """The scenario admits no multipath component at all."""


@dataclass(frozen=True)
class InteractionModel:
    """Electromagnetic profile of the bounce: reflection or scattering.

    The mode fixes the phase argument ``g1``, the amplitude divisor ``g2``
    and the transmission constant ``k0``; the per-bounce coefficient is
    Normal(``coeff_mean``, ``coeff_var``).
    """

    mode: str
    transmit_power: float
    wavelength: float
    coeff_mean: float
    coeff_var: float

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (math.isfinite(self.transmit_power) and self.transmit_power > 0.0):
            raise ValueError(f"transmit_power must be > 0, got {self.transmit_power!r}")
        if not (math.isfinite(self.wavelength) and self.wavelength > 0.0):
            raise ValueError(f"wavelength must be > 0, got {self.wavelength!r}")
        if not (math.isfinite(self.coeff_var) and self.coeff_var >= 0.0):
            raise ValueError(f"coeff_var must be >= 0, got {self.coeff_var!r}")

    @property
    def k0(self) -> float:
        if self.mode == "scattering":
            return self.transmit_power * self.wavelength**2 / (4.0 * math.pi) ** 3
        return self.transmit_power * (self.wavelength / (4.0 * math.pi)) ** 2

    def g1(self, x, y):
        return x + y

    def g2(self, x, y):
        if self.mode == "scattering":
            return x * y
        return x + y

    def phase(self, x, y):
        return 2.0 * math.pi * self.g1(x, y) / self.wavelength

    def phasor(self, x, y, r):
        """In-phase and quadrature parts of ``r / g2 * exp(i * phase)``."""
        theta = self.phase(x, y)
        amp = r / self.g2(x, y)
        return amp * np.cos(theta), amp * np.sin(theta)


@dataclass(frozen=True)
class MomentTerms:
    """Monte Carlo estimates of the in-phase/quadrature bounce moments.

    ``h``/``h_prime`` are the means of the cosine and sine terms,
    ``g``/``g_prime`` their variances; ``se_*`` are the matching standard
    errors.
    """

    h: float
    g: float
    h_prime: float
    g_prime: float
    se_h: float
    se_g: float
    se_h_prime: float
    se_g_prime: float


def _mus(scenario: Scenario) -> tuple[float, float]:
    return (
        mean_active_count(scenario, "short"),
        mean_active_count(scenario, "tall"),
    )


def mpc_pmf(n, scenario: Scenario):
    """PMF of the number of multipath components.

    Mixture of Poisson(mu_s + mu_t) with weight gamma and Poisson(mu_s) with
    weight 1 - gamma.  Accepts scalar or array ``n``.
    """
    from scipy import stats

    mu_s, mu_t = _mus(scenario)
    g = scenario.gamma
    return g * stats.poisson.pmf(n, mu_s + mu_t) + (1.0 - g) * stats.poisson.pmf(n, mu_s)


def mpc_mean(scenario: Scenario) -> float:
    """Mean number of multipath components: mu_s + gamma * mu_t."""
    mu_s, mu_t = _mus(scenario)
    return mu_s + scenario.gamma * mu_t


def _class_lens(scenario: Scenario, class_kind: str) -> LensSpec:
    return scenario.scatterer_class(class_kind).lens(scenario.d_prime)


def _full_area(scenario: Scenario, class_kind: str) -> float:
    area = lens_area(_class_lens(scenario, class_kind))
    if area <= 0.0:
        raise DegenerateScenarioError(
            f"{class_kind} class has an empty visibility lens at d'={scenario.d_prime}"
        )
    return area


def _axis_support(scenario: Scenario, class_kind: str, axis: int):
    # axis 0: distance from the BS (radius v1), 1: from the MS (radius v2).
    # Returns its support bounds and the radius of the other end's circle.
    lens = _class_lens(scenario, class_kind)
    lower, upper = support_bounds(lens)[2 * axis : 2 * axis + 2]
    return lower, upper, (lens.b, lens.a)[axis]


def _distance_cdf(t, scenario: Scenario, class_kind: str, axis: int):
    # The CDF at t is the share of the lens within distance t of that end.
    area = _full_area(scenario, class_kind)
    lower, upper, other_radius = _axis_support(scenario, class_kind, axis)
    t = np.asarray(t, dtype=float)
    # Clipped so that no t outside the support (a negative one, say) reaches the formula.
    inner =_lens_area(scenario.d_prime, np.clip(t, lower, upper), other_radius) / area
    cdf = np.where(t <= lower, 0.0, np.where(t >= upper, 1.0, inner))
    return float(cdf) if cdf.ndim == 0 else cdf


def distance_cdf_bs(x, scenario: Scenario, class_kind: str):
    """CDF of the BS-to-scatterer distance for an active scatterer.

    Accepts scalar or array ``x``; a scalar returns a float.
    """
    return _distance_cdf(x, scenario, class_kind, 0)


def distance_cdf_ms(y, scenario: Scenario, class_kind: str):
    """CDF of the MS-to-scatterer distance for an active scatterer.

    Accepts scalar or array ``y``; a scalar returns a float.
    """
    return _distance_cdf(y, scenario, class_kind, 1)


def _mean_from_cdf(cdf, scenario, kind, axis) -> float:
    # Panels split at the support bounds and at the internal-tangency radius.
    lower, upper, other_radius = _axis_support(scenario, kind, axis)
    kink = abs(scenario.d_prime - other_radius)
    edges = [lower, kink, upper] if lower < kink < upper else [lower, upper]
    total = lower  # the survival function is 1 below the support
    for t0, t1 in zip(edges, edges[1:]):
        span = t1 - t0
        survival = 1.0 - cdf(t0 + span * _GL_NODES, scenario, kind)
        # Summed in node order, one float at a time: the means keep their bits.
        total += span * sum((_GL_WEIGHTS * survival).tolist())
    return total


def mean_distance_bs(scenario: Scenario, class_kind: str) -> float:
    """Mean BS-to-scatterer distance, as the integral of the survival function."""
    return _mean_from_cdf(distance_cdf_bs, scenario, class_kind, 0)


def mean_distance_ms(scenario: Scenario, class_kind: str) -> float:
    """Mean MS-to-scatterer distance, as the integral of the survival function."""
    return _mean_from_cdf(distance_cdf_ms, scenario, class_kind, 1)


@functools.lru_cache(maxsize=256)
def _cached_path_length(scenario: Scenario, class_kind: str) -> float:
    return mean_distance_bs(scenario, class_kind) + mean_distance_ms(scenario, class_kind)


def mean_toa(scenario: Scenario) -> float:
    """Mean time of arrival of a single multipath component, in seconds.

    Semantics: expected path length of one component chosen uniformly among
    the active scatterers, mixing the gate-open branch (class weights
    mu_k / (mu_s + mu_t)) with weight gamma and the gate-closed short-only
    branch with weight 1 - gamma.
    """
    mu_s, mu_t = _mus(scenario)
    gamma = scenario.gamma
    if gamma < 1.0 and mu_s <= 0.0:
        raise NoPathError("gate-closed branch has no short-scatterer paths")
    if gamma > 0.0 and mu_s + mu_t <= 0.0:
        raise NoPathError("gate-open branch has no paths")
    # Path lengths are free of gamma, so a sweep computes each once per d'.
    scenario0 = replace(scenario, gamma=0.0)
    tau_s = _cached_path_length(scenario0, "short") if mu_s > 0.0 else 0.0
    tau_t = _cached_path_length(scenario0, "tall") if mu_t > 0.0 else 0.0
    expected = 0.0
    if gamma > 0.0:
        expected += gamma * (mu_s * tau_s + mu_t * tau_t) / (mu_s + mu_t)
    if gamma < 1.0:
        expected += (1.0 - gamma) * tau_s
    return expected / SPEED_OF_LIGHT


def joint_pdf(x, y, scenario: Scenario, class_kind: str):
    """Joint density of the BS and MS distances of an active scatterer.

    Zero outside the support ``0 < x < v1``, ``0 < y < v2`` and outside the
    triangle ``|x - y| < d' < x + y``, where the kernel is 0.  Accepts
    scalar or array ``x`` and ``y``, broadcast together; scalars return a
    float.

    Raises:
        DegenerateScenarioError: at ``d' = 0``, where the BS and MS coincide,
            every scatterer has ``x = y`` and the joint law has no density.
    """
    if scenario.d_prime == 0.0:
        raise DegenerateScenarioError(
            "at d'=0 the joint distance law has no density: its mass lies on x = y"
        )
    cls = scenario.scatterer_class(class_kind)
    area = _full_area(scenario, class_kind)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    box = (0.0 < x) & (x < cls.v1) & (0.0 < y) & (y < cls.v2)
    pdf = np.zeros(x.shape)
    pdf[box] = _density_kernel(scenario.d_prime, x[box], y[box]) / area
    return float(pdf) if pdf.ndim == 0 else pdf


def _phasors(scenario, class_kind, interaction, n_mc, rng):
    """``n_mc`` bounce phasors of one class, as in-phase and quadrature arrays.

    Draws the scatterer positions from the exact joint distance law (uniform
    over the class lens) first, then independent normal coefficients.
    """
    if n_mc < 10_000:
        raise ValueError(f"n_mc must be >= 10000 for stable moments, got {n_mc}")
    lens = _class_lens(scenario, class_kind)
    if lens_area(lens) <= 0.0:
        raise DegenerateScenarioError(f"{class_kind} class lens is empty")
    points = sample_uniform_in_lens(lens, rng, size=n_mc)
    x, y = distances(points, scenario.d_prime)
    r = rng.normal(interaction.coeff_mean, math.sqrt(interaction.coeff_var), n_mc)
    return interaction.phasor(x, y, r)


def moment_terms(
    scenario: Scenario,
    class_kind: str,
    interaction: InteractionModel,
    n_mc: int,
    rng=None,
) -> MomentTerms:
    """Estimate the bounce moments for one class from ``n_mc`` Monte Carlo phasors."""
    results = []
    for sample in _phasors(scenario, class_kind, interaction, n_mc, np.random.default_rng(rng)):
        mean = float(sample.mean())
        centered = sample - mean
        m2 = float(np.mean(centered**2))
        m4 = float(np.mean(centered**4))
        var = float(sample.var(ddof=1))
        se_mean = math.sqrt(var / n_mc)
        se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / n_mc)
        results.append((mean, var, se_mean, se_var))
    (h, g, se_h, se_g), (hp, gp, se_hp, se_gp) = results
    return MomentTerms(h, g, hp, gp, se_h, se_g, se_hp, se_gp)


def mean_received_power(
    scenario: Scenario,
    interaction: InteractionModel,
    n_mc: int,
    rng=None,
) -> tuple[float, float]:
    """Mean NLoS received power in watts, with delta-method standard error.

    Campbell's formula for the second moment of the gated Poisson sum of
    bounce phasors ``z``; each class's ``E[z]`` and ``E|z|^2`` come from
    ``n_mc`` Monte Carlo phasors, and a class with an empty lens adds nothing.
    """
    rng = np.random.default_rng(rng)
    mu_s, mu_t = _mus(scenario)
    if mu_s <= 0.0 and mu_t <= 0.0:
        raise DegenerateScenarioError("both scatterer classes are degenerate")
    gamma = scenario.gamma
    # Per class: mu_k, the weight w_k of E|z_k|^2 (the tall class is present
    # with probability gamma), its share in the gate-closed sum, and phasors.
    classes = [
        (mu, weight, closed, _phasors(scenario, kind, interaction, n_mc, rng))
        for kind, mu, weight, closed in (("short", mu_s, 1.0, 1.0), ("tall", mu_t, gamma, 0.0))
        if mu > 0.0
    ]
    means = [mu * complex(c.mean(), s.mean()) for mu, _, _, (c, s) in classes]
    m_open = sum(means)
    m_closed = sum(closed * m for m, (_, _, closed, _) in zip(means, classes))
    value = gamma * abs(m_open) ** 2 + (1.0 - gamma) * abs(m_closed) ** 2
    # Each sample's influence on the value; G_k = dV/dE[z_k] / (2 mu_k).  The
    # classes are drawn independently, so their variances add.
    variance = 0.0
    for mu, weight, closed, (c, s) in classes:
        grad = gamma * m_open + (1.0 - gamma) * closed * m_closed
        energy = c * c + s * s
        value += mu * weight * float(energy.mean())
        influence = mu * (weight * energy + 2.0 * (grad.real * c + grad.imag * s))
        variance += float(influence.var(ddof=1)) / n_mc
    return interaction.k0 * value, interaction.k0 * math.sqrt(variance)
