"""Dual-visibility-region geometry-based stochastic channel model.

Closed-form multipath statistics (component-count PMF, distance laws, mean
time of arrival, mean NLoS received power) for a two-class Cox scatterer
process with disk visibility regions, plus a Monte Carlo simulator that
cross-validates every formula.
"""

from .analytics import (
    SPEED_OF_LIGHT,
    DegenerateScenarioError,
    InteractionModel,
    MomentTerms,
    NoPathError,
    distance_cdf_bs,
    distance_cdf_ms,
    joint_pdf,
    mean_distance_bs,
    mean_distance_ms,
    mean_received_power,
    mean_toa,
    moment_terms,
    mpc_mean,
    mpc_pmf,
)
from .geometry import (
    EmptyRegionError,
    KernelDomainError,
    LensSpec,
    density_kernel,
    lens_area,
    sample_uniform_in_lens,
    support_bounds,
)
from .pointprocess import (
    Scenario,
    ScattererClass,
    mean_active_count,
    substream,
)
from .simulator import RunSummary, run_experiment

__version__ = "0.1.0"
