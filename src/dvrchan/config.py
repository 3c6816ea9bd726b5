"""Run configuration: validation against the preset's keys, unit normalization.

Configs carry lengths in km or m (explicit ``length_unit``) and densities as
mantissa/exponent pairs in scatterers per square meter, so published
parameter tables can be transcribed verbatim.  Everything is normalized to
SI at load time.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .analytics import MODES, SPEED_OF_LIGHT, InteractionModel
from .pointprocess import Scenario, ScattererClass

__all__ = ["ConfigError", "RunConfig", "GTU_PRESET", "load_config", "config_hash"]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


# Generalized-typical-urban calibration preset.
GTU_PRESET = {
    "scenario": {
        "length_unit": "km",
        "d_prime": 0.2,
        "gamma": 0.22,
        "short": {"v1": 0.5, "v2": 0.3, "density": 7.07, "density_exponent": -5},
        "tall": {"v1": 4.1, "v2": 4.0, "density": 4.2, "density_exponent": -7},
    },
    "interaction": {
        "modes": ["reflection", "scattering"],
        "transmit_power_w": 10.0,
        "frequency_ghz": 2.0,
        "reflection": {"coeff_mean": -1.17, "coeff_var": 0.4},
        "scattering": {"coeff_mean": 4.0, "coeff_var": 2.0},
    },
    "sweep": {
        "toa_d_prime": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        "toa_gamma": [0.0, 0.22, 0.5, 1.0],
        "power_d_prime": [0.2, 0.4, 0.6, 0.8, 1.0],
    },
    "realizations": {"pmf": 100000, "toa": 100000, "power": 10000, "angles": 40000},
    "seed": 20260824,
}

# Largest mean number of scatterers of one class per realization that a
# config may ask for: far above any published density, and small enough that
# the Poisson sampler's CDF and guide tables (pointprocess._poisson_table)
# stay under ~1.2 MiB.
MAX_MEAN_SCATTERERS = 1e7

# Largest visibility radius, in meters, a config may ask for: the lens area
# formula (geometry._lens_area) stays finite for radii up to this bound at
# every d', and squaring it cannot overflow.
MAX_RADIUS_M = 1e75

# Largest realization count a config or ``--realizations`` may ask for: a
# thousand times the preset's largest.
MAX_REALIZATIONS = 10**8


def _over_preset(data: dict, preset: dict, path: str = "") -> dict:
    """``data`` laid field by field over ``preset``, so every preset field is present.

    Walks ``data`` depth first in file order and rejects the first key the
    preset lacks, or a non-object where the preset has an object.
    """
    merged = dict(preset)
    for key, value in data.items():
        here = f"{path}.{key}" if path else key
        if key not in preset:
            raise ConfigError(here, "unknown configuration key")
        if isinstance(preset[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(here, "expected an object")
            value = _over_preset(value, preset[key], here)
        merged[key] = value
    return merged


def _number(data: dict, path: str, key: str, minimum=None, maximum=None, scale=1.0) -> float:
    """``data[key]`` times ``scale`` (a unit factor); bounds apply before scaling."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value * scale):
        raise ConfigError(f"{path}.{key}", f"must be finite in SI units, got {value * scale}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}.{key}", f"must be <= {maximum}, got {value}")
    return value * scale


def _integer(value, field: str, minimum: int, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(field, f"must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(field, f"must be <= {maximum}, got {value!r}")
    return value


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunConfig:
    """Fully validated, SI-normalized run configuration."""

    raw: dict
    d_prime: float
    gamma: float
    short: ScattererClass
    tall: ScattererClass
    interactions: dict
    toa_d_prime: tuple
    toa_gamma: tuple
    power_d_prime: tuple
    realizations: dict
    seed: int

    def scenario(self, d_prime=None, gamma=None, seed=None) -> Scenario:
        return Scenario(
            d_prime=self.d_prime if d_prime is None else d_prime,
            short=self.short,
            tall=self.tall,
            gamma=self.gamma if gamma is None else gamma,
            seed=self.seed if seed is None else seed,
        )

    @property
    def hash(self) -> str:
        return config_hash(self.raw)


def _list(sweep: dict, key: str, maximum=None, scale=1.0) -> tuple:
    """``sweep[key]``, a non-empty list of numbers >= 0, as a tuple times ``scale``."""
    values = sweep[key]
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep.{key}", "must be a non-empty list")
    return tuple(
        _number({"v": v}, f"sweep.{key}", "v", minimum=0.0, maximum=maximum, scale=scale)
        for v in values
    )


def _load_class(kind: str, data: dict, path: str, unit: float) -> ScattererClass:
    v1 = _number(data, path, "v1", scale=unit)
    v2 = _number(data, path, "v2", scale=unit)
    mantissa = _number(data, path, "density", minimum=0.0)
    exponent = _number(data, path, "density_exponent")
    for name, radius in (("v1", v1), ("v2", v2)):
        if not 0.0 < radius <= MAX_RADIUS_M:
            most = f"{MAX_RADIUS_M:.0e} m"
            raise ConfigError(f"{path}.{name}", f"must be > 0 and <= {most}, got {radius:.6g} m")
    try:
        density = mantissa * 10.0**exponent
    except OverflowError:
        density = math.inf
    if not math.isfinite(density):
        raise ConfigError(f"{path}.density_exponent", f"{mantissa} * 10^{exponent} overflows")
    # pi * min(v1, v2)^2 bounds the class's lens area at every d'.
    most = density * math.pi * min(v1, v2) ** 2
    if most > MAX_MEAN_SCATTERERS:
        raise ConfigError(
            f"{path}.density",
            f"up to {most:.3g} scatterers per realization; the limit is {MAX_MEAN_SCATTERERS:.0e}",
        )
    return ScattererClass(kind=kind, v1=v1, v2=v2, density=density)


def load_config(path: str | Path | None = None) -> RunConfig:
    """Load and validate a JSON config; ``None`` yields the GTU preset.

    File values override the preset field by field, so partial configs are
    allowed; unknown keys are rejected.
    """
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(str(path), f"cannot read config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(str(path), "top-level config must be an object")
    raw = _over_preset(raw, GTU_PRESET)

    scen = raw["scenario"]
    unit_name = scen.get("length_unit")
    if unit_name not in ("km", "m"):
        raise ConfigError("scenario.length_unit", f"must be 'km' or 'm', got {unit_name!r}")
    unit = 1000.0 if unit_name == "km" else 1.0
    d_prime = _number(scen, "scenario", "d_prime", minimum=0.0, scale=unit)
    gamma = _number(scen, "scenario", "gamma", minimum=0.0, maximum=1.0)
    short = _load_class("short", scen["short"], "scenario.short", unit)
    tall = _load_class("tall", scen["tall"], "scenario.tall", unit)

    inter = raw["interaction"]
    power_w = _number(inter, "interaction", "transmit_power_w", minimum=1e-12)
    freq_hz = _number(inter, "interaction", "frequency_ghz", minimum=1e-12, scale=1e9)
    wavelength = SPEED_OF_LIGHT / freq_hz
    modes = inter["modes"]
    if not isinstance(modes, list) or not modes:
        raise ConfigError("interaction.modes", "must be a non-empty list")
    interactions = {}
    for mode in modes:
        if mode not in MODES:
            raise ConfigError("interaction.modes", f"unknown mode {mode!r}")
        coeff = inter[mode]
        interactions[mode] = InteractionModel(
            mode=mode,
            transmit_power=power_w,
            wavelength=wavelength,
            coeff_mean=_number(coeff, f"interaction.{mode}", "coeff_mean"),
            coeff_var=_number(coeff, f"interaction.{mode}", "coeff_var", minimum=0.0),
        )

    sweep = raw["sweep"]
    toa_gamma = _list(sweep, "toa_gamma", maximum=1.0)
    reals = raw["realizations"]
    realizations = {
        key: _integer(reals[key], f"realizations.{key}", 1, MAX_REALIZATIONS) for key in reals
    }
    seed = _integer(raw["seed"], "seed", minimum=0)

    return RunConfig(
        raw=raw,
        d_prime=d_prime,
        gamma=gamma,
        short=short,
        tall=tall,
        interactions=interactions,
        toa_d_prime=_list(sweep, "toa_d_prime", scale=unit),
        toa_gamma=toa_gamma,
        power_d_prime=_list(sweep, "power_d_prime", scale=unit),
        realizations=realizations,
        seed=seed,
    )
