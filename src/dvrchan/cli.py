"""Command-line front end.

Subcommands run the closed-form and Monte Carlo pipelines and emit CSV files
with a ``#``-prefixed metadata block (config hash, seed, version) followed by
a header row.  Outputs are byte-identical for identical config and seed,
regardless of worker count.

Exit codes: 0 success, 1 validation/runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import analytics
from .analytics import (
    DegenerateScenarioError,
    NoPathError,
    mean_received_power,
    mean_toa,
    mpc_mean,
    mpc_pmf,
)
from .config import MAX_REALIZATIONS, ConfigError, RunConfig, load_config
from .geometry import EmptyRegionError, _lens_area, distances, sample_uniform_in_lens
from .geometry import lens_area  # noqa: F401 (perfbench/tracing.py patches cli.lens_area)
from .pointprocess import mean_active_count, substream
from .simulator import ANGLE_BIN_EDGES, run_experiment

__all__ = ["main"]

# Most threads ``--workers`` may ask the block pool for: well above the cores
# a run can use, far below what would exhaust the host's threads.
MAX_WORKERS = 64


def _fmt(value) -> str:
    return format(value, ".12g") if isinstance(value, float) else str(value)


def _write_csv(path: str, cfg: RunConfig, seed: int, command: str, header, rows):
    lines = [
        f"# config_hash={cfg.hash}",
        f"# seed={seed}",
        f"# version={__version__}",
        f"# command={command}",
        ",".join(header),
    ]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _pmf_support(scenario) -> np.ndarray:
    """The counts ``pmf`` writes, increasing: 0, 1 and every count within
    10 standard deviations of the mean of either Poisson component."""
    mu_s = mean_active_count(scenario, "short")
    windows = [np.arange(2)]
    for m in (mu_s, mu_s + mean_active_count(scenario, "tall")):
        lo = max(0, math.floor(m - 10.0 * math.sqrt(m)))
        windows.append(np.arange(lo, math.ceil(m + 10.0 * math.sqrt(m)) + 1))
    return np.unique(np.concatenate(windows))


def cmd_pmf(cfg: RunConfig, seed: int, n: int, workers: int) -> tuple[tuple, list]:
    scenario = cfg.scenario()
    interaction = next(iter(cfg.interactions.values()))
    summary = run_experiment(scenario, interaction, n, seed, workers, statistics=set())
    support = _pmf_support(scenario)
    analytic = mpc_pmf(support, scenario)
    hist = summary.empirical_pmf
    observed = support < len(hist)
    empirical = np.zeros(len(support))
    empirical[observed] = hist[support[observed]]
    stderr = np.sqrt(empirical * (1.0 - empirical) / n)
    rows = [
        (int(k), float(p), float(e), float(se))
        for k, p, e, se in zip(support, analytic, empirical, stderr)
    ]
    return ("n", "analytic_pmf", "empirical_pmf", "stderr"), rows


def cmd_toa_sweep(cfg: RunConfig, seed: int, n: int, workers: int) -> tuple[tuple, list]:
    interaction = next(iter(cfg.interactions.values()))
    rows = []
    for d_prime in cfg.toa_d_prime:
        for gamma in cfg.toa_gamma:
            scenario = cfg.scenario(d_prime=d_prime, gamma=gamma)
            try:
                analytic_us = mean_toa(scenario) * 1e6
            except NoPathError:
                # No-path grid point: neither estimator is defined.
                rows.append((d_prime, gamma, math.nan, math.nan, math.nan))
                continue
            summary = run_experiment(scenario, interaction, n, seed, workers, statistics={"toa"})
            # A branch the estimate weights needs two samples for its stderr.
            for branch, weight, tau in (
                ("gate-open", gamma, summary.tau_open),
                ("gate-closed", 1.0 - gamma, summary.tau_closed),
            ):
                if weight > 0.0 and tau.count < 2:
                    raise DegenerateScenarioError(
                        f"toa-sweep at d' = {d_prime:g} m, gamma = {gamma:g}: the {branch} branch"
                        f" drew {tau.count} of the 2 path samples its estimate needs"
                        f" in {n} realizations"
                    )
            rows.append(
                (
                    d_prime,
                    gamma,
                    analytic_us,
                    summary.toa_mean * 1e6,
                    summary.toa_stderr * 1e6,
                )
            )
    header = ("d_prime_m", "gamma", "analytic_mean_toa_us", "empirical_mean_toa_us", "stderr_us")
    return header, rows


def _mean_powers(scenario, interaction, seed: int, n: int, workers: int):
    """Closed-form and simulated mean power in W, each followed by its stderr.

    The closed form draws its phasors from ``substream(seed,
    MAX_REALIZATIONS)``: a run has at most ``MAX_REALIZATIONS`` blocks,
    numbered from 0, so no block of the simulation draws from it.  Raises
    ``OverflowError`` unless every value is finite but a stderr of fewer
    than two samples.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        theory, theory_se = mean_received_power(
            scenario, interaction, n_mc=max(10 * n, 10_000), rng=substream(seed, MAX_REALIZATIONS)
        )
    summary = run_experiment(scenario, interaction, n, seed, workers, statistics={"power"})
    powers = theory, theory_se, summary.power.mean, summary.power.stderr
    if not all(map(math.isfinite, powers[: 3 if n < 2 else 4])):
        raise OverflowError(f"mean power of {interaction.mode} at d' = {scenario.d_prime:g} m")
    return powers


def cmd_power(cfg: RunConfig, seed: int, n: int, workers: int) -> tuple[tuple, list]:
    rows = []
    for d_prime in cfg.power_d_prime:
        scenario = cfg.scenario(d_prime=d_prime)
        for mode, interaction in cfg.interactions.items():
            rows.append((d_prime, mode, *_mean_powers(scenario, interaction, seed, n, workers)))
    header = (
        "d_prime_m",
        "mode",
        "closed_form_mean_w",
        "closed_form_stderr_w",
        "simulated_mean_w",
        "simulated_stderr_w",
    )
    return header, rows


def cmd_angles(cfg: RunConfig, seed: int, n: int, workers: int) -> tuple[tuple, list]:
    scenario = cfg.scenario()
    interaction = next(iter(cfg.interactions.values()))
    summary = run_experiment(scenario, interaction, n, seed, workers, statistics={"angles"})
    if summary.aod_histogram.sum() == 0:
        raise DegenerateScenarioError(
            f"angles drew 0 multipath components in {n} realizations; its densities need at least 1"
        )
    centers = 0.5 * (ANGLE_BIN_EDGES[:-1] + ANGLE_BIN_EDGES[1:])
    rows = [
        (float(c), float(a), float(b))
        for c, a, b in zip(centers, summary.aod_density, summary.aoa_density)
    ]
    return ("bin_center_rad", "aod_density", "aoa_density"), rows


def _check_geometry_continuity(rng) -> tuple[bool, str]:
    # 200 radius pairs, each area taken just past both tangencies: contained
    # (d0 = |a - b|, where |a - b| exceeds the step) and disjoint (d0 = a + b).
    a, b = rng.uniform(0.5, 500.0, (200, 2)).T
    eps = 1e-9 * np.maximum(a, b)
    contained = math.pi * np.minimum(a, b) ** 2
    inner = np.abs(_lens_area(np.abs(a - b) + eps, a, b) - contained) / contained
    outer = _lens_area(a + b - eps, a, b) / contained
    worst = float(max(np.max(inner, where=np.abs(a - b) > eps, initial=0.0), np.max(outer)))
    return worst < 1e-6, f"max relative discontinuity {worst:.3g}"


def _check_pmf_normalization(scenario) -> tuple[bool, str]:
    total = float(np.sum(mpc_pmf(_pmf_support(scenario), scenario)))
    return total > 1.0 - 1e-10, f"pmf mass {total:.15f}"


def _check_ks_marginals(scenario, seed, n) -> list[tuple[str, bool, str]]:
    from scipy import stats

    checks = []
    for offset, kind in enumerate(("short", "tall")):
        if mean_active_count(scenario, kind) <= 0.0:
            checks.append((f"ks-{kind}", True, "class degenerate, skipped"))
            continue
        lens = scenario.scatterer_class(kind).lens(scenario.d_prime)
        points = sample_uniform_in_lens(lens, substream(seed, 1000 + offset), size=n)
        x, y = distances(points, scenario.d_prime)
        for axis, samples, cdf in (
            ("x", x, analytics.distance_cdf_bs),
            ("y", y, analytics.distance_cdf_ms),
        ):
            result = stats.kstest(samples, cdf, args=(scenario, kind))
            checks.append(
                (
                    f"ks-{kind}-{axis}",
                    result.pvalue > 0.01,
                    f"KS D={result.statistic:.4g} p={result.pvalue:.4g}",
                )
            )
    return checks


def _infinite_mean_power(scenario, mode: str) -> bool:
    """Whether a class that contributes scatterers makes the mean power of ``mode`` infinite.

    Scattering-mode amplitudes fall as ``1/(x y)``, so ``E[1/(x y)^2]``
    diverges over a lens containing the BS or the MS.  Reflection amplitudes
    fall as ``1/(x + y)``, at most ``1/d'``, except at ``d' = 0``: there the
    BS and the MS coincide inside every lens, ``x = y``, and ``E[1/(2x)^2]``
    diverges.
    """
    for kind in ("short", "tall"):
        cls = scenario.scatterer_class(kind)
        contributes = mean_active_count(scenario, kind) > 0.0 and (
            kind == "short" or scenario.gamma > 0.0
        )
        holds_end = mode == "scattering" and scenario.d_prime <= max(cls.v1, cls.v2)
        if contributes and (holds_end or scenario.d_prime == 0.0):
            return True
    return False


def _check_power_consistency(cfg, scenario, seed, n, workers) -> list[tuple[str, bool, str]]:
    checks = []
    for mode, interaction in cfg.interactions.items():
        if _infinite_mean_power(scenario, mode):
            checks.append(
                (
                    f"power-dual-{mode}",
                    True,
                    "skipped: infinite mean, a class lens contains the BS or the MS",
                )
            )
            continue
        theory, theory_se, mc, mc_se = _mean_powers(scenario, interaction, seed, n, workers)
        diff = abs(theory - mc)
        bound = 3.0 * math.hypot(theory_se, mc_se)
        checks.append(
            (
                f"power-dual-{mode}",
                diff <= bound,
                f"|closed form - simulated| = {diff:.3g} W vs 3 sigma = {bound:.3g} W",
            )
        )
    return checks


def cmd_validate(cfg: RunConfig, seed: int, n: int | None, workers: int) -> int:
    scenario = cfg.scenario()
    checks = []
    checks.append(("geometry-continuity",) + _check_geometry_continuity(substream(seed, 900)))
    checks.append(("pmf-normalization",) + _check_pmf_normalization(scenario))
    n_ks = n or 100_000
    if mpc_mean(scenario) <= 0.0:
        # Degenerate scenario: confirm the no-path handling itself.
        interaction = next(iter(cfg.interactions.values()))
        summary = run_experiment(scenario, interaction, n_ks, seed, workers, statistics=set())
        empty = int(summary.mpc_count_histogram[0])
        detail = f"{empty} of {n_ks} realizations hold no component"
        checks.append(("degenerate-realizations-empty", empty == n_ks, detail))
        try:
            mean_toa(scenario)
            checks.append(("degenerate-no-path", False, "mean_toa did not flag no-path"))
        except DegenerateScenarioError:
            checks.append(("degenerate-no-path", True, "no-path condition reported"))
    else:
        checks.extend(_check_ks_marginals(scenario, seed, n_ks))
        checks.extend(
            _check_power_consistency(cfg, scenario, seed, cfg.realizations["power"], workers)
        )
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _int_in(minimum: int, maximum: int | None = None):
    """Argparse type for an integer ``>= minimum`` (and ``<= maximum``)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum or (maximum is not None and value > maximum):
            most = "" if maximum is None else f" and <= {maximum}"
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}{most}, got {text}")
        return value

    return integer


# Each command's handler, ``realizations`` key and help line.  A keyed handler
# returns the header and rows that ``main`` writes as its CSV.  ``validate`` has
# no key: it writes no CSV, and ``--realizations`` is its KS sample size.
_COMMANDS = {
    "pmf": (cmd_pmf, "pmf", "multipath-count PMF, analytic vs empirical"),
    "toa-sweep": (cmd_toa_sweep, "toa", "mean time of arrival over a distance/gamma grid"),
    "power": (cmd_power, "power", "mean received power, closed form vs direct simulation"),
    "angles": (cmd_angles, "angles", "departure/arrival angle histograms"),
    "validate": (cmd_validate, None, "run the invariant suite and report pass/fail"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvrchan",
        description="Dual-visibility-region channel model: analytics and Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, helptext) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", default=None, help="JSON config (default: GTU preset)")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--seed", type=_int_in(0), default=None, help="override config seed")
        p.add_argument(
            "--realizations", type=_int_in(1, MAX_REALIZATIONS), help="override realization count"
        )
        p.add_argument(
            "--workers", type=_int_in(1, MAX_WORKERS), default=1, help="parallel worker count"
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    seed = cfg.seed if args.seed is None else args.seed
    handler, key, _ = _COMMANDS[args.command]
    if key is not None and args.out is None:
        print("error: --out is required for this command", file=sys.stderr)
        return 2
    try:
        if key is None:
            return handler(cfg, seed, args.realizations, args.workers)
        n = args.realizations or cfg.realizations[key]
        header, rows = handler(cfg, seed, n, args.workers)
        _write_csv(args.out, cfg, seed, args.command, header, rows)
        return 0
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except (DegenerateScenarioError, EmptyRegionError) as exc:
        print(f"error: degenerate scenario: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: a result overflows float64: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
