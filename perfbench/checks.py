"""Output checks for the benchmark's commands.

Every check is meant to hold at any seed for a correct program, so a failure
means a defect, not bad luck.  Statistical comparisons therefore use a
generous bound of ``SIGMA`` standard errors (a 7-sigma miss has probability
~1e-12 per row under the normal approximation).  The acceptance tests'
fixed-seed ``TV < 0.01`` is deliberately not reused: on the thin-lens input it
reads 0.0074 at the preset seed and other seeds would sometimes exceed it.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

SIGMA = 7.0
# PMF rows with fewer counts than this have a stderr (computed from the
# empirical frequency) too coarse for a normal z-score; they are still checked
# for range and stderr consistency.
PMF_MIN_COUNT = 25
N_ANGLE_BINS = 64


def read_csv(path):
    """Return (metadata dict, header list, rows as lists of strings)."""
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, header, rows


def _floats(row):
    return [float(v) for v in row]


def _within(diff, se, what):
    if not (math.isfinite(se) and se > 0.0):
        return [f"{what}: stderr {se!r} is not a positive number"]
    if abs(diff) > SIGMA * se:
        return [f"{what}: |z| = {abs(diff) / se:.2f} > {SIGMA:g}"]
    return []


def _preamble(path, command, header, seed):
    meta, got_header, rows = read_csv(path)
    problems = []
    if meta.get("command") != command:
        problems.append(f"metadata command={meta.get('command')!r}, expected {command!r}")
    if meta.get("seed") != str(seed):
        problems.append(f"metadata seed={meta.get('seed')!r}, expected {seed}")
    if got_header != list(header):
        problems.append(f"header {got_header!r}")
    return problems, rows


def check_pmf(path, seed, n):
    """Analytic vs empirical count PMF with binomial stderr."""
    problems, rows = _preamble(
        path, "pmf", ("n", "analytic_pmf", "empirical_pmf", "stderr"), seed
    )
    if not rows:
        return problems + ["no rows"]
    analytic_total = empirical_total = 0.0
    for i, row in enumerate(rows):
        k, analytic, empirical, stderr = _floats(row)
        if k != i:
            problems.append(f"row {i}: n={k}")
        if not (0.0 <= analytic <= 1.0 and 0.0 <= empirical <= 1.0):
            problems.append(f"n={i}: probability out of [0, 1]")
            continue
        analytic_total += analytic
        empirical_total += empirical
        expected_se = math.sqrt(empirical * (1.0 - empirical) / n)
        if not math.isclose(stderr, expected_se, rel_tol=1e-9, abs_tol=1e-15):
            problems.append(f"n={i}: stderr {stderr} != sqrt(p(1-p)/N) = {expected_se}")
        if empirical * n >= PMF_MIN_COUNT:
            problems += _within(empirical - analytic, stderr, f"n={i}")
    if not 1.0 - 1e-9 <= analytic_total <= 1.0 + 1e-9:
        problems.append(f"analytic mass {analytic_total!r}")
    if not 1.0 - 1e-3 <= empirical_total <= 1.0 + 1e-9:
        problems.append(f"empirical mass {empirical_total!r}")
    return problems


def check_toa_sweep(path, seed, rows_expected, defined_expected):
    """Mean ToA per grid point; undefined (no-path) points are all-nan rows."""
    header = ("d_prime_m", "gamma", "analytic_mean_toa_us", "empirical_mean_toa_us", "stderr_us")
    problems, rows = _preamble(path, "toa-sweep", header, seed)
    if len(rows) != rows_expected:
        problems.append(f"{len(rows)} rows, expected {rows_expected}")
    defined = 0
    for row in rows:
        d_prime, gamma, analytic, empirical, stderr = _floats(row)
        where = f"d'={d_prime:g} gamma={gamma:g}"
        values = (analytic, empirical, stderr)
        if all(math.isnan(v) for v in values):
            continue
        if any(math.isnan(v) for v in values):
            problems.append(f"{where}: partly nan row")
            continue
        defined += 1
        problems += _within(empirical - analytic, stderr, where)
    if defined != defined_expected:
        problems.append(f"{defined} defined rows, expected {defined_expected}")
    return problems


def check_power(path, seed, rows_expected):
    """Closed-form vs simulated mean power, both with their stderr."""
    header = (
        "d_prime_m",
        "mode",
        "closed_form_mean_w",
        "closed_form_stderr_w",
        "simulated_mean_w",
        "simulated_stderr_w",
    )
    problems, rows = _preamble(path, "power", header, seed)
    if len(rows) != rows_expected:
        problems.append(f"{len(rows)} rows, expected {rows_expected}")
    for row in rows:
        d_prime, mode = row[0], row[1]
        closed, closed_se, simulated, simulated_se = _floats(row[2:])
        if not (closed > 0.0 and simulated > 0.0):
            problems.append(f"d'={d_prime} {mode}: non-positive power")
            continue
        problems += _within(closed - simulated, math.hypot(closed_se, simulated_se), f"d'={d_prime} {mode}")
    return problems


def check_angles(path, seed):
    """Both angle densities are non-negative and integrate to 1."""
    header = ("bin_center_rad", "aod_density", "aoa_density")
    problems, rows = _preamble(path, "angles", header, seed)
    if len(rows) != N_ANGLE_BINS:
        return problems + [f"{len(rows)} bins, expected {N_ANGLE_BINS}"]
    width = 2.0 * math.pi / N_ANGLE_BINS
    values = [_floats(row) for row in rows]
    for i, (center, _, _) in enumerate(values):
        if not math.isclose(center, -math.pi + (i + 1) * width, abs_tol=1e-9):
            problems.append(f"bin {i}: center {center}")
    for column, name in ((1, "aod"), (2, "aoa")):
        density = [v[column] for v in values]
        if min(density) < 0.0:
            problems.append(f"{name}: negative density")
        total = sum(density) * width
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            problems.append(f"{name}: density integrates to {total!r}")
    return problems


def check_validate(exit_code, stdout):
    """Exit 0, every check line PASS, and a matching 'k/k checks passed' tail."""
    lines = stdout.strip().splitlines()
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if not lines:
        return problems + ["no output"]
    checks, tail = lines[:-1], lines[-1]
    problems += [f"not PASS: {line}" for line in checks if not line.startswith("PASS ")]
    if not checks or tail != f"{len(checks)}/{len(checks)} checks passed":
        problems.append(f"summary line {tail!r}")
    return problems
