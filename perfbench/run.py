"""dvrchan benchmark: four fixed-seed CLI workloads, timed end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload preset-sweep --seed 1 --seconds 45 --trace 0

The benchmark puts ``src/`` of the checkout it lives in on ``sys.path`` (there
is nothing to build), times a fresh-process set-up, then drives
``dvrchan.cli.main(argv)`` in-process.  One *pass* runs the workload's commands
in order, one at a time (a closed loop with one client); passes repeat while
the next is expected to end within ``--seconds``, and at least one runs.  Every command's output
is checked (see ``checks.py``) and its digest compared with earlier runs of
the same command, seed and source in this checkout.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate and the result holds the per-layer metrics of the traced passes
(``tracing.py``); the spans are written to ``perfbench/.work/``.  Detail lines
before the result give per-command times, ``failed_frac``, digests and the
machine description.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

SETUP_SAMPLES = 7
SIMULATING = ("pmf", "toa-sweep", "power", "angles")
COMMANDS = SIMULATING + ("validate",)

# The preset sweep grid is 10 d' x 4 gamma.  The short lens is empty for
# d' >= v1 + v2 = 0.8 km, so the gate-closed branch has no path there and the
# nine points with d' in {0.8, 0.9, 1.0} km and gamma < 1 are nan rows.
TOA_ROWS = 40
TOA_DEFINED = 31
POWER_ROWS = 5 * 2  # power_d_prime x interaction modes

# Near external tangency of the short lens: v1 + v2 - d' = 0.0015 km, i.e. a
# gap of 0.003 * v1.  The short density is raised from 7.07e-5 to 4.2e-1 per
# m^2 so the thin lens still holds ~20 short scatterers.  The sampler's
# bounding box uses min(v1, v2) as its half-height, far above the lens
# half-height, so only ~5% of candidates land in the lens: this workload
# deliberately exposes that loose box (a known defect, kept visible).
# Known defect, not run: `toa-sweep` on this config is reported to ask for a
# 14.5 GiB array and raise numpy's _ArrayMemoryError (unbounded work).
THIN_LENS_CONFIG = {
    "scenario": {"d_prime": 0.7985, "short": {"density": 4.2, "density_exponent": -1}}
}
# At preset sizes a thin-lens pass is ~3 s and spreads +-15%; doubling the
# realizations steadies it.
THIN_LENS_SCALE = 2

# BENCHMARK.json lists preset-sweep and sweep-w2 only.  preset-checks and
# thin-lens stay runnable by name (and in the self-test) but were dropped from
# it as unsteady on the 2-core shared host: over ten seeds their wall_s
# spread (interquartile range over median) reached 0.256 and 0.208 against
# the largest allowed bound of 0.25.
WORKLOADS = {
    "preset-sweep": "toa-sweep at preset size, one worker: simulator block kernel, lens sampler, mean_toa",
    "preset-checks": "pmf, power, angles and validate at preset sizes: analytics and scalar geometry, little simulation",
    "thin-lens": "pmf and angles near external tangency: the rejection sampler accepts ~5% of candidates",
    "sweep-w2": "the preset-sweep command with two workers: block thread pool and ordered merge run concurrently",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "realizations_per_s": "1/s",
    "mpcs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

UNCONTROLLED = (
    "cores are shared with other tenants; no CPU pinning; CPU frequency and "
    "the page cache (which affects setup_s) are not controlled; no machine "
    "setting is changed to measure"
)


@dataclass
class Step:
    """One CLI invocation of a workload and the check of its output."""

    command: str
    argv: list
    check: Callable  # (exit_code, stdout) -> list of problems
    out: Path | None = None

    @property
    def key(self) -> str:
        """The invocation minus --out and --workers, which must not change the output."""
        kept, skip = [], False
        for arg in self.argv:
            if skip:
                skip = False
            elif arg in ("--out", "--workers"):
                skip = True
            else:
                kept.append(arg)
        return " ".join(kept)


@dataclass
class CommandResult:
    command: str
    seconds: float
    realizations: int
    mpcs: int
    problems: list


@dataclass
class PassResult:
    commands: list = field(default_factory=list)
    layers: dict | None = None
    spans: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(c.seconds for c in self.commands)

    def rate(self, attr) -> float:
        sim = [c for c in self.commands if c.command in SIMULATING]
        return sum(getattr(c, attr) for c in sim) / sum(c.seconds for c in sim)


def workload_steps(name: str, seed: int, scale: float, workdir: Path) -> list[Step]:
    """The commands of a workload.  ``scale`` multiplies every realization count."""
    import checks
    from dvrchan.config import GTU_PRESET

    preset_n = dict(GTU_PRESET["realizations"], validate=100_000)

    def step(command, key, extra=(), config=None, factor=1.0, check_csv=None):
        n = max(int(round(preset_n[key] * scale * factor)), 1)
        argv = [command, "--realizations", str(n), *extra]
        if config is not None:
            argv += ["--config", str(config)]
        if command == "validate":
            # validate runs at the config's own seed, whatever --seed says:
            # its four KS checks are alpha = 0.01 tests, so about 4% of seeds
            # print FAIL for a correct program (seed 1 does).
            return Step(command, argv, checks.check_validate)
        out = workdir / f"{name}-{command}.csv"
        argv += ["--seed", str(seed), "--out", str(out)]

        def check(exit_code, stdout):
            if exit_code != 0:
                return [f"exit code {exit_code}"]
            return check_csv(out, n)

        return Step(command, argv, check, out)

    pmf = lambda path, n: checks.check_pmf(path, seed, n)
    angles = lambda path, n: checks.check_angles(path, seed)
    toa = lambda path, n: checks.check_toa_sweep(path, seed, TOA_ROWS, TOA_DEFINED)
    power = lambda path, n: checks.check_power(path, seed, POWER_ROWS)

    if name in ("preset-sweep", "sweep-w2"):
        workers = "1" if name == "preset-sweep" else "2"
        return [step("toa-sweep", "toa", ("--workers", workers), check_csv=toa)]
    if name == "preset-checks":
        return [
            step("pmf", "pmf", ("--workers", "1"), check_csv=pmf),
            step("power", "power", ("--workers", "1"), check_csv=power),
            step("angles", "angles", ("--workers", "1"), check_csv=angles),
            step("validate", "validate", ("--workers", "1")),
        ]
    if name == "thin-lens":
        config = workdir / "thin-lens.json"
        config.write_text(json.dumps(THIN_LENS_CONFIG, sort_keys=True))
        common = dict(config=config, factor=THIN_LENS_SCALE)
        return [
            step("pmf", "pmf", ("--workers", "1"), check_csv=pmf, **common),
            step("angles", "angles", ("--workers", "1"), check_csv=angles, **common),
        ]
    raise ValueError(f"unknown workload {name!r}")


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dvrchan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_pass(steps, digests: dict, fingerprint: str, tracer=None, corrupt=None) -> PassResult:
    """Run every step once, timing, checking and digesting each."""
    import dvrchan.cli as cli
    from tracing import count_runs, patched

    result = PassResult()
    traced = tracer.installed() if tracer is not None else nullcontext()
    with traced:
        for step in steps:
            totals = {"realizations": 0, "mpcs": 0}
            stdout = io.StringIO()
            problems = []
            span = tracer.span(f"cli.{step.command}") if tracer is not None else nullcontext()
            with patched([(cli, "run_experiment", count_runs(cli.run_experiment, totals))]):
                start = perf_counter()
                try:
                    with span, redirect_stdout(stdout):
                        exit_code = cli.main(step.argv)
                except Exception:  # a raising command is a failed command, not a benchmark error
                    exit_code = None
                    problems.append(traceback.format_exc().strip().splitlines()[-1])
                seconds = perf_counter() - start
            if exit_code is not None:
                if corrupt is not None and step.out is not None:
                    corrupt(step)
                problems += step.check(exit_code, stdout.getvalue())
            if not problems:
                problems += _compare_digest(step, stdout.getvalue(), digests, fingerprint)
            result.commands.append(
                CommandResult(step.command, seconds, totals["realizations"], totals["mpcs"], problems)
            )
    if tracer is not None:
        result.layers = tracer.layer_metrics()
        result.spans = [span.to_json() for span in tracer.spans]
    return result


def _compare_digest(step, stdout, digests, fingerprint) -> list:
    data = step.out.read_bytes() if step.out is not None else stdout.encode()
    digest = hashlib.sha256(data).hexdigest()[:16]
    key = f"{fingerprint} {step.key}"
    previous = digests.setdefault(key, digest)
    if previous != digest:
        return [f"output digest {digest} differs from {previous} of an earlier run"]
    return []


def measure_setup(samples: int) -> list[float]:
    """Fresh-process `import dvrchan.cli` plus `load_config()`, in seconds."""
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        "import dvrchan.cli\n"
        "from dvrchan.config import load_config\n"
        "load_config()\n"
        "print(repr(time.perf_counter() - start))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    values = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return values


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "uncontrolled": UNCONTROLLED,
    }


def _load_digests(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    except (OSError, json.JSONDecodeError) as exc:
        print(f"warning: ignoring unreadable {path}: {exc}", file=sys.stderr)
        return {}


def _save_json(path: Path, data) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("accept_ratio", "pool_concurrency")):
        return "ratio"
    return "count"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def failed_fraction(passes) -> float:
    """Commands that exited non-zero, raised or failed their check, over those attempted."""
    results = [c for p in passes for c in p.commands]
    return sum(1 for c in results if c.problems) / len(results)


def _per_command(passes) -> dict:
    """Median wall time of each command over the passes, for commands that ran."""
    times = {}
    for p in passes:
        for c in p.commands:
            times.setdefault(c.command, []).append(c.seconds)
    return {cmd: statistics.median(v) for cmd, v in times.items()}


def _mean_layers(passes) -> dict:
    keys = passes[0].layers.keys()
    return {k: statistics.fmean(p.layers[k] for p in passes) for k in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dvrchan" / "__init__.py").is_file():
        print(f"error: no dvrchan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dvrchan

    if Path(dvrchan.__file__).resolve().parent != (SRC / "dvrchan").resolve():
        print(f"error: imported dvrchan from {dvrchan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer

    WORK.mkdir(exist_ok=True)
    info = machine()
    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)
    digests_path = WORK / "digests.json"
    digests = _load_digests(digests_path)
    fingerprint = source_fingerprint()
    steps = workload_steps(args.workload, args.seed, 1.0, WORK)

    # Whole passes, as many as fit in --seconds judging by the last one; at
    # least one, so a pass longer than --seconds still runs once.
    untraced, traced = [], []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        untraced.append(run_pass(steps, digests, fingerprint))
        if args.trace:
            traced.append(run_pass(steps, digests, fingerprint, tracer=Tracer()))
        now = perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _save_json(digests_path, digests)

    results = [c for p in untraced + traced for c in p.commands]
    failed = [c for c in results if c.problems]
    per_command = _per_command(untraced)

    print(f"workload: {args.workload} ({WORKLOADS[args.workload]}); seed {args.seed}")
    print("machine: " + json.dumps(info, sort_keys=True))
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced")
    print("untraced pass wall_s: " + ", ".join(f"{p.wall:.4f}" for p in untraced))
    for command, seconds in per_command.items():
        print(f"{command.replace('-', '_')}_s: {seconds:.4f} s")
    print(f"failed_frac: {failed_fraction(untraced + traced):.4f} ({len(failed)}/{len(results)} commands)")
    for c in failed:
        for problem in c.problems:
            print(f"FAILED {c.command}: {problem}")
    for step in steps:
        key = f"{fingerprint} {step.key}"
        print(f"digest {step.command}: {digests.get(key)}")

    if args.trace:
        tracer_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(tracer_file, "w") as fh:
            for index, p in enumerate(traced):
                for record in p.spans:
                    fh.write(json.dumps(dict(record, pass_index=index)) + "\n")
        print(f"spans: {tracer_file.relative_to(ROOT)}")
        layers = _mean_layers(traced)
        traced_wall = statistics.fmean(p.wall for p in traced)
        untraced_wall = statistics.fmean(p.wall for p in untraced)
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        for command in COMMANDS:
            layers[f"cli.{command.replace('-', '_')}_s"] = per_command.get(command, 0.0)
        metrics = {k: _metric(v, _layer_unit(k)) for k, v in layers.items()}
    else:
        print("setup_s samples: " + ", ".join(f"{v:.4f}" for v in setup))
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall for p in untraced),
            "realizations_per_s": statistics.median(p.rate("realizations") for p in untraced),
            "mpcs_per_s": statistics.median(p.rate("mpcs") for p in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}

    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
