"""Self-test of the benchmark, at reduced size (about a minute on 2 cores).

    python3 perfbench/selftest.py

Runs every workload at a quarter of its realizations, untraced and traced, and
requires that:

* every command passes its output check;
* the toa-sweep CSV is byte-identical with one and two workers (both
  workloads share one digest key, so the second pass is compared with the
  first) and across repeats;
* the traced layer self times add up to the traced wall time;
* under two workers every ``sample_block`` span descends from the
  ``run_experiment`` that launched it;
* a deliberately corrupted pmf CSV is caught and counts in ``failed_frac``.

Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import sys

import run

SCALE = 0.25
SEED = 1
LAYER_SELF_KEYS = (
    "config.load_config_s",
    "cli.self_s",
    "simulator.kernel_self_s",
    "simulator.merge_s",
    "pointprocess.sample_block_self_s",
    "geometry.self_s",
    "analytics.self_s",
)


def expect(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}", flush=True)
    if not ok:
        sys.exit(1)


def corrupt_pmf(step) -> None:
    """Inflate the empirical probability of the PMF's mode by half."""
    if step.command != "pmf":
        return
    lines = step.out.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line[0].isdigit())
    mode = max(range(first, len(lines)), key=lambda i: float(lines[i].split(",")[2]))
    cells = lines[mode].split(",")
    cells[2] = repr(float(cells[2]) * 1.5)
    lines[mode] = ",".join(cells)
    step.out.write_text("\n".join(lines) + "\n")


def _has_ancestor(span, by_id, name) -> bool:
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get(parent["parent"])
    return False


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from tracing import Tracer

    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    digests: dict = {}
    fingerprint = run.source_fingerprint()

    for name in run.WORKLOADS:
        steps = run.workload_steps(name, SEED, SCALE, workdir)
        for tracer in (None, Tracer(), None):
            label = f"{name} {'traced' if tracer else 'untraced'}"
            result = run.run_pass(steps, digests, fingerprint, tracer=tracer)
            problems = [f"{c.command}: {p}" for c in result.commands for p in c.problems]
            expect(not problems, f"{label}: outputs pass their checks {problems or ''}")
            if tracer is None:
                continue
            accounted = sum(result.layers[k] for k in LAYER_SELF_KEYS)
            expect(
                abs(accounted - result.wall) <= 0.01 * result.wall,
                f"{label}: layer self times {accounted:.4f} s account for wall {result.wall:.4f} s",
            )
            if name == "sweep-w2":
                by_id = {s["id"]: s for s in result.spans}
                blocks = [s for s in result.spans if s["name"] == "pointprocess.sample_block"]
                expect(
                    bool(blocks)
                    and all(_has_ancestor(s, by_id, "simulator.run_experiment") for s in blocks),
                    f"{label}: {len(blocks)} pool-thread sample_block spans keep their run_experiment",
                )
                expect(
                    result.layers["simulator.pool_concurrency"] > 1.0,
                    f"{label}: pool concurrency {result.layers['simulator.pool_concurrency']:.2f} > 1",
                )

    sweep_keys = [k for k in digests if " toa-sweep " in k]
    expect(len(sweep_keys) == 1, "preset-sweep and sweep-w2 share one toa-sweep digest")

    steps = run.workload_steps("preset-checks", SEED, SCALE, workdir)
    result = run.run_pass(steps, digests, fingerprint, corrupt=corrupt_pmf)
    failed = [c.command for c in result.commands if c.problems]
    frac = run.failed_fraction([result])
    expect(failed == ["pmf"] and frac == 0.25, f"corrupted pmf CSV is caught: failed_frac {frac}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
