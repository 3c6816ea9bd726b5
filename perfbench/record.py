"""Run every workload over several seeds and write a BENCH_<label>.json entry.

    python3 perfbench/record.py --label 0 --seeds 1-10

For each workload: one ``run.py --trace 0`` run per seed, then one
``--trace 1`` run on the first seed.  The entry holds, per workload and
end-to-end metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (interquartile distance over the median), the attempted and
failed command counts, and the per-layer metrics of the traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload, seed, seconds, trace) -> dict:
    argv = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["machine"] = json.loads(next(l for l in lines if l.startswith("machine: "))[9:])
    return result


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "n": len(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    entry = {"label": args.label, "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(_run(workload, seed, args.seconds, 0))
            line = "  ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items())
            print(f"{workload} seed {seed}: {line}", flush=True)
        traced = _run(workload, seeds[0], args.seconds, 1)
        entry["machine"] = runs[0]["machine"]
        metrics = {
            name: dict(_summary([r["metrics"][name]["value"] for r in runs]), unit=unit["unit"])
            for name, unit in runs[0]["metrics"].items()
        }
        entry["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, m in metrics.items():
            print(f"{workload:14s} {name:20s} median={m['median']:.6g} spread={m['spread']:.4f}", flush=True)
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
