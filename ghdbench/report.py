"""Run every benchmark workload over several seeds and print each metric.

    python3 ghdbench/report.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

Run from the root of a ghd checkout.  Workloads, run length and bounds
come from BENCHMARK.json.  For each workload and metric it prints the
unit, the median over the seeds, the quartile spread as a share of the
median, and for end-to-end metrics whether that spread is within the
metric's bound.  ``--out`` saves every run's result and output digests as
JSON with the wall time of every sample, so two sets of runs can be
compared seed by seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values: list) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    runs = detail.get("runs") or detail["untraced"]
    result["digests"] = runs[0].get("digests")
    result["sample_walls"] = [r.get("wall_s") for r in runs]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    results = {name: {seed: run_one(name, seed, spec["run_seconds"], args.trace)
                      for seed in seeds} for name in names}

    steady = True
    for name, by_seed in results.items():
        runs = list(by_seed.values())
        print(f"{name}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            line = f"  {metric:40s} {unit:6s} median {statistics.median(values):.6g}"
            if len(values) >= 2:
                s = spread(values)
                line += f"  spread {s:.3f}"
                if metric in bounds:
                    ok = s <= bounds[metric]
                    steady &= ok
                    line += f" (bound {bounds[metric]}: {'ok' if ok else 'TOO WIDE'})"
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
