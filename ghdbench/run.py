"""Benchmark of the ``ghd`` command line on seeded workloads.

    python3 ghdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ghd checkout; ``ghd`` is imported from ``src/``.
The workload's config is generated from the seed into a scratch directory
under ``.ghdbench_work/`` and ``ghd`` sees only that config.  Every sample
is a fresh process with one BLAS thread, forked after the imports by
``child.py``; the outputs of every sample are checked (see ``workloads.py``
and ``Bench.runs``).

``--trace 0`` times ``setup_s`` (config -> ready Solver) for SETUP_SHARE of
the S seconds (at least MIN_SETUPS samples), then repeats
``ghd <command> --workers 1`` for the rest and reports the medians of
``setup_s``, ``wall_s`` (clock started after imports) and ``peak_rss_mb``,
and ``ok_frac``, the share of attempted samples that exit 0 and pass their
output check.  ``wall_s`` and ``setup_s`` are scaled to the speed of an
uncontended core by the speed probe in ``child.py``; the times as
measured are in the detail line as ``elapsed_s``.  ``--trace 1`` runs the
command once with ``--workers 2``, then alternates untraced and traced
samples (spans recorded around ghd's layers by ``tracer.py``) for the rest
of the S seconds, and reports the per-layer metrics (times as measured).
Metric units are read from BENCHMARK.json.

The last stdout line is the result JSON; the line before it holds the
per-sample detail: timings, sample counts, output digests, check failures
and the software and thread environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, reference

CHILD = Path(__file__).resolve().parent / "child.py"
# the single-threaded baseline: one BLAS thread per ghd process
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
WORK_DIR = ".ghdbench_work"
SETUP_SHARE = 0.2         # of the run's seconds; cheap set-ups get more samples
MIN_SETUPS = 5
TIME_BUDGET_S = 170.0     # every run ends well inside 180 s
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def timing_summary(values: list) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (None when there are too few samples)."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values) if values else None, "n": n,
           "percentile": None, "percentile_value": None}
    for p in PERCENTILES:
        rank = int(-(-p * n // 100))  # ceil: samples at or below the percentile
        if n - rank >= 10:
            out["percentile"] = p
            out["percentile_value"] = values[rank - 1]
            break
    return out


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": THREAD_ENV, "workers": 1}


class Bench:
    def __init__(self, root: Path, work: Path, workload, seed: int):
        self.workload = workload
        self.work = work
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
        self.env.pop("GHD_WORKERS", None)
        self.cfg_path = work / "config.json"
        self.cfg_path.write_text(json.dumps(workload.make_config(seed), indent=1))
        self.ref = reference(self.cfg_path)
        self.cfg = self.ref["cfg"]

    def _child(self, mode: str, seconds: float, at_least: int, *extra) -> tuple:
        """``(import_s, samples)`` of one child.py process; a child that
        fails as a whole counts as one failed sample."""
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        remaining = TIME_BUDGET_S - (time.perf_counter() - self.started)
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, "--config", str(self.cfg_path),
             "--result", str(result), "--seconds", str(max(seconds, 0.0)),
             "--at-least", str(at_least), *extra],
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its forks
            proc.communicate()
            return None, [{"rc": None, "failures": ["timed out"]}]
        if proc.returncode != 0 or not result.is_file():
            return None, [{"rc": proc.returncode, "failures": [
                f"child exit {proc.returncode}: {err.strip()[-400:]}"]}]
        data = json.loads(result.read_text())
        for sample in data["samples"]:
            sample["failures"] = [sample.pop("error")] if "error" in sample else []
        return data["import_s"], data["samples"]

    def setups(self, seconds: float) -> list:
        return self._child("setup", seconds, MIN_SETUPS)[1]

    def runs(self, seconds: float, at_least: int = 1, workers: int = 1,
             trace: bool = False) -> tuple:
        """``(import_s, samples)`` of ``ghd`` runs for ``seconds``.  Sample
        0's outputs are checked; the others must repeat its bytes exactly
        (same config, same thread settings) and so share its verdict."""
        out = self.work / "out"
        import_s, samples = self._child(
            "run", seconds, at_least, "--command", self.workload.command,
            "--out", str(out), "--workers", str(workers),
            *(["--trace"] if trace else []))
        first = samples[0]
        verdict = []
        if not first["failures"] and first["rc"] == 0:
            try:
                verdict = self.workload.check(out / "0", self.cfg, self.ref)
            except ValueError as exc:  # unparsable output file
                verdict = [f"output unreadable: {exc}"]
        for sample in samples:
            failures = sample["failures"]
            if failures:
                continue
            if sample["rc"] != 0:
                failures.append(f"ghd exit code {sample['rc']}")
            elif sample["digests"] != first["digests"]:
                failures.append("output digests differ from sample 0")
            else:
                failures += verdict
        shutil.rmtree(out, ignore_errors=True)
        return import_s, samples


def _ok(samples) -> list:
    return [s for s in samples if not s["failures"]]


# the end-to-end metrics measure() reports
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "ok_frac")
# per-layer metrics measured here rather than by tracer.layer_metrics
RUN_LAYER_METRICS = ("cli.import_s", "trace.overhead_s", "cli.pool_wall_s",
                     "cli.pool_digests_equal")


def measure(bench: Bench, seconds: float) -> tuple[dict, dict, list]:
    start = time.perf_counter()
    setups = bench.setups(seconds * SETUP_SHARE)
    _, runs = bench.runs(seconds - (time.perf_counter() - start))
    wall = timing_summary([s["wall_s"] for s in _ok(runs)])
    setup = timing_summary([s["setup_s"] for s in _ok(setups)])
    elapsed = {key: timing_summary([s["elapsed_s"] for s in _ok(samples)])
               for key, samples in (("wall_s", runs), ("setup_s", setups))}
    rss = [s["peak_rss_mb"] for s in _ok(runs)]
    attempted = setups + runs
    metrics = {
        "wall_s": wall["median"],
        "setup_s": setup["median"],
        "peak_rss_mb": statistics.median(rss) if rss else None,
        "ok_frac": len(_ok(attempted)) / len(attempted),
    }
    detail = {"wall_s": wall, "setup_s": setup, "elapsed": elapsed,
              "setups": setups, "runs": runs}
    return metrics, detail, attempted


def measure_layers(bench: Bench, seconds: float) -> tuple[dict, dict, list]:
    start = time.perf_counter()
    _, pool = bench.runs(0.0, workers=2)
    import_s, samples = bench.runs(seconds - (time.perf_counter() - start),
                                   at_least=2, trace=True)
    plain = [s for s in samples if not s.get("traced")]
    traced = [s for s in samples if s.get("traced")]
    attempted = pool + samples
    metrics = {}
    if not any(s["failures"] for s in attempted):
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(s["layers"][key] for s in traced)
        plain_wall = statistics.median(s["wall_s"] for s in plain)
        metrics["cli.import_s"] = import_s
        metrics["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                       - plain_wall)
        metrics["cli.pool_wall_s"] = pool[0]["elapsed_s"]
        metrics["cli.pool_digests_equal"] = float(
            pool[0]["digests"] == plain[0]["digests"])
    for s in traced:
        s.pop("layers", None)
    detail = {"untraced": plain, "traced": traced, "pool": pool}
    return metrics, detail, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ghd" / "cli.py").is_file():
        print("ghdbench: run from the root of a ghd checkout (src/ghd missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                 dir=root / WORK_DIR))
    try:
        bench = Bench(root, work, WORKLOADS[args.workload], args.seed)
        measure_fn = measure_layers if args.trace else measure
        metrics, detail, attempted = measure_fn(bench, args.seconds)
        config_sha = hashlib.sha256(bench.cfg_path.read_bytes()).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    failed = sum(1 for s in attempted if s["failures"])
    correct = failed == 0 and all(v is not None for v in metrics.values())
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "config_sha256": config_sha,
                      "environment": environment(), **detail}))
    print(json.dumps({
        "correct": correct, "attempted": len(attempted), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
