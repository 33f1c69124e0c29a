"""Measured ghd samples, each in a fresh process forked after the imports.

    python3 child.py run   --command C --config F --out D --workers W --result R
                           [--seconds S] [--at-least N] [--trace]
    python3 child.py setup --config F --result R [--seconds S] [--at-least N]

The process imports ``ghd`` once and then forks one process per sample,
for S seconds (at least N samples), so interpreter start and imports,
which every real ``ghd`` run pays but which vary run to run, stay out of
the samples and out of the time they take.  ``run`` times ``ghd.cli.main``;
with ``--trace`` the samples alternate untraced and traced (spans recorded
by ``tracer.py``).  ``setup`` times config file -> KernelOperator ->
build_seed -> Solver, the objects ``ghd.cli`` builds before any command
runs.

Other tenants of a shared host make a CPU up to twice as slow, in bursts
that last from a fraction of a second to minutes, so raw timings of one
sample spread by 40% and more.  ``SpeedProbe`` therefore times a fixed
small piece of interpreter and numpy work every PROBE_INTERVAL_S during
each sample, on the same CPU at the same moments and with the caches as
the program left them, and each timing is reported twice: as measured
(``elapsed_s``) and scaled to the speed the probe has on an uncontended
core (``wall_s``, ``setup_s``).  The scaled times follow the program's
own cost and not the host's load.  The probe runs slower after the
program has filled the caches with large arrays, so the scale differs
from workload to workload (``wall_s`` reads about 0.6 of the elapsed time
on bump_solve and 0.8 on partition_weakcheck): compare scaled times of one
workload across versions of the program, not across workloads.  A change
that makes the program use the caches much better or worse moves the
probe too, so the scaled time understates such a change somewhat.

Sample i of ``run`` writes to ``D/i``; only ``D/0`` is kept, the
others are deleted once their sha256 digests are taken.  The list of
samples is written to R as JSON.  ``ghd`` is found on PYTHONPATH, which
the caller points at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import time
from pathlib import Path

import numpy as np

PROBE_INTERVAL_S = 0.02
SETUP_PROBE_INTERVAL_S = 0.005  # set-ups can be as short as 0.03 s
# median probe time during partition_weakcheck on an uncontended core
# (2-vCPU Xeon VM, one BLAS thread): scaled times are seconds at that speed
PROBE_REF_S = 1.5e-4
_PROBE_A = np.eye(16) * 16.0 + np.arange(8 * 256.0).reshape(8, 16, 16) % 7
_PROBE_B = np.ones((8, 16, 1))


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpeedProbe:
    """Times the ``with`` block (``elapsed``) and, on a SIGALRM every
    PROBE_INTERVAL_S while it runs and once more at its end, a fixed piece
    of interpreter and numpy work; ``scaled()`` is ``elapsed`` less the
    probes' own time, at the speed the probe has on an uncontended core."""

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.times: list = []
        self.spent = 0.0

    def probe(self, *_) -> None:
        """Time the work as the program left the caches, so that the probe
        feels what the program feels: contention for caches and memory
        as well as for the core."""
        start = time.perf_counter()
        acc = 0.0
        for i in range(1500):
            acc += (i % 7) * 0.5
        np.linalg.solve(_PROBE_A, _PROBE_B)
        self.times.append(time.perf_counter() - start)
        self.spent += self.times[-1]

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.elapsed = time.perf_counter() - self.start
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.inside = self.spent
        self.probe()

    def scaled(self) -> float:
        return ((self.elapsed - self.inside) * PROBE_REF_S
                / statistics.median(self.times))

    def detail(self) -> dict:
        return {"elapsed_s": self.elapsed, "probes": len(self.times),
                "probe_s": statistics.median(self.times)}


def run_sample(args, index: int, traced: bool) -> dict:
    from ghd import cli
    tracer = None
    if traced:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    out = Path(args.out) / str(index)
    with SpeedProbe() as speed:
        rc = cli.main([args.command, "--config", args.config, "--out", str(out),
                       "--workers", str(args.workers)])
    result = {"rc": rc, "traced": traced, "wall_s": speed.scaled(),
              **speed.detail(), "peak_rss_mb": _peak_rss_mb(), "digests": {}}
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer_mod.layer_metrics(tracer)
    if out.is_dir():
        result["digests"] = digests(out)
        if index > 0:
            shutil.rmtree(out)
    return result


def setup_sample(args, index: int, traced: bool) -> dict:
    from ghd import config as config_mod
    from ghd.fixed_point import Solver
    from ghd.kernel import KernelOperator
    from ghd.seed import build_seed
    with SpeedProbe(SETUP_PROBE_INTERVAL_S) as speed:
        cfg = config_mod.load_config(args.config)
        op = KernelOperator(config_mod.build_kernel_from(cfg),
                            config_mod.build_grid_from(cfg))
        tab = build_seed(config_mod.build_scenario_from(cfg), op,
                         config_mod.build_seed_spec_from(cfg))
        Solver(tab, config_mod.build_solver_config_from(cfg))
    return {"rc": 0, "setup_s": speed.scaled(), **speed.detail(),
            "peak_rss_mb": _peak_rss_mb()}


def forked(sample, args, index: int, traced: bool) -> dict:
    """Run one sample in a forked process and return its result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                result = sample(args, index, traced)
            except BaseException as exc:  # reported as a failed sample
                result = {"rc": None, "error": repr(exc)}
            with os.fdopen(write_fd, "w") as fh:
                fh.write(json.dumps(result))
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if not text:
        return {"rc": None, "error": f"sample process ended with status {status}"}
    return json.loads(text)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("run", "setup"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--command")
    parser.add_argument("--out")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--at-least", type=int, default=1)
    args = parser.parse_args()

    start = time.perf_counter()
    if args.mode == "run":
        from ghd import cli  # noqa: F401  (imported before the forks)
        if args.trace:
            import tracer  # noqa: F401
        sample = run_sample
    else:
        from ghd import config, fixed_point, kernel, seed  # noqa: F401
        sample = setup_sample
    import_s = time.perf_counter() - start

    # one more sample, as long as the median one so far, must still end in time
    deadline = time.perf_counter() + args.seconds
    samples, took = [], []
    while (len(samples) < args.at_least
           or time.perf_counter() + statistics.median(took) <= deadline):
        begun = time.perf_counter()
        index = len(samples)
        samples.append(forked(sample, args, index, args.trace and index % 2 == 1))
        took.append(time.perf_counter() - begun)
    Path(args.result).write_text(json.dumps({"import_s": import_s,
                                             "samples": samples}))


if __name__ == "__main__":
    main()
