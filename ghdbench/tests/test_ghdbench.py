"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest ghdbench/tests -q

Covers the seeded config generator, every output check (passing on a real
tiny ghd run and failing on a corrupted copy of its output), the verdict
that samples share with sample 0, forked samples, the speed probe, span
parents and self time in the tracer, and the metric names BENCHMARK.json
declares.
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "ghdbench"))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ghd import cli  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("tiny", [False, True])
def test_generator_is_deterministic_per_seed(name, tiny):
    make = workloads.WORKLOADS[name].make_config
    assert make(7, tiny) == make(7, tiny)
    assert make(7, tiny) != make(8, tiny)
    json.dumps(make(7, tiny))  # the config is plain JSON


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One tiny ghd run per workload: (workload, config, reference, outputs)."""
    runs = {}
    for name in NAMES:
        wl = workloads.WORKLOADS[name]
        base = tmp_path_factory.mktemp(name)
        cfg_path = base / "config.json"
        cfg_path.write_text(json.dumps(wl.make_config(3, True)))
        out = base / "out"
        assert cli.main([wl.command, "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        ref = workloads.reference(cfg_path)
        runs[name] = (wl, ref["cfg"], ref, out)
    return runs


def _corrupt_csv(path: Path, row: int, col: int, value: float) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(value)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _drop_last_row(path: Path) -> None:
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")


def _set_json(key, value):
    def corrupt(path: Path) -> None:
        data = json.loads(path.read_text())
        data[key] = value
        path.write_text(json.dumps(data))
    return corrupt


def _set_gap(path: Path) -> None:
    data = json.loads(path.read_text())
    data["l1_gap"][data["dx"].index(workloads.GAP_DX)] = 1.0
    path.write_text(json.dumps(data))


# (workload, output file, corruption); the t=0 rows come first in solve.csv
CORRUPTIONS = [
    ("bump_solve", "solve.csv", _drop_last_row),
    ("bump_solve", "solve.csv", lambda p: _corrupt_csv(p, 1, 3, 0.9)),
    ("bump_solve", "solve.csv", lambda p: _corrupt_csv(p, -1, 5, 1.0)),
    ("bump_solve", "solve.csv", lambda p: p.unlink()),
    ("partition_weakcheck", "weakcheck.csv", lambda p: _corrupt_csv(p, 1, 6, 1e-3)),
    ("partition_weakcheck", "weakcheck.csv", _drop_last_row),
    ("oracle_compare", "compare_summary.json", _set_json("order", 0.5)),
    ("oracle_compare", "compare_summary.json", _set_json("order", None)),
    ("oracle_compare", "compare_summary.json", _set_gap),
]


@pytest.mark.parametrize("name", NAMES)
def test_check_passes_on_real_output(tiny_runs, name):
    wl, cfg, ref, out = tiny_runs[name]
    assert wl.check(out, cfg, ref) == []


@pytest.mark.parametrize("name,filename,corrupt", CORRUPTIONS)
def test_check_fails_on_corrupted_output(tiny_runs, tmp_path, name, filename,
                                         corrupt):
    wl, cfg, ref, out = tiny_runs[name]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    corrupt(copy / filename)
    assert wl.check(copy, cfg, ref)


@pytest.mark.parametrize("corrupt", [False, True])
def test_samples_share_the_verdict_of_sample_0(tiny_runs, tmp_path, monkeypatch,
                                               corrupt):
    wl, cfg, ref, out = tiny_runs["partition_weakcheck"]
    bench = run.Bench(ROOT, tmp_path, wl, 3)
    bench.cfg, bench.ref = cfg, ref
    first = tmp_path / "out" / "0"
    shutil.copytree(out, first)
    if corrupt:
        _corrupt_csv(first / "weakcheck.csv", 1, 6, 1e-3)
    same = child.digests(first)
    samples = [{"rc": 0, "digests": same, "failures": []},
               {"rc": 0, "digests": same, "failures": []},
               {"rc": 0, "digests": child.digests(out) if corrupt else {},
                "failures": []},
               {"rc": 1, "digests": same, "failures": []},
               {"rc": None, "failures": ["ZeroDivisionError()"]}]
    monkeypatch.setattr(bench, "_child", lambda *args: (0.5, samples))
    _, checked = bench.runs(1.0)
    assert [bool(s["failures"]) for s in checked] == [corrupt, corrupt,
                                                      True, True, True]
    assert not (tmp_path / "out").exists()


def test_forked_sample_returns_its_result_or_error():
    assert child.forked(lambda args, i, traced: {"rc": 0, "i": i, "traced": traced},
                        None, 3, True) == {"rc": 0, "i": 3, "traced": True}
    failed = child.forked(lambda args, i, traced: 1 / 0, None, 0, False)
    assert failed["rc"] is None and "ZeroDivisionError" in failed["error"]


def test_speed_probe_fires_inside_the_block_and_is_left_out():
    with child.SpeedProbe(0.005) as speed:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert speed.detail()["probes"] >= 6  # ~20 in the block, one after it
    assert 0.0 < speed.inside < speed.elapsed
    assert speed.scaled() == pytest.approx(
        (speed.elapsed - speed.inside) * child.PROBE_REF_S
        / statistics.median(speed.times))


def test_span_parent_and_self_time():
    class Layer:
        def outer(self):
            self.inner()
            return 1

        def inner(self):
            return np.arange(3)

    tr = tracer.Tracer()
    tr.wrap(Layer, "outer", "outer")
    tr.wrap(Layer, "inner", "inner")
    try:
        Layer().outer()
    finally:
        tr.restore()
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")
    (outer_parent, outer_name, o0, o1), (inner_parent, inner_name, i0, i1) = tr.spans
    assert (outer_parent, outer_name) == (None, "outer")
    assert (inner_parent, inner_name) == (0, "inner")
    assert o0 <= i0 <= i1 <= o1
    summary = tr.summary()
    assert summary["inner"]["calls"] == 1
    assert summary["outer"]["self_s"] == pytest.approx((o1 - o0) - (i1 - i0))
    assert summary["outer"]["total_s"] == pytest.approx(o1 - o0)


def test_recursive_span_counts_once():
    tr = tracer.Tracer()

    class Rec:
        def f(self, k):
            return 0 if k == 0 else self.f(k - 1)

    tr.wrap(Rec, "f", "f")
    Rec().f(3)
    tr.restore()
    outermost = tr.spans[0]
    summary = tr.summary()["f"]
    assert summary["calls"] == 4
    assert summary["total_s"] == pytest.approx(outermost[3] - outermost[2])


def test_benchmark_json_declares_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    layer_names = set(tracer.layer_metrics(tracer.Tracer())) | set(run.RUN_LAYER_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


def test_timing_summary_percentile_needs_ten_beyond():
    assert run.timing_summary([3.0, 1.0, 2.0]) == {
        "median": 2.0, "n": 3, "percentile": None, "percentile_value": None}
    many = run.timing_summary([float(i) for i in range(1, 101)])
    assert many["percentile"] == 90.0 and many["percentile_value"] == 90.0


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "bump_solve", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
