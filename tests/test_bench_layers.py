"""Guard: every layer the benchmark tracer patches exists on the package,
and the per-layer counters of a traced weakcheck mean what they say.

``ghdbench/tracer.py`` wraps ghd's functions by module, class and attribute
name; a rename or deletion in ``ghd`` would otherwise surface only when a
traced benchmark run fails.  The tracer is loaded read-only from its file.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import ghd.cli

TRACER = Path(__file__).resolve().parents[1] / "ghdbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_ghdbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    missing = []
    for module, cls, attr, name, _ in _load_tracer().LAYERS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr} ({name})")
    assert not missing, f"tracer layers missing from ghd: {missing}"


def test_traced_weakcheck_counts_one_residual_and_one_state_batch_per_rectangle(tmp_path):
    rects = [[-0.6, 0.5, 0.1, 0.7], [0.2, 1.1, 0.3, 0.9], [-0.8, -0.1, -0.5, 0.4]]
    cfg = {
        "grid": {"p_min": -5.0, "p_max": 5.0, "count": 16},
        "kernel": {"model": "lieb_liniger", "c": 1.0},
        "scenario": {"kind": "partitioning",
                     "n_left": {"kind": "gaussian", "amplitude": 0.45, "gamma": 1.0},
                     "n_right": {"kind": "gaussian", "amplitude": 0.12, "gamma": 1.0}},
        "weakcheck": {"rectangles": rects, "edge_points": 16, "tolerance": 1e-2},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    try:
        rc = ghd.cli.main(["weakcheck", "--config", str(path),
                           "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert rc == 0
    metrics = tracer_mod.layer_metrics(tracer)
    assert metrics["diagnostics.rectangles"] == len(rects)
    assert metrics["fixed_point.states_batch_calls"] == len(rects)
