"""Guard: every layer the benchmark tracer patches exists on the package.

``ghdbench/tracer.py`` wraps ghd's functions by module, class and attribute
name; a rename or deletion in ``ghd`` would otherwise surface only when a
traced benchmark run fails.  The tracer is loaded read-only from its file.
"""

import importlib
import importlib.util
from pathlib import Path

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
