"""The benchmark's traced names all exist in rooklab.

perfbench/tracing.py wraps public rooklab functions by name, and a name
that no longer resolves would otherwise fail only a traced benchmark run.
That module imports only the standard library, so it is loaded here by
file path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    traced = load_tracing().TRACED
    missing = []
    for name in traced:
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"rooklab.{module_name}")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert traced
    assert missing == []
