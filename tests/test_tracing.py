"""The benchmark's use of rooklab still works.

perfbench/tracing.py wraps public rooklab functions by name, and
perfbench/workloads.py calls them and reads their results; a name that no
longer resolves, or a result that changed shape, would otherwise fail only
a benchmark run.  Both modules are loaded here by file path.  A traced
switching closure must also show its canonical searches under its own
span, which `switching.closure_canon_per_class` counts.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from rooklab import switching
from rooklab.graphs import sr_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    traced = load("tracing").TRACED
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


@pytest.mark.parametrize("workload", ("spectra-large", "small-many"))
def test_workload_tasks_pass_their_oracles(workload):
    tasks = load("workloads").build(workload, 1)
    failed = [task.name for task in tasks
              if task.facts(task.digest(task.run())) != task.expected()]
    assert tasks and failed == []


def test_traced_closure_counts_its_searches():
    # The closure's canonical searches go through the traced name, so the
    # tracer sees them under the closure's span.  The closure is called
    # through its module, where the tracer installs its wrapper.
    tracing = load("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = switching.switching_closure(sr_graph(4, 3), 12)
    finally:
        left = tracer.restore()
    assert result.count == 12 and result.capped
    assert left == []
    metrics = tracing.round_metrics(tracer.spans)
    assert metrics["switching.closure_classes"] == 12
    assert metrics["switching.closure_canon_per_class"] > 0
