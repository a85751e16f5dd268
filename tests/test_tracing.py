"""The benchmark's use of rooklab still works.

perfbench/tracing.py wraps public rooklab functions by name, and
perfbench/workloads.py calls them and reads their results; a name that no
longer resolves, or a result that changed shape, would otherwise fail only
a benchmark run.  Both modules are loaded here by file path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
