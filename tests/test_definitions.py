"""Every module-level name in src/rooklab is used somewhere.

A stdlib-ast scan: each function, class or assigned name at the top level
of src/rooklab/*.py must be referenced by some other top-level statement of
a file in src/, tests/ or perfbench/ (a use inside its own definition, such
as recursion, does not count).  A reference is an identifier, an attribute
name or a name in a `from ... import` list.  Dunder names are exempt.

A public name reached from tests/ alone must be paper content, named in
PAPER_CONTENT; the functions perfbench/tracing.py wraps by name count as
used.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINING = sorted((ROOT / "src" / "rooklab").glob("*.py"))
USING = sorted((ROOT / "src").rglob("*.py")) + \
    sorted((ROOT / "tests").glob("*.py")) + \
    sorted((ROOT / "perfbench").glob("*.py"))


def _references(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
    return names


def _defined(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreferenced(using, extra=()):
    """Definitions in DEFINING that no top-level statement of the files in
    using references (beyond their own), nor any name in extra."""
    # DEFINING is part of using, so every statement below was counted once.
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in using}
    uses = Counter(extra)
    for tree in trees.values():
        for stmt in tree.body:
            uses.update(_references(stmt))
    dead = []
    for path in DEFINING:
        for stmt in trees[path].body:
            own = _references(stmt)
            for name in _defined(stmt):
                if not name.startswith("__") and uses[name] - (name in own) == 0:
                    dead.append(f"{path.relative_to(ROOT)}:{stmt.lineno} {name}")
    return dead


def test_no_dead_definitions():
    assert len(DEFINING) > 10
    assert unreferenced(USING) == []


# Public names that only tests reach, kept as content of the paper.
PAPER_CONTENT = {"small_n_eigenvector", "small_n_eigenvalue", "SMALL_N_KINDS",
                 "johnson_spectrum", "local_graph"}


def traced_names():
    """The names perfbench/tracing.py wraps, which it reaches by string."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name.split(".")[-1] for name in module.TRACED}


def test_no_public_api_for_tests_only():
    traced = traced_names()
    assert "cycle_graph" in traced
    outside = [path for path in USING if path.parent.name != "tests"]
    names = sorted(entry.split()[-1] for entry in unreferenced(outside, traced))
    assert [n for n in names if not n.startswith("_")] == sorted(PAPER_CONTENT)
