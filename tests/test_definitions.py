"""Every module-level name in src/rooklab is used somewhere.

A stdlib-ast scan: each function, class or assigned name at the top level
of src/rooklab/*.py must be referenced by some other top-level statement of
a file in src/, tests/ or perfbench/ (a use inside its own definition, such
as recursion, does not count).  A reference is an identifier, an attribute
name or a name in a `from ... import` list.  Dunder names are exempt.
"""

import ast
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


def dead_definitions():
    # DEFINING is part of USING, so every statement below was counted once.
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in USING}
    uses = Counter()
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
    assert dead_definitions() == []
