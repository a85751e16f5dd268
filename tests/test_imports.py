"""Every name a module imports is used in it.

No linter runs on the repository, so this stdlib-ast scan stands in for
pyflakes' unused-import check on src/rooklab/*.py and tests/*.py.  A name
counts as used when it appears as an identifier, as the root of an
attribute chain, or in __all__; `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "rooklab").glob("*.py")) + \
    sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant))
    return sorted(f"{path.relative_to(ROOT)}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    assert len(FILES) > 20
    assert [hit for path in FILES for hit in unused_imports(path)] == []
