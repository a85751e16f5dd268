"""Every module-level name in src/rooklab is used somewhere.

A stdlib-ast scan: each function, class or assigned name at the top level
of src/rooklab/*.py must be referenced by some other top-level statement of
a file in src/, tests/ or perfbench/ (a use inside its own definition, such
as recursion, does not count).  A reference is an attribute name, a name in
an import list, or an identifier read in the name's defining module or in a
file that imports the name: elsewhere an identifier of the same spelling
is some other binding, a local variable say.  Dunder names are exempt.

A public name reached from tests/ alone must be paper content, named in
PAPER_CONTENT; the functions perfbench/tracing.py wraps by name count as
used.

The same holds one level down: each public method, property and dataclass
field of a public class, and each public attribute its __init__ assigns on
self, must be read outside tests/, unless named in TESTED_MEMBERS.  There
only attribute reads and keyword names count as uses: a bare identifier (a
local `kind`, say) does not read `x.kind`.

Floating point appears only in the functions of FLOAT_SITES, each of which
proves its float values exact: the scan lists every np.float16/32/64,
np.floor, np.rint, np.fmod and builtin float, every np.eye, np.zeros,
np.ones, np.empty, np.identity and np.full that passes no dtype (their
default is float64), every np.bincount given weights (its sums are
float64), every float literal and every true division, with the function
around it.

No function calls itself, nested functions and methods included, outside
RECURSIVE_SITES, each of which bounds its depth: a search deep in m or in a
clique's size keeps its nodes on an explicit stack instead.
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
    """(identifiers read, attribute and imported names) under node."""
    bare, named = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            bare.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            named.add(sub.attr)
        elif isinstance(sub, ast.alias):
            named.add(sub.name.split(".")[-1])
    return bare, named


def _defined(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreferenced(using, extra=(), defining=DEFINING, root=ROOT):
    """Definitions in `defining` that no top-level statement of the files
    in using references (beyond their own), nor any name in extra."""
    # `defining` is part of using, so every statement below is counted once.
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in using}
    statements = {path: [_references(stmt) for stmt in tree.body]
                  for path, tree in trees.items()}
    imported = {path: {alias.name.split(".")[-1] for alias in ast.walk(tree)
                       if isinstance(alias, ast.alias)}
                for path, tree in trees.items()}

    def uses(module):
        """Per name, the statements that reference it as seen from module."""
        count = Counter(extra)
        for path, refs in statements.items():
            mine = path == module
            for bare, named in refs:
                count.update(named | {name for name in bare
                                      if mine or name in imported[path]})
        return count

    dead = []
    for path in defining:
        counted = uses(path)
        for stmt, (bare, named) in zip(trees[path].body, statements[path]):
            own = bare | named
            for name in _defined(stmt):
                if name.startswith("__") or counted[name] - (name in own):
                    continue
                dead.append(f"{path.relative_to(root)}:{stmt.lineno} {name}")
    return dead


def test_no_dead_definitions():
    assert len(DEFINING) > 10
    assert unreferenced(USING) == []


# Public names that only tests reach, kept as content of the paper.
PAPER_CONTENT = {"small_n_eigenvector", "small_n_eigenvalue", "SMALL_N_KINDS",
                 "johnson_spectrum"}


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


def test_local_variable_is_no_use(tmp_path):
    # A public function whose only use outside the tests is a local
    # variable of the same spelling is reported; an identifier in a file
    # that imports the name, or an attribute read, is a use.
    (tmp_path / "src").mkdir()
    lib = tmp_path / "src" / "lib.py"
    lib.write_text("def sign(pi):\n    return 1\n\n\n"
                   "def parity(pi):\n    return 0\n\n\n"
                   "def order(pi):\n    return 2\n")
    bench = tmp_path / "bench.py"
    bench.write_text("from lib import parity\n"
                     "import lib\n\n\n"
                     "def task(tag, pi):\n"
                     "    sign = 1 if tag else -1\n"
                     "    return sign * parity(pi) * lib.order(pi)\n")
    assert unreferenced([lib, bench], defining=[lib], root=tmp_path) == \
        ["src/lib.py:1 sign"]


# Public members that only tests read: the canonical labelling, which the
# canonicity tests check by relabelling each graph with it.
TESTED_MEMBERS = {"CanonicalForm.relabeling"}


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def public_members():
    """(Class.member, member) for each public method, property and
    dataclass field of each public top-level class in DEFINING."""
    out = []
    for path in DEFINING:
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            fields = any(map(_is_dataclass, cls.decorator_list))
            names = []
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    names.append(item.name)
                    if item.name == "__init__":
                        names += _self_attributes(item)
                elif fields and isinstance(item, ast.AnnAssign):
                    names.append(item.target.id)
            for name in dict.fromkeys(names):
                if not name.startswith("_"):
                    out.append((f"{cls.name}.{name}", name))
    return out


def _self_attributes(init):
    """The names an __init__ assigns as self.<name>, tuple targets too."""
    self_name = init.args.args[0].arg
    return [sub.attr for sub in ast.walk(init)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name) and sub.value.id == self_name]


def member_reads(path):
    """The attribute names read and the keyword names passed in path."""
    names = set()
    for sub in ast.walk(ast.parse(path.read_text())):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, ast.keyword) and sub.arg:
            names.add(sub.arg)
    return names


def test_no_public_member_for_tests_only():
    members = public_members()
    assert ("SwitchingSet.members", "members") in members
    reads = set(traced_names())
    for path in USING:
        if path.parent.name != "tests":
            reads |= member_reads(path)
    unread = sorted(q for q, name in members if name not in reads)
    assert unread == sorted(TESTED_MEMBERS)


# The functions that may compute in floating point: each keeps its values
# inside a range it proves exact (module and function docstrings).
FLOAT_SITES = {"modular._isotypic", "modular._reduce",
               "modular._exact_chunks", "modular._power_sums",
               "modular._hessenberg_charpoly", "graphs._sr_rows"}
FLOAT_ATTRS = {"float16", "float32", "float64", "floor", "rint", "fmod"}
# Constructors whose dtype defaults to float64, with the position at which
# dtype may be passed without its keyword.
FLOAT_DEFAULTS = {"eye": 3, "zeros": 1, "ones": 1, "empty": 1,
                  "identity": 1, "full": 2}


def _numpy_attr(node):
    """The name of np.<name> or numpy.<name>, or None."""
    if isinstance(node, ast.Attribute) and \
            getattr(node.value, "id", None) in ("np", "numpy"):
        return node.attr
    return None


def _makes_float(node):
    """Whether node is one of the float sources float_uses lists."""
    if _numpy_attr(node) in FLOAT_ATTRS or \
            isinstance(node, ast.Name) and node.id == "float":
        return True
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    if not isinstance(node, ast.Call):
        return False
    name, keywords = _numpy_attr(node.func), {k.arg for k in node.keywords}
    if name == "bincount":
        return len(node.args) >= 2 or "weights" in keywords
    return name in FLOAT_DEFAULTS and "dtype" not in keywords and \
        len(node.args) <= FLOAT_DEFAULTS[name]


def float_uses(paths=DEFINING):
    """(module.function, line) of every np.float16/32/64, np.floor, np.rint,
    np.fmod, builtin float, FLOAT_DEFAULTS call passing no dtype,
    np.bincount with weights, float literal and true division in paths,
    function being the qualified name of the innermost enclosing def (the
    module itself at the top level)."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if _makes_float(child):
                out.append((scope, child.lineno))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for path in paths:
        visit(ast.parse(path.read_text()), path.stem)
    return out


def test_float_only_where_proven_exact():
    uses = float_uses()
    assert {scope for scope, _ in uses} == FLOAT_SITES, sorted(uses)


def test_float_scan_sees_default_dtypes(tmp_path):
    # A constructor without a dtype makes float64; a dtype passed by
    # keyword or in its place makes none.
    src = tmp_path / "m.py"
    src.write_text("def f(v):\n"
                   "    a = np.eye(v)\n"
                   "    b = np.zeros((v, v))\n"
                   "    c = numpy.full((v, v), 1)\n"
                   "    d = np.empty((2, v), np.uint64)\n"
                   "    e = np.eye(v, v, 0, np.int64)\n"
                   "    f = np.ones(v, dtype=bool)\n"
                   "    g = np.identity(v, np.int64)\n"
                   "    h = np.full(v, 0, np.int64)\n"
                   "    return np.zeros_like(a)\n")
    assert float_uses([src]) == [("m.f", 2), ("m.f", 3), ("m.f", 4)]


def test_float_scan_sees_weights_literals_and_division(tmp_path):
    # np.bincount sums its weights in float64; a float literal and a true
    # division, augmented too, make floats; counts, integers and floor
    # division make none.
    src = tmp_path / "m.py"
    src.write_text("def f(x, w):\n"
                   "    a = np.bincount(x, w)\n"
                   "    b = numpy.bincount(x, weights=w, minlength=3)\n"
                   "    c = np.bincount(x, minlength=3)\n"
                   "    d = 0.5 * len(x)\n"
                   "    e = len(x) / 2\n"
                   "    e /= 2\n"
                   "    return a, b, c, d, e, len(x) // 2, 10**3\n")
    assert float_uses([src]) == [("m.f", 2), ("m.f", 3), ("m.f", 5),
                                 ("m.f", 6), ("m.f", 7)]


# The functions that may call themselves, each with its depth bound.
# modular._shapes recurses once per part of a shape that dominates a label's
# content, so at most once per part of the content: an SR(m, n) label's m
# entries take at most n + 1 values, so at most min(m, n + 1) deep.
RECURSIVE_SITES = {"modular._shapes"}


def self_calls(paths=DEFINING):
    """(module.function, line) of every call a function makes to itself in
    paths: its own name called bare inside a def (a nested def's name inside
    that def), or self.<name> inside a method of that name."""
    out = []

    def visit(node, scope, bare, attr):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if bare and getattr(f, "id", None) == bare or (
                        attr and getattr(f, "attr", None) == attr
                        and getattr(f.value, "id", None) == "self"):
                    out.append((scope, child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = isinstance(node, ast.ClassDef)
                visit(child, f"{scope}.{child.name}",
                      None if method else child.name,
                      child.name if method else None)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}.{child.name}", None, None)
            else:
                visit(child, scope, bare, attr)

    for path in paths:
        visit(ast.parse(path.read_text()), path.stem, None, None)
    return out


def test_recursion_only_where_bounded():
    calls = self_calls()
    assert {scope for scope, _ in calls} == RECURSIVE_SITES, sorted(calls)


def test_recursion_scan_sees_nested_and_method_calls(tmp_path):
    # A nested def calling itself, a method calling self.<its name> and a
    # generator delegating to itself are reported; a call to another object's
    # method of the same name, or to a function of another scope, is not.
    src = tmp_path / "m.py"
    src.write_text("def f(v):\n"
                   "    def walk(i):\n"
                   "        return walk(i - 1) if i else f\n"
                   "    return v.f() + walk(v)\n"
                   "\n"
                   "\n"
                   "class C:\n"
                   "    def f(self, v):\n"
                   "        return self.f(v - 1) if v else other.f(v)\n"
                   "\n"
                   "    def g(self, v):\n"
                   "        yield from g(v)\n"
                   "\n"
                   "\n"
                   "def h(v):\n"
                   "    yield from h(v - 1)\n")
    assert self_calls([src]) == [("m.f.walk", 3), ("m.C.f", 9), ("m.h", 16)]
