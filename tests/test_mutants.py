"""The mutant table's form: each mutant edits text that is there, once,
and names tests that exist.  Running the mutants is tests/mutants.py's
job, not Tier-1's."""

import ast

import pytest

from mutants import MUTANTS, ROOT


def defined_tests(path):
    """The node ids, without parameters, of the test functions in path:
    'test_x' at module level and 'TestY::test_x' in a class."""
    tree = ast.parse(path.read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


@pytest.mark.parametrize("mutant", MUTANTS,
                         ids=[str(i) for i in range(len(MUTANTS))])
def test_mutant_is_well_formed(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.old != mutant.new and mutant.tests and mutant.origin
    for node_id in mutant.tests:
        file, _, name = node_id.partition("::")
        assert name.split("[")[0] in defined_tests(ROOT / file), node_id


def test_one_row_per_mutant():
    assert len({(m.file, m.old) for m in MUTANTS}) == len(MUTANTS)
