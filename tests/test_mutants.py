"""The seeded mutants of mutants.py still apply: each row's text occurs
exactly once in its file, and each test it names exists. Running them is
`python tests/mutants.py`, outside tier 1."""

import ast

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_once_and_names_tests_that_exist():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.old != mutant.new, mutant.name
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, \
            mutant.name
        assert mutant.tests, mutant.name
        for test in mutant.tests:
            path, _, name = test.partition("::")
            defined = {node.name for node in ast.parse(
                (ROOT / path).read_text()).body
                if isinstance(node, ast.FunctionDef)}
            assert name in defined, (mutant.name, test)
