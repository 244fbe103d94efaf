"""The mutant list in `tools/mutants.py` matches the tree it checks."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("tools_mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up there
    spec.loader.exec_module(module)
    return module.MUTANTS


def _defined(path: str) -> set[str]:
    """The names of a file's top-level functions and classes."""
    body = ast.parse((ROOT / path).read_text()).body
    return {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


@pytest.mark.parametrize("mutant", _mutants(), ids=lambda mutant: mutant.name)
def test_each_mutant_text_occurs_once_and_its_tests_exist(mutant):
    # a stale text or a renamed test would otherwise show only when the mutation check runs
    assert (ROOT / mutant.path).read_text().count(mutant.text) == 1
    for node in mutant.tests:
        path, _, name = node.partition("[")[0].partition("::")
        assert (ROOT / path).is_file(), node
        assert not name or name in _defined(path), node
