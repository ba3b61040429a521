"""Every library function the benchmark wraps by name still exists.

`perfbench/tracing.py` (`LAYER_FUNCTIONS`, under `--trace 1`) and
`perfbench/run.py` (`FINGERPRINT_FUNCTIONS`) name `(module, qualname)`
pairs of `latnf`; a refactor that deletes or renames one would otherwise
pass the tests and only fail when the benchmark runs.  The lists are read
from the source by AST, without importing the benchmark.
"""

import ast
import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _pairs(filename, name):
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in perfbench/{filename}")


NAMES = sorted(set(_pairs("tracing.py", "LAYER_FUNCTIONS"))
               | set(_pairs("run.py", "FINGERPRINT_FUNCTIONS")))


def test_lists_are_read():
    assert ("lattice_core", "gso") in NAMES
    assert ("ideal_walk", "sample_beta") in NAMES


@pytest.mark.parametrize("module,qualname", NAMES)
def test_traced_name_resolves(module, qualname):
    obj = importlib.import_module("latnf." + module)
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
