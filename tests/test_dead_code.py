"""Every function, class and method of the library is used somewhere.

A definition counts as used when its name appears outside its own body in
`src/`, `tests/` or `perfbench/` (this file aside): as a name, an
attribute, an imported name, or a string that is a dotted identifier (how
`perfbench/tracing.py` and `getattr` name functions).  Comments and
docstrings do not count.
"""

import ast
import pathlib
import re

THIS = pathlib.Path(__file__).resolve()
ROOT = THIS.parent.parent
LIBRARY = ROOT / "src" / "latnf"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")

# "<module>.<qualname>": reason it stays without a caller in the tree
ALLOWED = {
    "cli.main": "console-script entry point declared in pyproject.toml",
    "sunit_pipeline.SUnitResult.fundamental_sunits":
        "user-facing output of the S-unit pipeline",
    "sunit_pipeline.CompactElement.log_vector":
        "user-facing output of the S-unit pipeline",
    "sunit_pipeline.principal_ideal_generator":
        "the paper's PIP step, kept until it gets a CLI path or is removed",
}


def _definitions(tree):
    """(qualname, node) for module-level functions and classes and the
    non-dunder methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def _docstrings(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _uses(tree):
    """(name, line) for every use of a name in the tree."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def unused_definitions():
    uses = {}                       # name -> [(path, line)]
    for top in SEARCHED:
        for path in sorted(top.rglob("*.py")):
            if path == THIS:
                continue
            for name, line in _uses(_parse(path)):
                uses.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        for qualname, node in _definitions(_parse(path)):
            name = qualname.rsplit(".", 1)[-1]
            outside = [(p, line) for p, line in uses.get(name, [])
                       if not (p == path
                               and node.lineno <= line <= node.end_lineno)]
            if not outside:
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_every_definition_is_used():
    unused = unused_definitions()
    assert sorted(set(unused) - set(ALLOWED)) == []


def test_allowlist_names_definitions():
    defined = {f"{path.stem}.{qualname}"
               for path in LIBRARY.glob("*.py")
               for qualname, _node in _definitions(_parse(path))}
    assert sorted(set(ALLOWED) - defined) == []
