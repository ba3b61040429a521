"""Every function, class and method of the library is used somewhere,
and every parameter with a default is set somewhere.

A definition counts as used when its name appears outside its own body in
`src/`, `tests/` or `perfbench/` (this file aside): as a name, an
attribute, an imported name, or a string that is a dotted identifier (how
`perfbench/tracing.py` and `getattr` name functions).  Comments and
docstrings do not count.

A parameter with a default (of a module-level function, of a method, or
of a class's `__init__`) counts as set when some call of that name in the
same tree passes it, by keyword or by position; a call that unpacks
`*args` or `**kwargs` sets them all.  Calls are matched by the called
name alone, so a parameter set through a same-named function counts as
set.

Every field of a library dataclass is read somewhere: its name is loaded
as an attribute (`obj.field`, not an assignment to it) or appears in a
dotted-identifier string, anywhere in the same tree.  Reads are matched
by name alone, like uses of definitions.

Every field of a library dataclass with a plain default (not a
`default_factory`) is set somewhere in the same tree: passed by keyword
or by position in a call of its class's name, or assigned as an
attribute (matched by name alone).  A default that nothing sets is a
constant.

Every name a library module imports is used in the scope that imports it
(the module, or the function holding a local import), or, for a
module-level import, imported from that module by another file.

Every library definition is reached from `src/` or `perfbench/`, not
from the tests alone.  A definition is reached when its name is used
there outside its own body and outside every definition not yet
reached; the reached set grows from the entry points in `ENTRY_POINTS`
until nothing more is added, so definitions that only use one another
(a chain or a cycle) stay unreached.  Uses are matched by name as above,
except that an import is not a use (the imported name's own uses count)
and a method is reached only through an attribute or a dotted string,
never through a plain name such as a local variable.
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
}

# "<module>.<qualname>(<parameter>)": reason its default stays although no
# call site passes it
ALLOWED_DEFAULTS = {}


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


# Searched by the reach guard: what the commands, the pipeline and the
# benchmark run, without the tests.
REACHING = [ROOT / "src", ROOT / "perfbench"]

# "<module>.<qualname>": reason it counts as reached although nothing in
# `REACHING` reaches it
ENTRY_POINTS = {
    "cli.main": "console-script entry point declared in pyproject.toml",
    "det_verify.decide_equal_lattice":
        "certified equal-lattice decision, kept for the certified verdict "
        "of verify_full (ROADMAP item 2)",
    "det_verify.gram_det_interval":
        "certified determinant window, kept for the certified verdict "
        "of verify_full (ROADMAP item 2)",
    "det_verify.epsilon_threshold":
        "error budget of gram_det_interval, kept with it (ROADMAP item 2)",
    "det_verify.DetVerdict":
        "result of gram_det_interval, kept with it (ROADMAP item 2)",
    "det_verify.inv_norm_bound":
        "certified ||B^-1|| bound that gram_det_interval's budget needs "
        "(ROADMAP item 2)",
    "det_verify._smallest_positive_root_bracket":
        "eigenvalue bracket of inv_norm_bound, over the polyq real-root "
        "isolation, kept with it (ROADMAP item 2)",
}


def _reach_uses(tree):
    """(name, line, bare) for every use of a name in the tree, imports
    aside; `bare` marks a plain name, which cannot call a method."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno, False


def unreached_definitions():
    spans = {}              # "<module>.<qualname>" -> (path, first, last)
    for path in sorted(LIBRARY.glob("*.py")):
        for qualname, node in _definitions(_parse(path)):
            spans[f"{path.stem}.{qualname}"] = (path, node.lineno,
                                                 node.end_lineno)
    uses = {}               # name -> [(path, line, bare)]
    for top in REACHING:
        for path in sorted(top.rglob("*.py")):
            for name, line, bare in _reach_uses(_parse(path)):
                uses.setdefault(name, []).append((path, line, bare))

    def inside(path, line, key):
        p, first, last = spans[key]
        return p == path and first <= line <= last

    reached = set(ENTRY_POINTS) & set(spans)
    grew = True
    while grew:
        grew = False
        unreached = [key for key in spans if key not in reached]
        for key in unreached:
            method = key.count(".") == 2
            name = key.rsplit(".", 1)[-1]
            if any(not (bare and method)
                   and not any(inside(path, line, u) for u in unreached)
                   for path, line, bare in uses.get(name, [])):
                reached.add(key)
                grew = True
    return sorted(key for key in spans if key not in reached)


def test_every_definition_is_reached():
    assert unreached_definitions() == []


def test_entry_points_name_definitions():
    defined = {f"{path.stem}.{qualname}"
               for path in LIBRARY.glob("*.py")
               for qualname, _node in _definitions(_parse(path))}
    assert sorted(set(ENTRY_POINTS) - defined) == []


def _callables(tree):
    """(qualname, called name, node, bound) for module-level functions,
    methods and `__init__`s; `bound` is the number of leading parameters
    the call does not pass (self or cls)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, 0
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                called = node.name if item.name == "__init__" else item.name
                yield (f"{node.name}.{item.name}", called, item,
                       0 if static else 1)


def _defaulted(fn):
    args = fn.args
    positional = args.posonlyargs + args.args
    out = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    out += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _searched_nodes():
    """Every AST node of `src/`, `tests/` and `perfbench/`, this file aside."""
    for top in SEARCHED:
        for path in sorted(top.rglob("*.py")):
            if path != THIS:
                yield from ast.walk(_parse(path))


def _calls():
    """called name -> [ast.Call], over the searched tree."""
    calls = {}
    for node in _searched_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            calls.setdefault(name, []).append(node)
    return calls


def _passed(calls, positional):
    """The names these calls pass by keyword, or by position with
    `positional` the parameters in order; None when a call unpacks
    `*args` or `**kwargs` and so may pass any of them."""
    passed = set()
    for call in calls:
        if (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)):
            return None
        passed.update(positional[:len(call.args)])
        passed.update(k.arg for k in call.keywords)
    return passed


def unset_defaults():
    calls = _calls()
    unset = []
    for path in sorted(LIBRARY.glob("*.py")):
        for qualname, called, fn, bound in _callables(_parse(path)):
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            passed = _passed(calls.get(called, []), params[bound:])
            if passed is not None:
                unset += [f"{path.stem}.{qualname}({p})"
                          for p in _defaulted(fn) if p not in passed]
    return unset


def test_every_default_is_set():
    assert sorted(set(unset_defaults()) - set(ALLOWED_DEFAULTS)) == []


def test_default_allowlist_names_unset_parameters():
    assert sorted(set(ALLOWED_DEFAULTS) - set(unset_defaults())) == []


# "<module>.<class>.<field>": reason the field stays although nothing reads it
ALLOWED_FIELDS = {}


def _dataclasses(tree):
    """(class node, annotated field nodes) for module-level classes
    decorated with `dataclass` or `dataclass(...)`."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass"
                   for d in decorators):
            continue
        yield node, [item for item in node.body
                     if isinstance(item, ast.AnnAssign)
                     and isinstance(item.target, ast.Name)]


def _dataclass_fields(tree):
    """(qualname, field) for the annotated fields of library dataclasses."""
    for cls, fields in _dataclasses(tree):
        for item in fields:
            yield f"{cls.name}.{item.target.id}", item.target.id


def unread_fields():
    reads = set()
    for top in SEARCHED:
        for path in sorted(top.rglob("*.py")):
            if path == THIS:
                continue
            tree = _parse(path)
            docs = _docstrings(tree)
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    reads.add(node.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and id(node) not in docs
                      and DOTTED.fullmatch(node.value)):
                    reads.update(node.value.split("."))
    return [f"{path.stem}.{qualname}"
            for path in sorted(LIBRARY.glob("*.py"))
            for qualname, field in _dataclass_fields(_parse(path))
            if field not in reads]


def test_every_dataclass_field_is_read():
    assert sorted(set(unread_fields()) - set(ALLOWED_FIELDS)) == []


def test_field_allowlist_names_unread_fields():
    assert sorted(set(ALLOWED_FIELDS) - set(unread_fields())) == []


# "<module>.<class>.<field>": reason its plain default stays although
# nothing sets the field
ALLOWED_UNSET_FIELDS = {}


def _plain_default(item):
    """True when an annotated field has a default other than
    `field(default_factory=...)`."""
    value = item.value
    if value is None:
        return False
    return not (isinstance(value, ast.Call)
                and any(k.arg == "default_factory" for k in value.keywords))


def unset_fields():
    calls = _calls()
    assigned = {node.attr for node in _searched_nodes()
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)}
    unset = []
    for path in sorted(LIBRARY.glob("*.py")):
        for cls, fields in _dataclasses(_parse(path)):
            names = [item.target.id for item in fields]
            passed = _passed(calls.get(cls.name, []), names)
            if passed is not None:
                unset += [f"{path.stem}.{cls.name}.{name}"
                          for item, name in zip(fields, names)
                          if _plain_default(item)
                          and name not in passed | assigned]
    return unset


def test_every_defaulted_field_is_set():
    assert sorted(set(unset_fields()) - set(ALLOWED_UNSET_FIELDS)) == []


def test_unset_field_allowlist_names_unset_fields():
    assert sorted(set(ALLOWED_UNSET_FIELDS) - set(unset_fields())) == []


def _imported_names(tree):
    """(scope, name, line) for every name an import statement binds, with
    `scope` the innermost function around it, or the module."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child)
                continue
            if isinstance(child, ast.ImportFrom) and child.module == "__future__":
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    name = alias.asname or alias.name.split(".")[0]
                    out.append((scope, name, child.lineno))
            visit(child, scope)

    visit(tree, tree)
    return out


def unused_imports():
    """Names a library module imports and never uses.  A module-level name
    also counts as used when another file imports it from that module."""
    reexported = set()              # (module stem, name)
    for top in SEARCHED:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.ImportFrom) and node.module:
                    stem = node.module.rsplit(".", 1)[-1]
                    reexported.update((stem, a.name) for a in node.names)
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = _parse(path)
        for scope, name, line in _imported_names(tree):
            used = any(isinstance(n, ast.Name) and n.id == name
                       for n in ast.walk(scope))
            if not used and not (scope is tree
                                 and (path.stem, name) in reexported):
                unused.append(f"{path.stem}:{line}:{name}")
    return unused


def test_every_import_is_used():
    assert unused_imports() == []
