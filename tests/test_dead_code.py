"""Every function, class and method of the library is reached from what
the commands, the pipeline and the benchmark run; every parameter with a
default is set there, and every dataclass field is read there.

The reach, parameter and field rules search `src/` and `perfbench/`
only (`REACHING`), and attribute each use to a module:

- a bare name resolves through the imports of its own file, or to its
  defining module when used in that module; any other bare name (a
  local variable) uses nothing;
- `m.f` on an imported library module `m` uses `m.f` only; an attribute
  on anything else uses only methods of that name;
- a string (not a docstring) uses a definition only when it names it
  together with its module or class: `"ideal_walk.check_membership"`,
  `"NumberField.embed"`, or the tracer's pair
  `("nf_core", "NumberField.embed")`.

Every library definition is reached: used, in that sense, outside its
own body and outside every definition not yet reached.  The reached set
grows from the entry points in `ENTRY_POINTS` until nothing more is
added, so definitions that only use one another (a chain or a cycle)
stay unreached.  Imports are not uses (the imported name's own uses
count).

A parameter with a default (of a module-level function, of a method, or
of a class's `__init__`) counts as set when some call in `REACHING` that
resolves to it, as above, passes it, by keyword or by position; a call
that unpacks `*args` or `**kwargs` sets them all.  Passing a literal
equal to the default (`None`, `False`, a number, a string) sets nothing.

Every field of a library dataclass is read: its name is loaded as an
attribute in `REACHING` that is not the callee of a call (`box.dim()`
reads no field `dim`), or a string names it with its class.  Every field
with a plain default (not a `default_factory`) is set there: passed in a
call of its class other than as its default's literal, or assigned as an
attribute.  Inside the class's own module, passing the same field of
another instance (`max_tours=cfg.max_tours`) only forwards it and sets
nothing.  A default that nothing sets is a constant.

Every name a library module imports is used in the scope that imports it
(the module, or the function holding a local import), or, for a
module-level import, imported from that module by another file.
"""

import ast
import pathlib
import re

THIS = pathlib.Path(__file__).resolve()
ROOT = THIS.parent.parent
LIBRARY = ROOT / "src" / "latnf"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


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


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


# Searched by the reach, parameter and field rules: what the commands,
# the pipeline and the benchmark run, without the tests.
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
        "error budget of gram_det_interval, with the ||B^-1|| bound "
        "inlined, kept with it (ROADMAP item 2)",
    "det_verify.DetVerdict":
        "result of gram_det_interval, kept with it (ROADMAP item 2)",
}


class _Library:
    """The library's modules: the names each defines at module level, and
    the modules defining each class name."""

    def __init__(self, library):
        self.root = library
        self.package = library.name
        self.paths = sorted(library.glob("*.py"))
        self.top, self.classes = {}, {}
        for path in self.paths:
            body = _parse(path).body
            self.top[path.stem] = {
                node.name for node in body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))}
            for node in body:
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, []).append(path.stem)

    def bindings(self, path, tree):
        """(modules, names) of one file: the local names bound to a library
        module, and to a definition key "<module>.<name>" (through an
        import, or as the file's own module-level definitions)."""
        modules, names = {}, {}
        if path.parent == self.root:
            names = {name: f"{path.stem}.{name}"
                     for name in self.top[path.stem]}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if (alias.asname and len(parts) == 2
                            and parts[0] == self.package
                            and parts[1] in self.top):
                        modules[alias.asname] = parts[1]
                continue
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level:
                relative = module
            elif module == self.package:
                relative = ""
            elif module.startswith(self.package + "."):
                relative = module[len(self.package) + 1:]
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if not relative and alias.name in self.top:
                    modules[local] = alias.name
                elif alias.name in self.top.get(relative, ()):
                    names[local] = f"{relative}.{alias.name}"
        return modules, names

    def strings(self, tree):
        """(key, line) for each string naming a definition together with
        its module ("<module>.<qualname>", or the pair ("<module>",
        "<qualname>")) or its class ("<class>.<method>")."""
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Tuple) and len(node.elts) == 2
                    and all(isinstance(e, ast.Constant)
                            and isinstance(e.value, str) for e in node.elts)
                    and node.elts[0].value in self.top):
                yield f"{node.elts[0].value}.{node.elts[1].value}", node.lineno
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in docs
                  and DOTTED.fullmatch(node.value) and "." in node.value):
                head = node.value.split(".", 1)[0]
                if head in self.top:
                    yield node.value, node.lineno
                for stem in self.classes.get(head, []):
                    yield f"{stem}.{node.value}", node.lineno


def _target(node, modules, names):
    """What a name or attribute node uses: a definition key, ".<attr>" for
    an attribute on anything but a module (only a method can be that), or
    None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id in modules:
            return f"{modules[node.value.id]}.{node.attr}"
        return "." + node.attr
    return None


def _files(reaching):
    for top in reaching:
        yield from sorted(top.rglob("*.py"))


def _targets_of(key):
    """The use targets that reach a definition key: the key itself, and
    ".<name>" for a method."""
    return [key] + (["." + key.rsplit(".", 1)[-1]] if key.count(".") == 2
                    else [])


def unreached_definitions(library=LIBRARY, reaching=REACHING,
                          entry_points=ENTRY_POINTS):
    lib = _Library(library)
    spans = {}              # "<module>.<qualname>" -> (path, first, last)
    for path in lib.paths:
        for qualname, node in _definitions(_parse(path)):
            spans[f"{path.stem}.{qualname}"] = (path, node.lineno,
                                                 node.end_lineno)
    uses = {}               # target -> [(path, line)]
    for path in _files(reaching):
        tree = _parse(path)
        modules, names = lib.bindings(path, tree)
        for node in ast.walk(tree):
            target = _target(node, modules, names)
            if target is not None:
                uses.setdefault(target, []).append((path, node.lineno))
        for key, line in lib.strings(tree):
            uses.setdefault(key, []).append((path, line))

    def inside(path, line, key):
        p, first, last = spans[key]
        return p == path and first <= line <= last

    reached = set(entry_points) & set(spans)
    grew = True
    while grew:
        grew = False
        unreached = [key for key in spans if key not in reached]
        for key in unreached:
            if any(not any(inside(path, line, u) for u in unreached)
                   for target in _targets_of(key)
                   for path, line in uses.get(target, [])):
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


def _callables(path, tree):
    """(qualname, targets, node, bound) for module-level functions, methods
    and `__init__`s; `targets` are the call targets that call it, and
    `bound` is the number of leading parameters the call does not pass
    (self or cls)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, [f"{path.stem}.{node.name}"], node, 0
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                targets = ([f"{path.stem}.{node.name}"]
                           if item.name == "__init__" else ["." + item.name])
                yield (f"{node.name}.{item.name}", targets, item,
                       0 if static else 1)


def _defaults(fn):
    """parameter -> default node, for the parameters with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    out = dict(zip([a.arg for a in positional[len(positional)
                                              - len(args.defaults):]],
                   args.defaults))
    out.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None)
    return out


def _calls(lib, reaching):
    """call target -> [(path, ast.Call)], over the searched tree."""
    calls = {}
    for path in _files(reaching):
        tree = _parse(path)
        modules, names = lib.bindings(path, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                target = _target(node.func, modules, names)
                if target is not None:
                    calls.setdefault(target, []).append((path, node))
    return calls


def _same_literal(arg, default) -> bool:
    """Whether an argument is the literal its default is (`None`, a bool,
    a number or a string), so that passing it sets nothing."""
    return (isinstance(arg, ast.Constant) and isinstance(default, ast.Constant)
            and type(arg.value) is type(default.value)
            and arg.value == default.value)


def _forwarded(name, arg) -> bool:
    """Whether an argument for `name` is `<obj>.name`, the same field of
    another instance."""
    return isinstance(arg, ast.Attribute) and arg.attr == name


def _passed(calls, positional, defaults, own=None):
    """The names these (path, call) pairs pass by keyword, or by position
    with `positional` the parameters in order, other than as the literal
    of their entry in `defaults`, or, in a call made in the file `own`,
    as `<obj>.<name>`; None when a call unpacks `*args` or `**kwargs` and
    so may pass any of them."""
    passed = set()
    for path, call in calls:
        if (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)):
            return None
        args = list(zip(positional, call.args))
        args += [(k.arg, k.value) for k in call.keywords]
        passed.update(name for name, arg in args
                      if not _same_literal(arg, defaults.get(name))
                      and not (path == own and _forwarded(name, arg)))
    return passed


def unset_defaults(library=LIBRARY, reaching=REACHING):
    lib = _Library(library)
    calls = _calls(lib, reaching)
    unset = []
    for path in lib.paths:
        for qualname, targets, fn, bound in _callables(path, _parse(path)):
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            defaults = _defaults(fn)
            passed = _passed([c for t in targets for c in calls.get(t, [])],
                             params[bound:], defaults)
            if passed is not None:
                unset += [f"{path.stem}.{qualname}({p})"
                          for p in defaults if p not in passed]
    return unset


# "<module>.<qualname>(<parameter>)": reason its default stays although no
# call in `REACHING` passes it
ALLOWED_DEFAULTS = {
    "cli.main(argv)":
        "console-script entry point: the script passes nothing and reads "
        "sys.argv, the tests pass the arguments",
    "relations.modulus_branch(x_override)":
        "the tests' only way into the branch with a nontrivial m0",
}


def test_every_default_is_set():
    assert sorted(set(unset_defaults()) - set(ALLOWED_DEFAULTS)) == []


def test_default_allowlist_names_unset_parameters():
    assert sorted(set(ALLOWED_DEFAULTS) - set(unset_defaults())) == []


# "<module>.<class>.<field>": reason the field stays although nothing in
# `REACHING` reads it
ALLOWED_FIELDS = {
    "det_verify.DetVerdict.status":
        "verdict of gram_det_interval, kept for the certified verdict of "
        "verify_full (ROADMAP item 2)",
    "det_verify.DetVerdict.det_gram":
        "determinant window of gram_det_interval, kept with it (ROADMAP "
        "item 2)",
    "det_verify.DetVerdict.threshold":
        "error budget of gram_det_interval, kept with it (ROADMAP item 2)",
    "det_verify.RhoBracket.lo":
        "lower residue endpoint, kept for the certified D endpoints "
        "(ROADMAP item 2)",
    "det_verify.RhoBracket.hi":
        "upper residue endpoint, kept for the certified D endpoints "
        "(ROADMAP item 2)",
}


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


def unread_fields(library=LIBRARY, reaching=REACHING):
    """Library dataclass fields that nothing in `reaching` reads: a read
    is an attribute load that is not the callee of a call (`box.dim()`
    reads no field `dim`), or a string naming the field with its class."""
    lib = _Library(library)
    reads, named = set(), set()
    for path in _files(reaching):
        tree = _parse(path)
        callees = {id(node.func) for node in ast.walk(tree)
                   if isinstance(node, ast.Call)}
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load)
                     and id(node) not in callees)
        named.update(key for key, _line in lib.strings(tree))
    return [f"{path.stem}.{cls.name}.{item.target.id}"
            for path in lib.paths
            for cls, fields in _dataclasses(_parse(path))
            for item in fields
            if item.target.id not in reads
            and f"{path.stem}.{cls.name}.{item.target.id}" not in named]


def test_every_dataclass_field_is_read():
    assert sorted(set(unread_fields()) - set(ALLOWED_FIELDS)) == []


def test_field_allowlist_names_unread_fields():
    assert sorted(set(ALLOWED_FIELDS) - set(unread_fields())) == []


# "<module>.<class>.<field>": reason its plain default stays although
# nothing in `REACHING` sets the field
ALLOWED_UNSET_FIELDS = {
    "bkz.BkzConfig.max_tours":
        "the tests' only way below the tour cap's 64-tour floor; bkz_full "
        "only forwards it to its blocks",
}


def _plain_default(item):
    """True when an annotated field has a default other than
    `field(default_factory=...)`."""
    value = item.value
    if value is None:
        return False
    return not (isinstance(value, ast.Call)
                and any(k.arg == "default_factory" for k in value.keywords))


def unset_fields(library=LIBRARY, reaching=REACHING):
    lib = _Library(library)
    calls = _calls(lib, reaching)
    assigned = {node.attr for path in _files(reaching)
                for node in ast.walk(_parse(path))
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)}
    unset = []
    for path in lib.paths:
        for cls, fields in _dataclasses(_parse(path)):
            names = [item.target.id for item in fields]
            passed = _passed(calls.get(f"{path.stem}.{cls.name}", []), names,
                             {item.target.id: item.value for item in fields},
                             path)
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


def test_the_rules_on_a_small_tree(tmp_path):
    """The reach, parameter and field rules flag a name defined in two
    modules and reached through one of them only, a defaulted parameter
    that only a test sets, one that the tree passes only as its default's
    literal, a field read only as the callee of a same-named method call,
    a defaulted field that the tree passes only as its default's literal,
    and one that only its own module passes, forwarded from another
    instance; a field forwarded from another module is set."""
    files = {
        "src/pkg/__init__.py": "",
        "src/pkg/a.py": (
            "from dataclasses import dataclass\n\n\n"
            "def helper(x, scale=1):\n    return x * scale\n\n\n"
            "def pad(x, fill=None):\n    return x, fill\n\n\n"
            "@dataclass\nclass Box:\n    dim: int\n    pad: int = 0\n"
            "    depth: int = 1\n    gap: int = 1\n\n\n"
            "def grow(box):\n"
            "    return Box(0, pad=box.pad, depth=box.depth)\n\n\n"
            "class Grid:\n    def dim(self):\n        return 2\n"),
        "src/pkg/b.py": "def helper(x):\n    return x\n",
        "perfbench/run.py": (
            "from pkg import a\n\n"
            "a.helper(1)\na.pad(1, fill=None)\na.Box(3, pad=0).pad\n"
            "a.Grid().dim()\nold = a.Box(1)\na.grow(a.Box(3, gap=old.gap))\n"),
        "tests/test_a.py": (
            "from pkg import a, b\n\n"
            "a.helper(1, scale=2)\na.pad(1, 0)\nb.helper(1)\na.Box(3).dim\n"
            "a.Box(3, depth=2)\n"),
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    library = tmp_path / "src" / "pkg"
    reaching = [tmp_path / "src", tmp_path / "perfbench"]
    assert unreached_definitions(library, reaching, {}) == ["b.helper"]
    assert unset_defaults(library, reaching) == ["a.helper(scale)",
                                                 "a.pad(fill)"]
    assert unread_fields(library, reaching) == ["a.Box.dim"]
    assert unset_fields(library, reaching) == ["a.Box.pad", "a.Box.depth"]
