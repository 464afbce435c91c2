"""The package is what its program calls.

Every top-level definition in src/homglue is reached from cli.main or from
one of ENTRY_POINTS, no entry point is stale, every module of the package
and every test file uses every name it imports and the CLI loads every
module. Test-only builders and oracles live under tests/. No check is an
assert statement, and nothing is cached by a decorator.

Every exception class the package defines is named in some except clause
of the package: a class that no caller tells apart from ValueError is a
ValueError.

Reachability is a static walk over names, by ast. A top-level definition
(a function, a class or an assignment) reaches the top-level definitions it
names: directly, through a name it imported from another module of the
package, or as an attribute of such a module (serialize.json_text). A class
reaches whatever its body names outside its methods, and its dunder methods.
Any other method, named Class.method here, is a definition of its own: it is
reached when its class is and some reached definition names it as an
attribute (g.degree, Graph._trusted), whatever the object.
"""

import ast
import functools
import importlib
import os
import pathlib
import subprocess
import sys

import homglue

PACKAGE = pathlib.Path(homglue.__file__).parent

# The definitions that callers outside the package use and cli.main does
# not reach, each with its callers. What those callers use that cli.main
# reaches (the loaders, strong_isomorphism, DEFAULT_HOM_CAP, ...) is not
# listed: an entry that cli.main reaches is stale.
ENTRY_POINTS = {
    ("sidorenko", "sidorenko_check"): "gap benchmark jobs, bench/tracer.py LAYERS",
    ("sidorenko", "forest_hom_bound_check"): "gap benchmark jobs, bench/tracer.py LAYERS",
    ("sidorenko", "brw_distribution"): "bench/tracer.py LAYERS",
    ("dists", "glue_pair"): "bench/tracer.py LAYERS",
    ("serialize", "distribution_to_json"): "bench/tracer.py LAYERS",
    ("strong", "zero_strong"): "CI's step that validates the largest level-0 path",
    ("strong", "is_strong_isomorphism"): "bench/tracer.py LAYERS, tests",
    ("graphs", "Graph.has_edge"): "bench/tracer.py counts its calls",
    ("graphs", "is_homomorphism"): "bench/tracer.py LAYERS, tests",
}


def _methods(node):
    """The methods, dunders aside, of the class node; none for any other
    node."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [
        method
        for method in node.body
        if isinstance(method, ast.FunctionDef)
        and not (method.name.startswith("__") and method.name.endswith("__"))
    ]


def _parse():
    """(defs, imports, trees): defs[module][name] is the node of a top-level
    definition; imports[module][name] is (source module, its name) for a
    name imported from the package, with None as the name for a module
    imported whole, and None for a name imported from elsewhere."""
    defs, imports, trees = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = trees[module] = ast.parse(path.read_text(), str(path))
        defs[module], imports[module] = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module][node.name] = node
                for method in _methods(node):
                    defs[module][node.name + "." + method.name] = method
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[module][name.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    source = (node.module, alias.name) if node.module else (alias.name, None)
                    imports[module][alias.asname or alias.name] = source
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imports[module][alias.asname or alias.name.split(".")[0]] = None
    return defs, imports, trees


DEFS, IMPORTS, TREES = _parse()


def _resolve(module, name):
    """The (module, name) of the top-level definition that name stands for
    in module, following imports; None for anything else."""
    while name not in DEFS[module]:
        source = IMPORTS[module].get(name)
        if source is None or source[1] is None:
            return None
        module, name = source
    return module, name


def _walk(node):
    """Every node under the definition node, itself included, less the
    methods of a class, each a definition of its own (_methods)."""
    methods = _methods(node)
    todo = [node]
    while todo:
        sub = todo.pop()
        yield sub
        todo.extend(c for c in ast.iter_child_nodes(sub) if c not in methods)


def _refers_to(module, node):
    """The top-level definitions of the package that node names."""
    found = set()
    for sub in _walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            target = _resolve(module, sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            source = IMPORTS[module].get(sub.value.id)
            whole = source is not None and source[1] is None
            target = _resolve(source[0], sub.attr) if whole else None
        else:
            continue
        if target is not None:
            found.add(target)
    return found


METHODS = [(module, name) for module, names in DEFS.items() for name in names if "." in name]


def _reached(roots):
    """The definitions reached from roots; a root the package does not
    define reaches nothing. A method is reached once its class is and its
    name is an attribute that a reached definition names."""
    seen, named = set(), set()  # named: every attribute a reached definition names
    todo = list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            node = DEFS.get(key[0], {}).get(key[1])
            if node is not None:
                todo.extend(_refers_to(key[0], node))
                named.update(sub.attr for sub in _walk(node) if isinstance(sub, ast.Attribute))
        if not todo:
            todo = [
                (module, name)
                for module, name in METHODS
                if (module, name) not in seen
                and (module, name.split(".")[0]) in seen
                and name.split(".")[1] in named
            ]
    return seen


def _where(module, name):
    return "homglue.%s.%s (%s.py:%d)" % (module, name, module, DEFS[module][name].lineno)


def test_every_definition_is_reached_from_the_cli_or_an_entry_point():
    reached = _reached([("cli", "main"), *ENTRY_POINTS])
    unreached = [
        _where(module, name)
        for module, names in sorted(DEFS.items())
        for name in names
        if (module, name) not in reached
    ]
    assert not unreached, "reached neither from cli.main nor from ENTRY_POINTS: " + ", ".join(
        unreached
    )


def test_every_entry_point_exists_and_is_not_reached_from_the_cli():
    missing = ["homglue.%s.%s" % e for e in ENTRY_POINTS if e[1] not in DEFS.get(e[0], {})]
    assert not missing, "ENTRY_POINTS names what the package does not define: " + ", ".join(
        missing
    )
    from_main = _reached([("cli", "main")])
    stale = ["homglue.%s.%s" % e for e in ENTRY_POINTS if e in from_main]
    assert not stale, "ENTRY_POINTS names what cli.main already reaches: " + ", ".join(stale)


def _unused(where, tree, imported):
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return ["%s imports %s" % (where, name) for name in imported if name not in used]


def test_every_imported_name_is_used():
    # in the package and in the test files alike
    unused = []
    for module, tree in sorted(TREES.items()):
        unused += _unused(module + ".py", tree, IMPORTS[module])
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        unused += _unused("tests/" + path.name, tree, imported)
    assert not unused, "never used: " + ", ".join(unused)


def _module(module):
    return importlib.import_module("homglue" if module == "__init__" else "homglue." + module)


def test_every_exception_class_is_caught_somewhere_in_the_package():
    caught = set()
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _refers_to(module, node.type)
    uncaught = []
    for module, names in sorted(DEFS.items()):
        for name in names:
            obj = functools.reduce(getattr, name.split("."), _module(module))
            if isinstance(obj, type) and issubclass(obj, BaseException) and (module, name) not in caught:
                uncaught.append(_where(module, name))
    assert not uncaught, "no except clause in the package names: " + ", ".join(uncaught)


def _decorator_name(d):
    d = d.func if isinstance(d, ast.Call) else d
    return getattr(d, "attr", getattr(d, "id", None))


def test_no_assert_statements_or_cache_decorators():
    # python -O strips assert statements, so a check in the package must
    # raise; and the package keeps no module-global unbounded caches, so no
    # function or method is decorated with functools.cache or lru_cache
    found = []
    for module, tree in sorted(TREES.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append("assert statement at %s.py:%d" % (module, node.lineno))
            for d in getattr(node, "decorator_list", ()):
                if _decorator_name(d) in ("cache", "lru_cache"):
                    found.append("cache decorator at %s.py:%d" % (module, d.lineno))
    assert not found, ", ".join(found)


def test_the_cli_loads_every_module():
    # in a fresh interpreter, which has loaded no module of the package yet
    script = "import sys, homglue.cli; print(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    package = {"homglue" if module == "__init__" else "homglue." + module for module in TREES}
    unloaded = sorted(package - set(proc.stdout.split()))
    assert not unloaded, "import homglue.cli leaves unloaded: " + ", ".join(unloaded)
