"""Package structure: no dead imports, no private name that nothing reads,
and no private default that nothing sets.

Every module of `src/affdims` is parsed with `ast`.  Outside `__init__.py`,
which re-exports the public names, each imported name must be read in its
module.  Each module-level private function, class or constant must be
named by some other line of the package: a load, an attribute or an
import.  A helper left behind when its last caller moved, or a limit whose
check was deleted, fails here.  Each defaulted parameter of a module-level
private function must be passed by some call in the package or its tests.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "affdims"


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _loads(tree):
    """Every name the module reads: loaded names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _private_definitions(tree):
    """Module-level private functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id


def test_no_dead_import_or_unread_private_name():
    trees = _trees()
    named, dead = set(), []
    for name, tree in trees.items():
        loads = _loads(tree)
        named |= loads
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                named.add(alias.name)
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in loads and name != "__init__.py":
                    dead.append(f"{name}: import {bound}")
    for name, tree in trees.items():
        dead += [f"{name}: {private}"
                 for private in _private_definitions(tree)
                 if private.startswith("_") and not private.startswith("__")
                 and private not in named]
    assert not dead


def _defaulted_parameters(func):
    """(index, name) of each parameter of a function that has a default;
    keyword-only ones have index None."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield index, arg.arg
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passes(call, index, name):
    """Whether a call passes the parameter, by position, by keyword, or by
    a * or ** expansion."""
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if index is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or index < len(call.args))


def test_every_default_of_a_private_function_is_passed_somewhere():
    # A defaulted parameter that no call in the package or its tests ever
    # sets is a constant in disguise.
    tests = Path(__file__).resolve().parent
    calls = {}
    for path in [*PACKAGE.glob("*.py"), *tests.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for module, tree in _trees().items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) \
                    or not node.name.startswith("_") \
                    or node.name.startswith("__"):
                continue
            for index, name in _defaulted_parameters(node):
                if not any(_passes(call, index, name)
                           for call in calls.get(node.name, [])):
                    unset.append(f"{module}: {node.name}({name}=...)")
    assert not unset
