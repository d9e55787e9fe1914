"""Package structure: no dead imports, no private name that nothing reads
or calls, and no private default that nothing sets.

Every module of `src/affdims` is parsed with `ast`.  Outside `__init__.py`,
which re-exports the public names, each imported name must be read in its
module.  Each module-level private function, class or constant must be
named by some other line of the package: a load, an attribute or an
import.  A helper left behind when its last caller moved, or a limit whose
check was deleted, fails here.  Each module-level private function and
each private method must be called by name in the package or its tests,
and each defaulted parameter of a module-level private function must be
passed by some call there.
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


def _calls():
    """Every call in the package and its tests, by the name it calls: a
    plain name or the attribute of a method call."""
    tests = Path(__file__).resolve().parent
    calls = {}
    for path in [*PACKAGE.glob("*.py"), *tests.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_private_function_and_method_is_called():
    # A private helper that is only passed around, never called by name,
    # such as a hook no value reaches, is dead weight.
    calls = _calls()
    uncalled = []
    for module, tree in _trees().items():
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            uncalled += [f"{module}: {func.name}" for func in body
                         if isinstance(func, ast.FunctionDef)
                         and _private(func.name) and func.name not in calls]
    assert not uncalled


def test_every_default_of_a_private_function_is_passed_somewhere():
    # A defaulted parameter that no call in the package or its tests ever
    # sets is a constant in disguise.
    calls = _calls()
    unset = []
    for module, tree in _trees().items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) \
                    or not _private(node.name):
                continue
            for index, name in _defaulted_parameters(node):
                if not any(_passes(call, index, name)
                           for call in calls.get(node.name, [])):
                    unset.append(f"{module}: {node.name}({name}=...)")
    assert not unset
