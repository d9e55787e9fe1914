"""Package structure: no dead imports, and no private name that nothing reads.

Every module of `src/affdims` is parsed with `ast`.  Outside `__init__.py`,
which re-exports the public names, each imported name must be read in its
module.  Each module-level private function, class or constant must be
named by some other line of the package: a load, an attribute or an
import.  A helper left behind when its last caller moved, or a limit whose
check was deleted, fails here.
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
