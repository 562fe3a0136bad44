"""Export guard: no public name that only tests reach, no orphaned
private helper, and no unused import.

Every public top-level function and class of every module in src/gifsdim,
and every name in a module's __all__, must either be re-exported by
gifsdim.__all__ or be referenced somewhere in src/gifsdim outside its own
definition and the __all__ lists.  A name that meets neither is library
code that only tests call.  A re-export alone does not make a name used:
every name in gifsdim.__all__ must also be referenced in src/gifsdim
outside __init__.py and its own definition, or be named in README.md.
Every private top-level function and class must be referenced somewhere
in src/gifsdim outside its own definition, and every name a module
imports must be read in that module.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gifsdim"


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _defined_names(tree, private):
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
    ]


def _public_names(tree):
    return dict.fromkeys(_defined_names(tree, False) + _all_names(tree))


def _references(tree, skip):
    """Names read in tree, leaving out __all__ and the top-level
    definition named skip."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Assign) and _all_names(ast.Module([node], [])):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _used_in_package(trees, module, name):
    return any(name in _references(tree, name if stem == module else None)
               for stem, tree in trees.items())


def test_every_guarded_public_name_is_exported_or_used():
    trees = _trees()
    exported = set(_all_names(trees["__init__"]))
    unreached = [f"{module}.{name}" for module in sorted(trees)
                 for name in _public_names(trees[module])
                 if name not in exported and not _used_in_package(trees, module, name)]
    assert unreached == []


def test_every_private_helper_is_used():
    trees = _trees()
    orphaned = [f"{module}.{name}" for module in sorted(trees)
                for name in _defined_names(trees[module], True)
                if not _used_in_package(trees, module, name)]
    assert orphaned == []


def test_every_export_is_used_or_documented():
    trees = _trees()
    readme = (ROOT / "README.md").read_text()
    home = {alias.asname or alias.name: node.module
            for node in trees["__init__"].body if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    others = {stem: tree for stem, tree in trees.items() if stem != "__init__"}
    unreached = [name for name in _all_names(trees["__init__"])
                 if not _used_in_package(others, home[name], name)
                 and not re.search(rf"\b{name}\b", readme)]
    assert unreached == []


def test_every_import_is_read():
    unread = []
    for stem, tree in _trees().items():
        if stem == "__init__":
            continue
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [f"{stem}.{bound}" for alias in node.names
                           if (bound := (alias.asname or alias.name).split(".")[0])
                           not in read]
    assert unread == []
