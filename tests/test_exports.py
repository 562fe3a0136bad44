"""Export guard: no public name that only tests reach.

Every name in the __all__ of pressure, dimension and render must either be
re-exported by gifsdim.__all__ or be referenced somewhere in src/gifsdim
outside its own definition and the __all__ lists.  A name that meets
neither is library code that only tests call.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gifsdim"
GUARDED = ("pressure", "dimension", "render")


def _module(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


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


def test_every_guarded_public_name_is_exported_or_used():
    exported = set(_all_names(_module("__init__")))
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    unreached = []
    for module in GUARDED:
        for name in _all_names(trees[module]):
            if name in exported:
                continue
            used = any(
                name in _references(tree, name if stem == module else None)
                for stem, tree in trees.items()
            )
            if not used:
                unreached.append(f"{module}.{name}")
    assert unreached == []
