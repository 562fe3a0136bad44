"""Export guard: no public name that only tests reach.

Every public top-level function and class of every module in src/gifsdim,
and every name in a module's __all__, must either be re-exported by
gifsdim.__all__ or be referenced somewhere in src/gifsdim outside its own
definition and the __all__ lists.  A name that meets neither is library
code that only tests call.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gifsdim"


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _public_names(tree):
    defined = [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    return dict.fromkeys(defined + _all_names(tree))


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
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    exported = set(_all_names(trees["__init__"]))
    unreached = []
    for module in sorted(trees):
        for name in _public_names(trees[module]):
            if name in exported:
                continue
            used = any(
                name in _references(tree, name if stem == module else None)
                for stem, tree in trees.items()
            )
            if not used:
                unreached.append(f"{module}.{name}")
    assert unreached == []
