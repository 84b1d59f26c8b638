"""Every definition in the package has a caller in the package.

An `ast` walk over `src/catalab` collects each top-level function, class,
method and module constant, and requires its name to be read somewhere in
`src/` (as a name, an attribute or an import) apart from where it is
defined.  Code that only tests use does not belong in `src/`.
"""
from __future__ import annotations

import ast
from pathlib import Path

import catalab

SRC = Path(catalab.__file__).resolve().parent

# Definitions that need no caller inside the package, each with its reason.
EXEMPT = {
    "__all__": "the package's public API list, read by `from catalab import *`",
    "x_gate": "Pauli member of the named gate set next to h, s, cz, cnot and swap",
    "y_gate": "Pauli member of the named gate set next to h, s, cz, cnot and swap",
    "z_gate": "Pauli member of the named gate set next to h, s, cz, cnot and swap",
    "to_json": "JSON form of states and cochains, the entry point for round trips",
    "from_json_dict": "inverse of `to_json_dict`, the other half of the round trip",
}


def _definitions(tree: ast.Module):
    """(name, is_method) for top-level functions, classes and constants, and
    for the methods of top-level classes.  Protocol dunders such as
    `__post_init__` or `__mul__` are called implicitly and are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, False


def _uses(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names read as a bare name or imported, names read as an attribute)."""
    names: set[str] = set()
    attrs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attrs


def unused_definitions() -> list[str]:
    """`module:name` for each definition that nothing in the package reads.
    A method counts as read only through an attribute (`x.name`); a
    top-level definition through a name, an import or an attribute
    (`module.name`)."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no modules under {SRC}"
    names: set[str] = set()
    attrs: set[str] = set()
    for tree in trees.values():
        n, a = _uses(tree)
        names |= n
        attrs |= a
    unused = []
    for path, tree in trees.items():
        for name, is_method in _definitions(tree):
            read = name in attrs or (not is_method and name in names)
            if name not in EXEMPT and not read:
                unused.append(f"{path.name}:{name}")
    return unused


def test_every_definition_has_a_caller():
    assert unused_definitions() == []


def test_exemptions_are_still_defined():
    # An exemption for a name no longer defined would silently cover the
    # next definition of that name.
    defined = {
        name
        for path in SRC.glob("*.py")
        for name, _ in _definitions(ast.parse(path.read_text()))
    }
    assert set(EXEMPT) <= defined
