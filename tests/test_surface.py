"""Every definition in the package has a caller in the package.

An `ast` walk over `src/catalab` collects each top-level function, class,
method and module constant, and requires its name to be read somewhere in
`src/` (as a name, an attribute or an import) apart from where it is
defined.  Code that only tests use does not belong in `src/`.

Two more walks close what a name match cannot see: every annotated field
of a class must be read as an attribute, and every parameter with a
default must be passed at some call of a function of that name.  A field
nothing reads and an option nothing sets are dead weight in the same way.
The field walk matches by attribute name across all classes, since `ast`
does not know an object's type: a field counts as read when any attribute
of its name is read anywhere.  A lattice `kind` field nothing read would
pass, because `Stage.kind` is read, and a `sites` or `q` field is hidden
by `gate.sites` and `state.q`.  Such fields need a grep by hand.

Imports get the same treatment: every name a module under `tests/` or
`src/catalab` imports is read in that module, apart from the package's
re-exports in `__init__.py`.
"""
from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

import catalab

SRC = Path(catalab.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# Definitions that need no caller inside the package, each with its reason.
EXEMPT = {
    "__all__": "the package's public API list, read by `from catalab import *`",
    "x_gate": "Pauli member of the named gate set next to h, s, cz, cnot and swap",
    "y_gate": "Pauli member of the named gate set next to h, s, cz, cnot and swap",
    "z_gate": "Pauli member of the named gate set next to h, s, cz, cnot and swap",
    "to_json": "JSON form of states and cochains, the entry point for round trips",
    "from_json_dict": "inverse of `to_json_dict`, the other half of the round trip",
}

# Defaulted parameters that no call in the package passes, each with its reason.
OPTION_EXEMPT = {
    "main(argv)": "the console script calls `main()`; tests and benchmarks pass argv",
    "build_hamiltonian(alpha)": "public in `catalab.__all__`; its `interpolated` "
    "kind needs alpha, and tests check that kind against the entangler",
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


def _trees() -> dict[Path, ast.Module]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no modules under {SRC}"
    return trees


def unused_definitions() -> list[str]:
    """`module:name` for each definition that nothing in the package reads.
    A method counts as read only through an attribute (`x.name`); a
    top-level definition through a name, an import or an attribute
    (`module.name`)."""
    trees = _trees()
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


def unread_fields() -> list[str]:
    """`module:Class.field` for each annotated field of a top-level class
    that nothing in the package reads as an attribute."""
    trees = _trees()
    attrs: set[str] = set()
    for tree in trees.values():
        attrs |= _uses(tree)[1]
    return [
        f"{path.name}:{node.name}.{item.target.id}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and item.target.id not in attrs
    ]


def _defaulted_parameters(node: ast.AST, cls: Optional[ast.ClassDef] = None):
    """(callee name, parameter, call position or None) for every parameter
    with a default, in every function below `node`.  The position counts the
    arguments a call writes, so a method's `self` or `cls` is left out; a
    class's `__init__` is called by the class name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(child, child)
        elif isinstance(child, ast.FunctionDef):
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
            )
            bound = 1 if cls is not None and not static else 0
            name = cls.name if cls is not None and child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield name, arg.arg, i - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None
            yield from _defaulted_parameters(child)
        else:
            yield from _defaulted_parameters(child, cls)


def _passes(call: ast.Call, param: str, position: Optional[int]) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unset_options() -> list[str]:
    """`module:function(parameter)` for each parameter with a default that
    no call in the package passes.  Calls match by the callee's bare name or
    attribute name; a call with `*args` or `**kwargs` passes everything."""
    trees = _trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append(node)
                elif isinstance(func, ast.Attribute):
                    calls.setdefault(func.attr, []).append(node)
    unset = []
    for path, tree in trees.items():
        for name, param, position in _defaulted_parameters(tree):
            key = f"{name}({param})"
            if key not in OPTION_EXEMPT and not any(
                _passes(call, param, position) for call in calls.get(name, ())
            ):
                unset.append(f"{path.name}:{key}")
    return unset


def unused_imports(paths) -> list[str]:
    """`module:name` for each name a module imports but never reads.
    `import a.b` binds `a`; `from __future__` imports bind nothing."""
    unused = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text())
        imported: list[str] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{path.name}:{name}" for name in imported if name not in read]
    return unused


def test_every_definition_has_a_caller():
    assert unused_definitions() == []


def test_every_field_has_a_reader():
    assert unread_fields() == []


def test_every_option_has_a_setter():
    assert unset_options() == []


def test_exemptions_are_still_defined():
    # An exemption for a name no longer defined would silently cover the
    # next definition of that name.
    defined = {
        name
        for path in SRC.glob("*.py")
        for name, _ in _definitions(ast.parse(path.read_text()))
    }
    assert set(EXEMPT) <= defined
    options = {
        f"{name}({param})"
        for tree in _trees().values()
        for name, param, _ in _defaulted_parameters(tree)
    }
    assert set(OPTION_EXEMPT) <= options


def test_test_modules_use_their_imports():
    assert unused_imports(TESTS.glob("*.py")) == []


def test_package_modules_use_their_imports():
    assert unused_imports(p for p in SRC.glob("*.py") if p.name != "__init__.py") == []
