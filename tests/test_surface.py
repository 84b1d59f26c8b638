"""Every definition in the package has a caller in the package.

An `ast` walk over `src/catalab` collects each top-level function, class,
method and module constant, and requires its name to be read somewhere in
`src/` apart from where it is defined: as an attribute anywhere, or as a
bare name in its own module or in a module that imports it, so that a local
variable of the same name does not count.  Code that only tests use does
not belong in `src/`.

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
re-exports in `__init__.py`.  And only `catalab._numpy` imports numpy, so
that a command which never reads numpy never loads it.

Last, every `allclose` or `isclose` call in the package passes `rtol`:
numpy's default rtol=1e-5 lets entries near 1 pass at about 1e-5, whatever
bound the `atol` beside it and the error message state.
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
    "to_json": "JSON form of states and cochains, the entry point for round trips",
    "from_json_dict": "inverse of `to_json_dict`, the other half of the round trip",
    "__getattr__": "the package's PEP 562 hook, which Python calls to resolve "
    "`catalab.DenseState` and the other classes of deferred modules on first read",
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


def _uses(tree: ast.Module) -> tuple[set[str], set[str], set[str]]:
    """(names read as a bare name, names imported, names read as an attribute)."""
    names: set[str] = set()
    imported: set[str] = set()
    attrs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.name for alias in node.names)
    return names, imported, attrs


def _trees() -> dict[Path, ast.Module]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no modules under {SRC}"
    return trees


def unused_definitions(trees: dict[Path, ast.Module]) -> list[str]:
    """`module:name` for each definition that nothing in the package reads.
    A method counts as read only through an attribute (`x.name`); a
    top-level definition through an attribute (`module.name`), or through a
    bare name read in its own module or in a module that imports the name.
    A local variable of the same name elsewhere does not count."""
    uses = {path: _uses(tree) for path, tree in trees.items()}
    attrs: set[str] = set()
    imported_reads: set[str] = set()
    for names, imported, a in uses.values():
        attrs |= a
        imported_reads |= names & imported
    unused = []
    for path, tree in trees.items():
        local = uses[path][0]
        for name, is_method in _definitions(tree):
            read = name in attrs or (not is_method and (name in local or name in imported_reads))
            if name not in EXEMPT and not read:
                unused.append(f"{path.name}:{name}")
    return unused


def unread_fields() -> list[str]:
    """`module:Class.field` for each annotated field of a top-level class
    that nothing in the package reads as an attribute."""
    trees = _trees()
    attrs: set[str] = set()
    for tree in trees.values():
        attrs |= _uses(tree)[2]
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


def numpy_imports(trees: dict[Path, ast.Module]) -> list[str]:
    """`module:line` for each `import numpy...` or `from numpy... import`
    outside `_numpy.py`."""
    found = []
    for path, tree in trees.items():
        if path.name == "_numpy.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def tolerance_calls_without_rtol(trees: dict[Path, ast.Module]) -> list[str]:
    """`module:line` for each `allclose` or `isclose` call, bare or as an
    attribute, that passes no rtol, by keyword or as its third argument."""
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("allclose", "isclose") and len(node.args) < 3:
                if not any(keyword.arg == "rtol" for keyword in node.keywords):
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_every_definition_has_a_caller():
    assert unused_definitions(_trees()) == []


def test_a_local_variable_of_the_same_name_is_not_a_caller():
    trees = {
        Path("a.py"): ast.parse("def overlap(u, v):\n    return u * v\n"),
        Path("b.py"): ast.parse("def f():\n    overlap = 1\n    return overlap\n\n\nf()\n"),
    }
    assert unused_definitions(trees) == ["a.py:overlap"]
    trees[Path("b.py")] = ast.parse("from .a import overlap\n\n\noverlap(1, 2)\n")
    assert unused_definitions(trees) == []


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


def test_only_the_numpy_shim_imports_numpy():
    assert numpy_imports(_trees()) == []


def test_the_numpy_import_scan_sees_every_form():
    text = "import numpy as np\nimport numpy.linalg\nfrom numpy import fft\nfrom ._numpy import np\n"
    trees = {Path("a.py"): ast.parse(text), Path("_numpy.py"): ast.parse("import numpy\n")}
    assert numpy_imports(trees) == ["a.py:1", "a.py:2", "a.py:3"]


def test_every_tolerance_call_passes_rtol():
    assert tolerance_calls_without_rtol(_trees()) == []


def test_the_rtol_scan_sees_every_form():
    text = (
        "np.allclose(a, b, atol=1e-12)\nisclose(a, b)\nnp.isclose(a, b, atol=1e-9)\n"
        "np.allclose(a, b, rtol=0, atol=1e-12)\nnp.isclose(a, b, 0, 1e-9)\nnp.close(a, b)\n"
    )
    assert tolerance_calls_without_rtol({Path("a.py"): ast.parse(text)}) == ["a.py:1", "a.py:2", "a.py:3"]
