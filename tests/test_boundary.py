"""Only `catalab.stabilizer` reads the tableau rows of a Clifford handle,
and only `gf2.span_basis` runs the one elimination, `gf2._reduce`.

A gate's rows and support mask, a handle's tableau and its dual, and a
circuit's per-site gate index all share one (x, z, phase) int layout.  Every
other module asks the handle instead (`gates`, `perm`, `spread`,
`doubled_tableau`, and a gate's `local_rows` and `fixes`) or passes it to
`conjugated_gate`, so a change of that layout stays in one module.

An `ast` walk over every other module of `src/catalab` finds no read of
those attributes and no import or attribute read of the routines that work
on rows.  `_TableauHandle` stays importable: modules subclass it and test
for it, and neither reads a row.

Every GF(2) question in `src/catalab` is answered from one `span_basis`
form, so a second reduction with its own row layout cannot creep back in:
a second `ast` walk lists every function that reads `_reduce`.
"""
from __future__ import annotations

import ast
from pathlib import Path

import catalab

SRC = Path(catalab.__file__).resolve().parent

ROW_ATTRIBUTES = {"rows", "_mask", "_tableau", "_inverse_tableau", "_site_gates"}
ROW_ROUTINES = {"_image", "_dual", "_walk", "_prove", "_reach"}


def row_readers(source: str) -> list[str]:
    """Each read of a row attribute or routine, and each import of a
    routine, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr in ROW_ATTRIBUTES | ROW_ROUTINES:
                found.append((node.lineno, f"reads .{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"imports {a.name}") for a in node.names if a.name in ROW_ROUTINES]
    return [f"line {line} {what}" for line, what in sorted(found)]


def test_only_the_stabilizer_module_reads_tableau_rows():
    readers = {
        path.name: row_readers(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "stabilizer.py"
    }
    assert {name: found for name, found in readers.items() if found} == {}


def test_the_row_scan_sees_every_form():
    source = (
        "from .stabilizer import _TableauHandle, _image as image, conjugated_gate\n"
        "from . import stabilizer\n"
        "a = gate.rows\n"
        "b = qca._inverse_tableau[0]\n"
        "c = stabilizer._walk\n"
        "gate.local_rows, qca.spread(lattice), circuit.gates, qca.perm\n"
        "class DoubledCircuit(_TableauHandle):\n"
        "    _tableau: tuple = ()\n"
    )
    assert row_readers(source) == [
        "line 1 imports _image",
        "line 3 reads .rows",
        "line 4 reads ._inverse_tableau",
        "line 5 reads ._walk",
    ]


def reduce_readers(source: str, module: str) -> list[str]:
    """Each read or import of `_reduce`, by name or as an attribute, as
    'module.function' of the innermost enclosing function ('module' at
    the top level), in line order."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        if isinstance(node, ast.Name) and node.id == "_reduce" and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, where))
        elif isinstance(node, ast.Attribute) and node.attr == "_reduce" and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, where))
        elif isinstance(node, ast.ImportFrom) and any(a.name == "_reduce" for a in node.names):
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return [where for _, where in sorted(found)]


def test_only_span_basis_runs_the_elimination():
    readers = {
        reader
        for path in sorted(SRC.glob("*.py"))
        for reader in reduce_readers(path.read_text(), path.stem)
    }
    assert readers == {"gf2.span_basis"}


def test_the_reduce_scan_sees_every_form():
    source = (
        "from .gf2 import _reduce as eliminate\n"
        "def outer(rows):\n"
        "    def inner():\n"
        "        return gf2._reduce(rows, 0)\n"
        "    step = _reduce\n"
        "    return _reduce(rows, 0)\n"
        "def _reduce(rows, low):\n"
        "    gf2._reduce = None\n"
        "    return reduce(rows)\n"
    )
    assert reduce_readers(source, "m") == ["m", "m.inner", "m.outer", "m.outer"]
