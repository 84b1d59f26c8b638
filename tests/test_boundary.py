"""Only `catalab.stabilizer` reads the tableau rows of a Clifford handle.

A gate's rows and support mask, a handle's tableau and its dual, and a
circuit's per-site gate index all share one (x, z, phase) int layout.  Every
other module asks the handle instead (`gates`, `perm`, `spread`,
`doubled_tableau`, and a gate's `local_rows` and `fixes`) or passes it to
`conjugated_gate`, so a change of that layout stays in one module.

An `ast` walk over every other module of `src/catalab` finds no read of
those attributes and no import or attribute read of the routines that work
on rows.  `_TableauHandle` stays importable: modules subclass it and test
for it, and neither reads a row.
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
