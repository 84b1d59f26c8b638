"""One-site named gates that only tests build: SDG and the three Paulis.

Each is `CliffordGate(kind, n, SiteSet([a]), rows)` on literal rows, the
(x bit, z bit, phase) at site a of the images of X_a and Z_a, and so takes
the same proof where it is built as the package's own named kinds.
"""
from catalab.pauli import PauliOperator, SiteSet
from catalab.stabilizer import CliffordGate

ROWS = {
    "SDG": ((1, 1, 3), (0, 1, 0)),
    "X": ((1, 0, 0), (0, 1, 2)),
    "Y": ((1, 0, 2), (0, 1, 2)),
    "Z": ((1, 0, 2), (0, 1, 0)),
}


def one_site_gate(kind, n, a):
    rows = {a: tuple((x << a, z << a, phase) for x, z, phase in ROWS[kind])}
    return CliffordGate(kind, n, SiteSet([a]), rows)


def sdg_gate(n, a):
    return one_site_gate("SDG", n, a)


def x_gate(n, a):
    return one_site_gate("X", n, a)


def y_gate(n, a):
    return one_site_gate("Y", n, a)


def z_gate(n, a):
    return one_site_gate("Z", n, a)


def images(gate):
    """The gate's rows as PauliOperator pairs: {a: (image of X_a, image of Z_a)}."""
    return {a: (PauliOperator(gate.n, *x), PauliOperator(gate.n, *z)) for a, (x, z) in gate.rows.items()}
