"""catalab: exact desk-scale verification of catalyzed transformations
between symmetry-protected phases of matter.

Two engines share one operator language: a bit-exact stabilizer engine (all
Clifford content, pure and mixed) and a dense qudit oracle (everything else,
and cross-checks of everything Clifford).
"""

__version__ = "0.1.0"

import importlib

from .pauli import PauliOperator, SiteSet
from .stabilizer import CliffordCircuit, CliffordGate, StabilizerMixture
from .dense import DenseOperator, DenseState
from .cohomology import Cochain, FiniteAbelianGroup
from .models import ModelBundle, build_catalyst, build_hamiltonian, build_model


def __getattr__(name: str):
    # Only `selftest` runs the acceptance suite, so nothing imports it up
    # front; `catalab.acceptance` still resolves, on first read (PEP 562).
    if name == "acceptance":
        return importlib.import_module(".acceptance", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "PauliOperator",
    "SiteSet",
    "CliffordCircuit",
    "CliffordGate",
    "StabilizerMixture",
    "DenseOperator",
    "DenseState",
    "Cochain",
    "FiniteAbelianGroup",
    "ModelBundle",
    "build_catalyst",
    "build_hamiltonian",
    "build_model",
]
