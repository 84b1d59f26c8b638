"""catalab: exact desk-scale verification of catalyzed transformations
between symmetry-protected phases of matter.

Two engines share one operator language: a bit-exact stabilizer engine (all
Clifford content, pure and mixed) and a dense qudit oracle (everything else,
and cross-checks of everything Clifford).
"""

__version__ = "0.1.0"

from ._numpy import _lazy
from .pauli import PauliOperator, SiteSet
from .stabilizer import CliffordCircuit, CliffordGate, StabilizerMixture
from .models import ModelBundle, build_catalyst, build_hamiltonian, build_model

# Run on first use, so a stabilizer command never compiles them; bound here,
# as an import would bind them, so that `catalab.dense` resolves at once.
dense, cohomology, protocols, acceptance = (
    _lazy(f"{__name__}.{name}") for name in ("dense", "cohomology", "protocols", "acceptance")
)


def __getattr__(name: str):
    # The deferred modules' public classes resolve on first read (PEP 562).
    if name in ("DenseOperator", "DenseState"):
        return getattr(dense, name)
    if name in ("Cochain", "FiniteAbelianGroup"):
        return getattr(cohomology, name)
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
