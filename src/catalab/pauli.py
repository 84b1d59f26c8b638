"""Signed n-qubit Pauli operators in symplectic (x|z) bit form.

An operator is stored as i^phase · prod_a X_a^{x_a} Z_a^{z_a} with the site
product taken in ascending site order (sites commute, so only the within-site
X-before-Z convention matters).  The global phase is an exact power of i,
which is what the mixed-state sign bookkeeping and the entangler invariant
need.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

_PREFIXES = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PREFIX_LOOKUP = {"+": 0, "": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}


class SiteSet(tuple):
    """Sorted, deduplicated site indices."""

    def __new__(cls, sites: Iterable[int] = ()):
        return super().__new__(cls, sorted(set(int(s) for s in sites)))


@dataclass(frozen=True)
class PauliOperator:
    """Signed Pauli string on n qubits, phase tracked as i^phase."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        # A negative x or z shifts down to -1, so this also rejects those.
        if (self.x | self.z) >> self.n:
            raise ValueError(f"Pauli bits outside the {self.n} sites: x={self.x}, z={self.z}")
        object.__setattr__(self, "phase", self.phase & 3)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0, 0)

    @classmethod
    def x_at(cls, n: int, *sites: int) -> "PauliOperator":
        return cls(n, _mask(sites), 0, 0)

    @classmethod
    def z_at(cls, n: int, *sites: int) -> "PauliOperator":
        return cls(n, 0, _mask(sites), 0)

    @classmethod
    def y_at(cls, n: int, *sites: int) -> "PauliOperator":
        m = _mask(sites)
        return cls(n, m, m, len(sites) % 4)

    @classmethod
    def from_string(cls, text: str) -> "PauliOperator":
        body = text
        prefix = ""
        while body and body[0] in "+-i":
            prefix += body[0]
            body = body[1:]
        if prefix not in _PREFIX_LOOKUP:
            raise ValueError(f"bad sign prefix in {text!r}")
        k = _PREFIX_LOOKUP[prefix]
        x = z = 0
        ycount = 0
        for site, letter in enumerate(body):
            if letter == "I":
                continue
            if letter == "X":
                x |= 1 << site
            elif letter == "Z":
                z |= 1 << site
            elif letter == "Y":
                x |= 1 << site
                z |= 1 << site
                ycount += 1
            else:
                raise ValueError(f"bad Pauli letter {letter!r} in {text!r}")
        return cls(len(body), x, z, (k + ycount) % 4)

    # -- basic queries -------------------------------------------------

    def support(self) -> SiteSet:
        both = self.x | self.z
        sites = []
        while both:
            low = both & -both
            sites.append(low.bit_length() - 1)
            both ^= low
        return SiteSet(sites)

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0 and self.phase == 0

    def is_hermitian(self) -> bool:
        return self.phase % 2 == (self.x & self.z).bit_count() % 2

    def commutes(self, other: "PauliOperator") -> bool:
        self._check(other)
        return self.symplectic_product(other) == 0

    def symplectic_product(self, other: "PauliOperator") -> int:
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) & 1

    # -- algebra --------------------------------------------------------

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        self._check(other)
        phase = (self.phase + other.phase + 2 * ((self.z & other.x).bit_count() & 1)) & 3
        return PauliOperator(self.n, self.x ^ other.x, self.z ^ other.z, phase)

    def dagger(self) -> "PauliOperator":
        k = (-self.phase + 2 * ((self.x & self.z).bit_count() & 1)) & 3
        return PauliOperator(self.n, self.x, self.z, k)

    def negate(self) -> "PauliOperator":
        return PauliOperator(self.n, self.x, self.z, (self.phase + 2) & 3)

    def restrict(self, sites: Iterable[int]) -> "PauliOperator":
        """Zero out everything except the given sites (same register size)."""
        m = _mask(sites)
        return PauliOperator(self.n, self.x & m, self.z & m, 0)

    def tensor(self, other: "PauliOperator") -> "PauliOperator":
        return PauliOperator(
            self.n + other.n,
            self.x | (other.x << self.n),
            self.z | (other.z << self.n),
            (self.phase + other.phase) & 3,
        )

    # -- symplectic packing ---------------------------------------------

    def symplectic(self) -> int:
        """Packed (x|z) row: bits [0,n) are x, bits [n,2n) are z."""
        return self.x | (self.z << self.n)

    # -- text form -------------------------------------------------------

    def to_string(self) -> str:
        ycount = (self.x & self.z).bit_count()
        k = (self.phase - ycount) & 3
        letters = []
        for i in range(self.n):
            xb = (self.x >> i) & 1
            zb = (self.z >> i) & 1
            letters.append("IXZY"[xb + 2 * zb])
        return _PREFIXES[k] + "".join(letters)

    def __str__(self) -> str:
        return self.to_string()

    def _check(self, other: "PauliOperator") -> None:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")


def _mask(sites: Iterable[int]) -> int:
    m = 0
    for s in sites:
        m |= 1 << s
    return m


def _gather(bits: int, sites: Sequence[int]) -> int:
    """Bit k of the result is bit sites[k] of bits."""
    return sum(((bits >> s) & 1) << k for k, s in enumerate(sites))
