"""Registry of lattices, symmetries, entanglers, targets, and catalysts.

Every bundle is checked at build time: the entangler commutes with each
symmetry generator as a whole, and maps the trivial state onto a target
written without it (the CZ models' graph states, from their stabilizers).
Every catalyst is checked for its declared symmetry pattern and for
entangler invariance before it is handed to the verifier.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

from ._numpy import _lazy, np

from .gf2 import span_basis
from .pauli import PauliOperator
from .stabilizer import (
    CliffordCircuit,
    PermutationQca,
    StabilizerMixture,
    _gram,
    _TableauHandle,
    cz_gate,
    is_invariant,
    pack_gates_into_layers,
)

dn = _lazy("catalab.dense")
coh = _lazy("catalab.cohomology")


class RegistryError(ValueError):
    """Unknown key or invalid size for a registry entry."""


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingLattice:
    n: int

    def distance(self, i: int, j: int) -> int:
        d = abs(i - j) % self.n
        return min(d, self.n - d)


@dataclass(frozen=True)
class LiebLattice:
    """Square-lattice torus with qubits on vertices and edges.

    Index map: vertices [0, V), horizontal edges [V, V+V), vertical edges
    [V+V, V+2V), where V = lx*ly.  h(i,j) joins (i,j)-(i+1,j), v(i,j) joins
    (i,j)-(i,j+1).
    """

    lx: int
    ly: int

    @property
    def num_vertices(self) -> int:
        return self.lx * self.ly

    @property
    def n(self) -> int:
        return 3 * self.num_vertices

    def vertex(self, i: int, j: int) -> int:
        return (j % self.ly) * self.lx + (i % self.lx)

    def h_edge(self, i: int, j: int) -> int:
        return self.num_vertices + (j % self.ly) * self.lx + (i % self.lx)

    def v_edge(self, i: int, j: int) -> int:
        return 2 * self.num_vertices + (j % self.ly) * self.lx + (i % self.lx)

    def vertices(self) -> list[int]:
        return list(range(self.num_vertices))

    def edges(self) -> list[int]:
        return list(range(self.num_vertices, self.n))

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        v = self.num_vertices
        if e < 2 * v:
            idx = e - v
            i, j = idx % self.lx, idx // self.lx
            return self.vertex(i, j), self.vertex(i + 1, j)
        idx = e - 2 * v
        i, j = idx % self.lx, idx // self.lx
        return self.vertex(i, j), self.vertex(i, j + 1)

    def plaquette_edges(self, i: int, j: int) -> list[int]:
        return [
            self.h_edge(i, j),
            self.h_edge(i, j + 1),
            self.v_edge(i, j),
            self.v_edge(i + 1, j),
        ]

    def plaquettes(self) -> list[list[int]]:
        return [
            self.plaquette_edges(i, j) for j in range(self.ly) for i in range(self.lx)
        ]

    def winding_loops(self) -> list[list[int]]:
        horizontal = [self.h_edge(i, 0) for i in range(self.lx)]
        vertical = [self.v_edge(0, j) for j in range(self.ly)]
        return [horizontal, vertical]

    def dual_loops(self) -> list[list[int]]:
        """Closed paths on the dual lattice: one vertical, one horizontal."""
        crossing_h = [self.h_edge(0, j) for j in range(self.ly)]
        crossing_v = [self.v_edge(i, 0) for i in range(self.lx)]
        return [crossing_h, crossing_v]

    def open_string(self, length: int) -> list[int]:
        """Open path of consecutive horizontal bonds in row 0."""
        if length >= self.lx:
            raise ValueError("open string must not wrap the torus")
        return [self.h_edge(i, 0) for i in range(length)]

    def position(self, site: int) -> tuple[int, int]:
        v = self.num_vertices
        if site < v:
            return (2 * (site % self.lx), 2 * (site // self.lx))
        if site < 2 * v:
            idx = site - v
            return (2 * (idx % self.lx) + 1, 2 * (idx // self.lx))
        idx = site - 2 * v
        return (2 * (idx % self.lx), 2 * (idx // self.lx) + 1)

    def distance(self, a: int, b: int) -> int:
        ax, ay = self.position(a)
        bx, by = self.position(b)
        dx = min(abs(ax - bx), 2 * self.lx - abs(ax - bx))
        dy = min(abs(ay - by), 2 * self.ly - abs(ay - by))
        return max(dx, dy)


@dataclass(frozen=True)
class SquareLattice:
    """Torus of vertex qubits with diagonal-line subsystem symmetries."""

    l: int

    @property
    def n(self) -> int:
        return self.l * self.l

    def vertex(self, i: int, j: int) -> int:
        return (j % self.l) * self.l + (i % self.l)

    def coords(self, site: int) -> tuple[int, int]:
        return site % self.l, site // self.l

    def neighbors(self, site: int) -> list[int]:
        i, j = self.coords(site)
        out = {
            self.vertex(i + 1, j),
            self.vertex(i - 1, j),
            self.vertex(i, j + 1),
            self.vertex(i, j - 1),
        }
        out.discard(site)
        return sorted(out)

    def edge_pairs(self) -> list[tuple[int, int]]:
        pairs = set()
        for site in range(self.n):
            for nb in self.neighbors(site):
                pairs.add((min(site, nb), max(site, nb)))
        return sorted(pairs)

    def diagonal_line(self, c: int, direction: int) -> list[int]:
        return [self.vertex(i, c + direction * i) for i in range(self.l)]

    def distance(self, a: int, b: int) -> int:
        ai, aj = self.coords(a)
        bi, bj = self.coords(b)
        dx = min(abs(ai - bi), self.l - abs(ai - bi))
        dy = min(abs(aj - bj), self.l - abs(aj - bj))
        return max(dx, dy)


Lattice = Union[RingLattice, LiebLattice, SquareLattice]


# ---------------------------------------------------------------------------
# Symmetry representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryGenerator:
    name: str
    pauli: PauliOperator
    form: str  # "0-form" | "1-form" | "line"


@dataclass(frozen=True)
class SymmetryRep:
    """Pauli-string symmetry generators acting on n qubits."""

    n: int
    generators: tuple[SymmetryGenerator, ...]

    def __post_init__(self):
        for i, a in enumerate(self.generators):
            if a.pauli.n != self.n:
                raise ValueError(f"symmetry generator {a.name} is not on the {self.n}-site register")
            for b in self.generators[i + 1 :]:
                if not a.pauli.commutes(b.pauli):
                    raise ValueError(f"symmetry generators {a.name}, {b.name} anticommute")

    @cached_property
    def paulis(self) -> tuple[PauliOperator, ...]:
        return tuple(g.pauli for g in self.generators)

    def by_name(self, name: str) -> SymmetryGenerator:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)

    def zero_form(self) -> list[SymmetryGenerator]:
        return [g for g in self.generators if g.form == "0-form"]

    def zero_form_elements(self) -> list[tuple[str, PauliOperator]]:
        """All products of 0-form generators, labelled by generator names."""
        gens = self.zero_form()
        out: list[tuple[str, PauliOperator]] = []
        for mask in range(1 << len(gens)):
            p = PauliOperator.identity(self.n)
            labels = []
            for i, g in enumerate(gens):
                if (mask >> i) & 1:
                    p = p * g.pauli
                    labels.append(g.name)
            out.append(("1" if not labels else "*".join(labels), p))
        return out

    def doubled(self) -> "SymmetryRep":
        """U'(g) = U(g) x U(g) on two copies of the register."""
        gens = []
        for g in self.generators:
            doubled = g.pauli.tensor(g.pauli)
            gens.append(SymmetryGenerator(g.name, doubled, g.form))
        return SymmetryRep(2 * self.n, tuple(gens))


@dataclass(frozen=True)
class QuditSymmetry:
    """On-site regular action u(g)|h> = |gh> of a finite abelian group."""

    group: coh.FiniteAbelianGroup

    def mapping(self, g: tuple[int, ...]) -> list[int]:
        """Index of gh for each element h, in element order."""
        return [self.group.index(self.group.add(g, h)) for h in self.group.elements()]

    def apply(self, state: dn.DenseState, g: tuple[int, ...]) -> dn.DenseState:
        return dn.apply_site_relabel(state, self.mapping(g))

    def basis_maps(self, sites: int) -> tuple[dn.BasisMap, ...]:
        """u(g) on every one of `sites` sites as a map of the basis, for g the
        generator of each cyclic factor."""
        k = len(self.group.factors)
        units = [tuple(int(j == i) for j in range(k)) for i in range(k)]
        return tuple(
            dn.BasisMap(str(g), *dn.relabel_basis_map(self.group.order, sites, self.mapping(g)))
            for g in units
        )


# ---------------------------------------------------------------------------
# Bundles and catalysts
# ---------------------------------------------------------------------------


@dataclass
class Catalyst:
    """Strongly symmetric under every symmetry element of its bundle except
    those it names: weakly under `weak_under`, not under `broken`, as
    `symmetry_defect` checks in `build_catalyst` and `verify_catalysis`."""

    name: str
    engine: str  # "stabilizer" | "dense"
    mixed: bool
    stab: Optional[StabilizerMixture] = None
    dense_state: Optional[dn.DenseState] = None
    weak_under: tuple[str, ...] = ()
    broken: tuple[str, ...] = ()
    prep_recipe: Optional[str] = None


@dataclass
class ModelBundle:
    name: str
    lattice: Lattice
    symmetry: SymmetryRep
    entangler: Union[CliffordCircuit, PermutationQca, coh.CocycleCircuit]
    trivial: Optional[StabilizerMixture]
    target: Optional[StabilizerMixture]
    qudit_symmetry: Optional[QuditSymmetry] = None
    unit_cell: Optional[int] = None  # sites per step of the translation its Hamiltonians carry

    @property
    def n(self) -> int:
        return self.lattice.n

    @property
    def is_clifford(self) -> bool:
        return isinstance(self.entangler, _TableauHandle)

    def trivial_dense(self) -> dn.DenseState:
        if self.qudit_symmetry is not None:
            return dn.DenseState.uniform(self.qudit_symmetry.group.order, self.n)
        return dn.stabilizer_to_dense(self.trivial)

    def target_dense(self) -> dn.DenseState:
        if self.qudit_symmetry is not None:
            return self.entangler.apply(self.trivial_dense())
        return dn.stabilizer_to_dense(self.target)


# -- shared circuit builders -------------------------------------------------


@lru_cache(maxsize=16)
def cz_circuit(n: int, edges: tuple[tuple[int, int], ...]) -> CliffordCircuit:
    """One CZ per edge; cached, so repeated callers share one frozen circuit
    and the tableau it builds on first use."""
    return pack_gates_into_layers(n, [cz_gate(n, a, b) for a, b in edges])


def cz_ring_circuit(n: int) -> CliffordCircuit:
    return cz_circuit(n, tuple((i, (i + 1) % n) for i in range(n)))


def ghz_generators(n: int, sites: Sequence[int]) -> list[PauliOperator]:
    """Stabilizers of the cat state on `sites` (Z-basis GHZ)."""
    gens = [
        PauliOperator.z_at(n, sites[i], sites[i + 1]) for i in range(len(sites) - 1)
    ]
    gens.append(PauliOperator.x_at(n, *sites))
    return gens


# -- model builders ----------------------------------------------------------


def _graph_bundle(
    name: str, lattice: Lattice, symmetry: SymmetryRep, edges: Sequence[tuple[int, int]]
) -> ModelBundle:
    """CZ entangler on the edges, |+>^n, and the graph state as target,
    written from its stabilizers X_v prod_{u~v} Z_u (an edge listed twice
    cancels, as its two CZs do)."""
    n = lattice.n
    z_mask = [0] * n
    for a, b in edges:
        z_mask[a] ^= 1 << b
        z_mask[b] ^= 1 << a
    target = StabilizerMixture.from_generators(
        n, [PauliOperator(n, 1 << v, z_mask[v]) for v in range(n)]
    )
    return ModelBundle(
        name=name,
        lattice=lattice,
        symmetry=symmetry,
        entangler=cz_circuit(n, tuple(edges)),
        trivial=StabilizerMixture.plus_state(n),
        target=target,
    )


def _build_lsm_dimer(n: int) -> ModelBundle:
    if n < 4 or n % 2:
        raise RegistryError("lsm-dimer needs an even qubit count of at least 4")
    lat = RingLattice(n)
    sym = SymmetryRep(
        n,
        (
            SymmetryGenerator("x-all", PauliOperator.x_at(n, *range(n)), "0-form"),
            SymmetryGenerator("z-all", PauliOperator.z_at(n, *range(n)), "0-form"),
        ),
    )
    trivial_gens = []
    spt_gens = []
    for i in range(0, n, 2):
        trivial_gens.append(PauliOperator.x_at(n, i, (i + 1) % n))
        trivial_gens.append(PauliOperator.z_at(n, i, (i + 1) % n))
        spt_gens.append(PauliOperator.x_at(n, (i + 1) % n, (i + 2) % n))
        spt_gens.append(PauliOperator.z_at(n, (i + 1) % n, (i + 2) % n))
    trivial = StabilizerMixture.from_generators(n, trivial_gens)
    target = StabilizerMixture.from_generators(n, spt_gens)
    entangler = PermutationQca([(i + 1) % n for i in range(n)])
    return ModelBundle(
        name="lsm-dimer",
        lattice=lat,
        symmetry=sym,
        entangler=entangler,
        trivial=trivial,
        target=target,
        unit_cell=2,  # a one-site shift moves the dimers off their bonds
    )


def _build_cluster_1d(n: int) -> ModelBundle:
    if n < 4 or n % 2:
        raise RegistryError("cluster-1d needs an even ring of at least 4 qubits")
    lat = RingLattice(n)
    sym = SymmetryRep(
        n,
        (
            SymmetryGenerator("x-even", PauliOperator.x_at(n, *range(0, n, 2)), "0-form"),
            SymmetryGenerator("x-odd", PauliOperator.x_at(n, *range(1, n, 2)), "0-form"),
        ),
    )
    bundle = _graph_bundle("cluster-1d", lat, sym, [(i, (i + 1) % n) for i in range(n)])
    bundle.unit_cell = 2  # a one-site shift swaps the sublattices
    return bundle


def _build_lieb_2d(lx: int, ly: int) -> ModelBundle:
    if lx < 2 or ly < 2:
        raise RegistryError("lieb-2d needs a torus of at least 2x2 cells")
    lat = LiebLattice(lx, ly)
    n = lat.n
    gens = [
        SymmetryGenerator("x-vertices", PauliOperator.x_at(n, *lat.vertices()), "0-form")
    ]
    for idx, edges in enumerate(lat.plaquettes()):
        gens.append(
            SymmetryGenerator(f"loop-f{idx}", PauliOperator.x_at(n, *edges), "1-form")
        )
    for tag, loop in zip(("wind-h", "wind-v"), lat.winding_loops()):
        gens.append(
            SymmetryGenerator(f"loop-{tag}", PauliOperator.x_at(n, *loop), "1-form")
        )
    edges = [(e, v) for e in lat.edges() for v in lat.edge_endpoints(e)]
    return _graph_bundle("lieb-2d", lat, SymmetryRep(n, tuple(gens)), edges)


def _build_square_sspt(l: int) -> ModelBundle:
    if l < 2:
        raise RegistryError("square-sspt needs a torus of linear size at least 2")
    lat = SquareLattice(l)
    n = lat.n
    gens = [
        SymmetryGenerator(f"line-{tag}{c}", PauliOperator.x_at(n, *lat.diagonal_line(c, d)), "line")
        for c in range(l)
        for tag, d in (("d", +1), ("a", -1))
    ]
    return _graph_bundle("square-sspt", lat, SymmetryRep(n, tuple(gens)), lat.edge_pairs())


def _cocycle_state_amplitudes(nu: coh.Cochain, sites: int) -> np.ndarray:
    """The cocycle state on the ring, written from nu rather than from a
    circuit: prod_i omega^{nu(e, g_i, g_{i+1})} / sqrt(|G|^sites), with site 0
    the least-significant digit and digit d standing for group.element(d)."""
    group = nu.group
    q = group.order
    table = np.array(
        [[nu.table[(group.identity, group.element(a), group.element(b))] for b in range(q)]
         for a in range(q)]
    )
    index = np.arange(q**sites)
    digits = [(index // q**i) % q for i in range(sites)]
    numerators = sum(table[digits[i], digits[(i + 1) % sites]] for i in range(sites))
    return np.exp(2j * np.pi * numerators / nu.modulus) / np.sqrt(q**sites)


def _build_cocycle_z2z2(sites: int) -> ModelBundle:
    if sites < 3:
        raise RegistryError("the cocycle chain needs at least 3 sites")
    group = coh.FiniteAbelianGroup((2, 2))
    nu = coh.normalize_cocycle(coh.bilinear_cocycle(group, 0, 1))
    circuit = coh.compile_cocycle_circuit(nu, coh.ring_triangulation(sites), sites)
    evolved = circuit.apply(dn.DenseState.uniform(group.order, sites))
    if np.linalg.norm(evolved.amps - _cocycle_state_amplitudes(nu, sites)) > 1e-10:
        raise AssertionError("cocycle target mismatch")
    return ModelBundle(
        name="cocycle-z2z2",
        lattice=RingLattice(sites),
        symmetry=SymmetryRep(sites, ()),  # qubit-string generators are not used here
        entangler=circuit,
        trivial=None,
        target=None,
        qudit_symmetry=QuditSymmetry(group),
        unit_cell=1,
    )


# Each model's builder and the size keys it takes, with their defaults.
_MODEL_BUILDERS: dict[str, tuple[Callable[..., ModelBundle], dict[str, int]]] = {
    "lsm-dimer": (_build_lsm_dimer, {"n": 8}),
    "cluster-1d": (_build_cluster_1d, {"n": 8}),
    "lieb-2d": (_build_lieb_2d, {"lx": 2, "ly": 2}),
    "square-sspt": (_build_square_sspt, {"l": 3}),
    "cocycle-z2z2": (_build_cocycle_z2z2, {"sites": 4}),
}


def build_model(name: str, **params) -> ModelBundle:
    """Build and validate a registry bundle.

    Size keys: n (1D models), lx/ly (lieb-2d), l (square-sspt), sites
    (cocycle chains).  A key the model does not take is a RegistryError.
    """
    if name not in _MODEL_BUILDERS:
        raise RegistryError(f"unknown model key {name!r}; known: {tuple(_MODEL_BUILDERS)}")
    builder, sizes = _MODEL_BUILDERS[name]
    extra = sorted(set(params) - set(sizes))
    if extra:
        raise RegistryError(
            f"model {name!r} takes the size keys {tuple(sizes)}, not {tuple(extra)}"
        )
    bundle = builder(**{key: int(params.get(key, default)) for key, default in sizes.items()})
    _check_bundle(bundle)
    return bundle


def _check_bundle(bundle: ModelBundle) -> None:
    if bundle.is_clifford:
        for gen in bundle.symmetry.generators:
            conj = bundle.entangler.conjugate(gen.pauli)
            if conj != gen.pauli:
                raise AssertionError(
                    f"entangler is not symmetric under {gen.name} in {bundle.name}"
                )
        evolved = bundle.trivial.apply_circuit(bundle.entangler)
        if not evolved.same_state(bundle.target):
            raise AssertionError(f"target state mismatch in {bundle.name}")
    else:
        # A cocycle chain's gates are all diagonal, so U is diagonal, and a
        # diagonal U commutes with R_g exactly when its diagonal, U|+> up to
        # 1/sqrt(q^n), is R_g-invariant: one probe per element suffices.
        qsym = bundle.qudit_symmetry
        target = bundle.target_dense()
        for g in qsym.group.elements():
            if np.linalg.norm(qsym.apply(target, g).amps - target.amps) > 1e-10:
                raise AssertionError("cocycle entangler is not symmetric as a whole")


# ---------------------------------------------------------------------------
# Catalysts
# ---------------------------------------------------------------------------


def symmetry_defect(bundle: ModelBundle, cat: Catalyst) -> Optional[str]:
    """The first symmetry element the catalyst fails, or None; a catalyst on
    another register raises ValueError.

    Under an element it does not name (a qubit model's generator by name, a
    qudit chain's group element g as `str(g)`) it must be strongly
    symmetric: a stabilizer state has g in its group with sign +1, a dense
    state <psi|g|psi> within 1e-9 of 1.  Under one in `weak_under` it need
    only be weakly symmetric: g commutes with every stabilizer generator, or
    |<psi|g|psi>| >= 1 - 1e-9.  Elements in `broken` are skipped."""
    qsym, stab, state = bundle.qudit_symmetry, cat.stab, cat.dense_state
    held = (stab.n, 2) if cat.engine == "stabilizer" else (state.sites, state.q)
    register = (bundle.n, 2 if qsym is None else qsym.group.order)
    if held != register:
        raise ValueError(
            f"catalyst {cat.name} is on {held[0]} sites of dimension {held[1]}, "
            f"but {bundle.name} has {register[0]} of dimension {register[1]}"
        )
    if qsym is None:
        elements = [(gen.name, gen.pauli) for gen in bundle.symmetry.generators]
    else:
        elements = [(str(g), g) for g in qsym.group.elements()]
    checks = [(label, g, label in cat.weak_under) for label, g in elements if label not in cat.broken]
    weak = [g for _, g, is_weak in checks if is_weak]
    if cat.engine == "stabilizer" and weak:
        packed = [h.symplectic() for h in stab.generators] + [g.x | g.z << stab.n for g in weak]
        # One Gram pass: row k + t holds the generators weak element t anticommutes with.
        anti = iter(row & ((1 << stab.k) - 1) for row in _gram(stab.n, packed)[stab.k :])
    for label, g, is_weak in checks:
        if cat.engine == "stabilizer":
            ok = not next(anti) if is_weak else stab.membership_sign(g) == 1
        else:
            moved = dn.apply_pauli(state, g) if qsym is None else qsym.apply(state, g)
            value = dn.overlap(state, moved)
            ok = abs(value) >= 1 - 1e-9 if is_weak else abs(value - 1) <= 1e-9
        if not ok:
            return label
    return None


def catalyst_kinds(model: str) -> tuple[str, ...]:
    """The model's catalyst keys, in registry order."""
    return tuple(k for m, k in _CATALYST_BUILDERS if m == model)


def catalyst_is_dense(model: str, kind: str) -> bool:
    """Whether the registry's builder for this catalyst returns a dense state."""
    return _CATALYST_BUILDERS.get((model, kind)) in _DENSE_BUILDERS


def build_catalyst(bundle: ModelBundle, kind: str) -> Catalyst:
    """Construct a named catalyst for the bundle and verify it before return.

    A builder returns the state and its exceptions; the rest follows: the
    name is the registry key, the engine is the state's type, and a
    stabilizer state is mixed when it is not pure (a dense state never is)."""
    builder = _CATALYST_BUILDERS.get((bundle.name, kind))
    if builder is None:
        raise RegistryError(
            f"no catalyst {kind!r} for model {bundle.name!r}; "
            f"known: {catalyst_kinds(bundle.name)}"
        )
    state, exceptions = builder(bundle)
    if isinstance(state, StabilizerMixture):
        cat = Catalyst(kind, "stabilizer", not state.is_pure, stab=state, **exceptions)
        invariant = is_invariant(state, bundle.entangler)
    else:
        cat = Catalyst(kind, "dense", False, dense_state=state, **exceptions)
        if bundle.qudit_symmetry is None:
            evolved = dn.qca_dense_action(bundle.entangler)(state)
        else:
            evolved = bundle.entangler.apply(state)
        invariant = abs(abs(dn.overlap(state, evolved)) - 1) <= 1e-9
    defect = symmetry_defect(bundle, cat)
    if defect is not None:
        raise AssertionError(f"catalyst {kind} is not symmetric under {defect}")
    if not invariant:
        raise AssertionError(f"catalyst {kind} is not entangler-invariant")
    return cat


def _spec(state: Union[StabilizerMixture, dn.DenseState], **exceptions) -> tuple:
    """A builder's result: the state and the exceptions to its symmetry
    (`weak_under`, `broken`, `prep_recipe`)."""
    return state, exceptions


# -- individual constructions ---------------------------------------------


def _lsm_ghz(bundle: ModelBundle):
    n = bundle.n
    gens = ghz_generators(n, list(range(n)))
    gens.append(PauliOperator.z_at(n, *range(n)))
    return _spec(StabilizerMixture.from_generators(n, _independent_subset(n, gens)))


def _lsm_long_range_bell(bundle: ModelBundle):
    n = bundle.n
    m = n // 2
    gens = []
    for i in range(m):
        gens.append(PauliOperator.x_at(n, i, i + m))
        gens.append(PauliOperator.z_at(n, i, i + m))
    return _spec(StabilizerMixture.from_generators(n, gens), prep_recipe="lr-bell-swap")


def _superposition_catalyst(bundle: ModelBundle):
    """Equal-weight superposition of the trivial and entangled states."""
    triv = bundle.trivial_dense()
    amps = triv.amps + bundle.target_dense().amps
    return _spec(dn.DenseState.from_amplitudes(triv.q, triv.sites, amps))


def _gapless_catalyst(bundle: ModelBundle):
    """Unique ground state of the sum of the trivial Hamiltonian and its
    one image under the entangler."""
    op = build_hamiltonian(bundle, "catalyst-sum")
    _, basis = dn.ground_state(op)
    if len(basis) != 1:
        raise AssertionError(
            f"catalyst Hamiltonian for {bundle.name} has a degenerate ground space "
            f"({len(basis)} states) at this size"
        )
    # Strong by default: eigenvalue +1 under each generator, not just a phase.
    return _spec(dn.DenseState.from_amplitudes(op.q, bundle.n, basis[0]))


def _cluster_ghz(bundle: ModelBundle):
    n = bundle.n
    gens = ghz_generators(n, list(range(0, n, 2))) + ghz_generators(
        n, list(range(1, n, 2))
    )
    return _spec(StabilizerMixture.from_generators(n, gens), prep_recipe="ghz-staircase")


def _cluster_ghz_one_sublattice(bundle: ModelBundle):
    n = bundle.n
    gens = ghz_generators(n, list(range(0, n, 2)))
    gens += [PauliOperator.x_at(n, i) for i in range(1, n, 2)]
    return _spec(StabilizerMixture.from_generators(n, gens), prep_recipe="ghz-staircase-even")


def _cluster_swssb(bundle: ModelBundle):
    """Spin-glass-like mixture with long-range fidelity correlations: the
    strong-to-weak breaking of both sublattice symmetries."""
    n = bundle.n
    gens = (PauliOperator.x_at(n, *range(0, n, 2)), PauliOperator.x_at(n, *range(1, n, 2)))
    return _spec(StabilizerMixture.from_generators(n, gens), prep_recipe="measure-zz")


def _group_average_catalyst(bundle: ModelBundle):
    """rho proportional to the sum of all symmetry operators."""
    gens = _independent_subset(bundle.n, bundle.symmetry.paulis)
    return _spec(StabilizerMixture.from_generators(bundle.n, gens))


def _lieb_ghz_vertices(bundle: ModelBundle):
    """Cat state on the vertex qubits; edge qubits polarized in X."""
    lat: LiebLattice = bundle.lattice
    n = bundle.n
    gens = [PauliOperator.x_at(n, e) for e in lat.edges()]
    gens += ghz_generators(n, lat.vertices())
    return _spec(StabilizerMixture.from_generators(n, gens))


def _lieb_toric_code(bundle: ModelBundle):
    """Topologically ordered edge state.  It spontaneously breaks the winding
    1-form loops, which is the allowed partial breaking, so it names them in
    `broken`."""
    lat: LiebLattice = bundle.lattice
    n = bundle.n
    gens = [PauliOperator.x_at(n, v) for v in lat.vertices()]
    gens += [PauliOperator.z_at(n, e) for e in lat.edges()]
    state = StabilizerMixture.from_generators(n, gens)
    for edges in lat.plaquettes():
        state = state.project(PauliOperator.x_at(n, *edges), 1)
    return _spec(state, broken=("loop-wind-h", "loop-wind-v"))


def _lieb_mixed(bundle: ModelBundle):
    """Strong-to-weak breaking of both the 0-form and the 1-form symmetry."""
    lat: LiebLattice = bundle.lattice
    n = bundle.n
    gens = [PauliOperator.x_at(n, *lat.vertices())]
    gens += [PauliOperator.x_at(n, *edges) for edges in lat.plaquettes()]
    state = StabilizerMixture.from_generators(n, _independent_subset(n, gens))
    return _spec(state, weak_under=("loop-wind-h", "loop-wind-v"))


def _square_pim_symmetric(bundle: ModelBundle):
    """Line-symmetric ground state of the plaquette Ising model."""
    lat: SquareLattice = bundle.lattice
    n = bundle.n
    gens = [PauliOperator.z_at(n, *lat.neighbors(v)) for v in range(n)]
    gens += bundle.symmetry.paulis
    return _spec(StabilizerMixture.from_generators(n, _independent_subset(n, gens)))


def _cocycle_ghz(bundle: ModelBundle):
    """Uniform-group cat state: symmetric, with the on-site symmetry
    completely broken spontaneously."""
    group = bundle.qudit_symmetry.group
    q = group.order
    amps = np.zeros(q**bundle.n, dtype=np.complex128)
    for g in group.elements():
        amps[sum(group.index(g) * q**i for i in range(bundle.n))] = 1.0
    return _spec(dn.DenseState.from_amplitudes(q, bundle.n, amps))


def _independent_subset(n: int, gens: Iterable[PauliOperator]) -> list[PauliOperator]:
    """The generators not in the span of those before them, in order: the
    rows that the pivot rows' transforms of one `span_basis` of their (x|z) rows combine."""
    gens = list(gens)
    _, pivots, transform, _ = span_basis([g.symplectic() for g in gens], 2 * n)
    kept = 0
    for t in transform[: len(pivots)]:
        kept |= t
    return [g for j, g in enumerate(gens) if kept >> j & 1]


_CATALYST_BUILDERS: dict[tuple[str, str], Callable] = {
    ("lsm-dimer", "ghz"): _lsm_ghz,
    ("lsm-dimer", "superposition"): _superposition_catalyst,
    ("lsm-dimer", "gapless"): _gapless_catalyst,
    ("lsm-dimer", "long-range-bell"): _lsm_long_range_bell,
    ("cluster-1d", "ghz"): _cluster_ghz,
    ("cluster-1d", "ghz-one-sublattice"): _cluster_ghz_one_sublattice,
    ("cluster-1d", "superposition"): _superposition_catalyst,
    ("cluster-1d", "gapless"): _gapless_catalyst,
    ("cluster-1d", "swssb"): _cluster_swssb,
    ("cluster-1d", "group-average"): _group_average_catalyst,
    ("lieb-2d", "ghz-vertices"): _lieb_ghz_vertices,
    ("lieb-2d", "toric-code"): _lieb_toric_code,
    ("lieb-2d", "lieb-mixed"): _lieb_mixed,
    ("square-sspt", "pim-symmetric"): _square_pim_symmetric,
    ("square-sspt", "group-average"): _group_average_catalyst,
    ("cocycle-z2z2", "ghz"): _cocycle_ghz,
    ("cocycle-z2z2", "superposition"): _superposition_catalyst,
    ("cocycle-z2z2", "gapless"): _gapless_catalyst,
}
_DENSE_BUILDERS = (_superposition_catalyst, _gapless_catalyst, _cocycle_ghz)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def build_hamiltonian(
    bundle: ModelBundle, kind: str, alpha: Optional[float] = None
) -> dn.DenseOperator:
    """Dense Hamiltonians: trivial / entangled-side / interpolated / catalyst-sum.

    Each kind is a weighted sum of the trivial terms and their one image
    under the entangler: (-1, generator) pairs on qubits, kept as Paulis
    until the operator is built, or each site's minus projector onto the
    uniform state on the qudit chain.  Each carries as basis maps the
    symmetry that every kind commutes with: the model's 0-form Pauli
    generators, or on the qudit chain u(g) for the generator g of each
    cyclic factor, then translation by the model's unit cell where it
    declares one.  `ground_state` proves each map on the operator, so a
    wrong unit cell fails there."""
    if kind not in ("triv", "spt", "interpolated", "catalyst-sum"):
        raise RegistryError(f"unknown hamiltonian kind {kind!r}")
    if kind == "interpolated" and alpha is None:
        raise ValueError("interpolated Hamiltonians need alpha")
    qudit, n = bundle.qudit_symmetry, bundle.n
    q = 2 if qudit is None else qudit.group.order
    shift = () if bundle.unit_cell is None else (
        dn.BasisMap(f"translate-{bundle.unit_cell}", *dn.translation_basis_map(q, n, bundle.unit_cell)),
    )
    if qudit is None:
        symmetry = tuple(
            dn.BasisMap(g.name, *dn.pauli_basis_map(g.pauli)) for g in bundle.symmetry.zero_form()
        )
        triv = [(-1.0, g) for g in bundle.trivial.generators]
        image = lambda term: (term[0], bundle.entangler.conjugate(term[1]))
        scale = lambda a, term: (a * term[0], term[1])
    else:
        symmetry = qudit.basis_maps(n)
        triv = [((i,), -np.full((q, q), 1.0 / q, dtype=np.complex128)) for i in range(n)]
        image = lambda term: bundle.entangler.conjugate_term(*term)
        scale = lambda a, term: (term[0], a * term[1])
    spt = [] if kind == "triv" else [image(term) for term in triv]
    if kind == "interpolated":
        terms = [scale(alpha, t) for t in triv] + [scale(1 - alpha, t) for t in spt]
    else:
        terms = {"triv": triv, "spt": spt, "catalyst-sum": triv + spt}[kind]
    if qudit is None:
        return dn.DenseOperator.from_pauli_terms(n, terms, symmetry + shift)
    return dn.DenseOperator(n, q, terms, symmetry + shift)
