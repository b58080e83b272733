"""Brute-force evolution in fixed-excitation sectors of the spin chain.

This module deliberately avoids the free-fermion machinery: sector
Hamiltonians are assembled directly from the spin model (XX exchange plus
on-site fields) in the basis of excitation-site subsets, and evolved through
dense eigendecomposition.  It exists to certify the determinant amplitude
kernel, the receiver-pair reduced state and the class averages on small
chains.

The spin model keeps the constant field offset sum_l h_l that the fermion
picture drops, so sector amplitudes acquire an extra phase exp(-i*C*t) with
C = field_constant(spec).  Comparisons against determinant amplitudes must
remove that phase; reduced density matrices are unaffected because the offset
is common to all sectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from math import comb, isfinite

import numpy as np

from .chain import ChainSpec, whole_number
from .states import TwoQubitState

_MAX_EXCITATIONS = 3
_MAX_SECTOR_DIM = 20000
_MAX_RDM_SITES = 14


class SectorBasis:
    """Lexicographically ordered subsets of {1..N} with r elements."""

    def __init__(self, n_sites: int, excitations: int):
        if excitations < 0 or excitations > n_sites:
            raise ValueError(f"cannot place {excitations} excitations on {n_sites} sites")
        self.n_sites = n_sites
        self.excitations = excitations
        self.subsets = list(combinations(range(1, n_sites + 1), excitations))
        self._index = {s: k for k, s in enumerate(self.subsets)}

    def __len__(self):
        return len(self.subsets)

    def index_of(self, subset) -> int:
        key = tuple(sorted(int(s) for s in subset))
        try:
            return self._index[key]
        except KeyError:
            raise ValueError(f"{subset!r} is not a valid subset of this sector") from None


def field_constant(spec: ChainSpec) -> float:
    """Constant field offset sum_l h_l carried by the spin model."""
    return float(spec.site_fields().sum())


def sector_hamiltonian(spec: ChainSpec, excitations: int) -> np.ndarray:
    """Dense spin Hamiltonian restricted to the r-excitation sector.

    Hops carry -2*J_l.  The diagonal is the field term sum_l h_l*(+1 or -1),
    the sign flipped on occupied sites, i.e. C - 2*sum_{occupied} h_l.
    """
    basis = SectorBasis(spec.n_sites, excitations)
    j = spec.couplings()
    h = spec.site_fields()
    offset = h.sum()
    dim = len(basis)
    mat = np.zeros((dim, dim))
    for a, subset in enumerate(basis.subsets):
        occ = set(subset)
        mat[a, a] = offset - 2.0 * sum(h[x - 1] for x in subset)
        for x in subset:
            for y in (x - 1, x + 1):
                if 1 <= y <= spec.n_sites and y not in occ:
                    moved = tuple(sorted(occ - {x} | {y}))
                    b = basis.index_of(moved)
                    mat[b, a] += -2.0 * j[min(x, y) - 1]
    return mat


class SectorEvolver:
    """Eigendecomposed sector Hamiltonian, reusable across times."""

    def __init__(self, spec: ChainSpec, excitations: int):
        if excitations > _MAX_EXCITATIONS:
            raise ValueError(f"sector evolution supports at most {_MAX_EXCITATIONS} excitations")
        dim = comb(spec.n_sites, excitations)
        if dim > _MAX_SECTOR_DIM:
            raise ValueError(f"sector dimension {dim} exceeds the {_MAX_SECTOR_DIM} limit")
        self.spec = spec
        self.basis = SectorBasis(spec.n_sites, excitations)
        self._vals, self._vecs = np.linalg.eigh(sector_hamiltonian(spec, excitations))

    def evolve(self, vec, t: float) -> np.ndarray:
        """Propagate a sector amplitude vector by time t."""
        if not isfinite(t):
            raise ValueError(f"time must be finite, got t = {t!r}")
        vec = np.asarray(vec, dtype=complex).reshape(len(self.basis))
        phases = np.exp(-1j * self._vals * t)
        return self._vecs @ (phases * (self._vecs.T @ vec))

    def evolve_sites(self, sources, t: float) -> np.ndarray:
        """Sector vector exp(-iHt)|sources> of the state excited on sources."""
        vec = np.zeros(len(self.basis), dtype=complex)
        vec[self.basis.index_of(sources)] = 1.0
        return self.evolve(vec, t)

    def amplitude(self, targets, sources, t: float) -> complex:
        """Transition amplitude <targets| exp(-iHt) |sources> in this sector."""
        return complex(self.evolve_sites(sources, t)[self.basis.index_of(targets)])


def oracle_rdm(spec: ChainSpec, state: TwoQubitState, t: float) -> np.ndarray:
    """Receiver-pair density matrix by explicit evolution and partial trace.

    The sender state lives on sites (1, 2); the returned 4 x 4 matrix is in
    the receiver basis (|11>, |10>, |01>, |00>) of sites (N-1, N), where |10>
    means site N-1 excited.  Limited to N <= 14.
    """
    n = spec.n_sites
    if n < 4:
        raise ValueError(f"receiver pair needs at least 4 sites, got {n}")
    if n > _MAX_RDM_SITES:
        raise ValueError(f"oracle_rdm is limited to N <= {_MAX_RDM_SITES}, got {n}")

    # slot 1 of the sender pair is site 1, so a10 excites site 1 and a01 site 2
    ev1 = SectorEvolver(spec, 1)
    vec1 = np.zeros(len(ev1.basis), dtype=complex)
    vec1[ev1.basis.index_of((1,))] = state.a10
    vec1[ev1.basis.index_of((2,))] = state.a01
    out1 = ev1.evolve(vec1, t)

    ev2 = SectorEvolver(spec, 2)
    vec2 = np.zeros(len(ev2.basis), dtype=complex)
    vec2[ev2.basis.index_of((1, 2))] = state.a11
    out2 = ev2.evolve(vec2, t)

    vac = state.a00 * np.exp(-1j * field_constant(spec) * t)

    u, v = n - 1, n  # receiver sites

    def rec_slot(subset):
        has_u, has_v = u in subset, v in subset
        if has_u and has_v:
            return 0
        if has_u:
            return 1
        if has_v:
            return 2
        return 3

    # group global amplitudes by the bulk (sites 1..N-2) configuration;
    # components with identical bulk content interfere in the reduced state
    by_bulk: dict[tuple, np.ndarray] = {}

    def add(subset, amp):
        bulk = tuple(x for x in subset if x < u)
        vec = by_bulk.get(bulk)
        if vec is None:
            vec = np.zeros(4, dtype=complex)
            by_bulk[bulk] = vec
        vec[rec_slot(subset)] += amp

    add((), vac)
    for k, subset in enumerate(ev1.basis.subsets):
        add(subset, out1[k])
    for k, subset in enumerate(ev2.basis.subsets):
        add(subset, out2[k])

    rho = np.zeros((4, 4), dtype=complex)
    for vec in by_bulk.values():
        rho += np.outer(vec, vec.conj())
    return rho


def _stabilizer_states() -> np.ndarray:
    """The 60 two-qubit stabilizer states, amplitudes in |00>,|01>,|10>,|11> order:
    the 36 products of the six one-qubit ones and the 24 (|0>|k> + w|1>|k'>)/sqrt(2)
    with k' orthogonal to k and w in {1, -1, i, -i}."""
    r = np.sqrt(0.5)
    one = np.array([[1, 0], [0, 1], [r, r], [r, -r], [r, 1j * r], [r, -1j * r]])
    perp = one[[1, 0, 3, 2, 5, 4]]
    products = [np.kron(a, b) for a in one for b in one]
    entangled = [np.concatenate([k, w * kp]) * r
                 for k, kp in zip(one, perp) for w in (1, -1, 1j, -1j)]
    return np.array(products + entangled)


# a 2-design of each class's sender states; a slice's design is the six
# stabilizer states that lie in it, the one-qubit ones embedded in its two slots
_GENERAL = _stabilizer_states()
_DESIGNS = {"general": _GENERAL,
            "omega1": _GENERAL[np.all(_GENERAL[:, [0, 3]] == 0, axis=1)],
            "omega2": _GENERAL[np.all(_GENERAL[:, [1, 2]] == 0, axis=1)]}


def _fidelity(rho: np.ndarray, vec: np.ndarray) -> complex:
    # receiver row i holds the target amplitude of sender slot 3 - i
    w = vec[::-1]
    return complex(w.conj() @ rho @ w)


def haar_average(channel, fidelity_class: str = "general") -> complex:
    """Exact Haar average of <psi|rho|psi> over the class's sender states psi.

    channel maps a sender TwoQubitState to its receiver-pair matrix rho in the
    basis (|11>, |10>, |01>, |00>).  The fidelity is quadratic in psi psi^H, so
    the Haar average, exact on a 2-design, in dimension 4 (general) or 2 (the
    omega1 and omega2 slices) is the plain mean over the class's design states.
    The imaginary part of the result is rounding for a physical channel.
    """
    if fidelity_class not in _DESIGNS:
        raise ValueError(f"fidelity_class must be one of {tuple(_DESIGNS)}, got {fidelity_class!r}")
    return complex(np.mean([_fidelity(channel(TwoQubitState(*vec)), vec)
                            for vec in _DESIGNS[fidelity_class]]))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    max_deviation: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tolerance


def verification_battery(seed: int = 0) -> list[CheckResult]:
    """Cross-check amplitudes, the reduced state and its scores against sectors.

    The reduced state, the Monte Carlo scorer and the general, omega1 and
    omega2 averages are checked on the design states.  Their 60 projectors
    span every 4 x 4 operator, so agreement on all of them pins the whole
    receiver channel.  Returns one CheckResult per check; all must pass for
    the library to be considered healthy.  Takes about 0.15 s on one core.
    """
    from .amplitudes import amplitude_rp
    from .chain import build_chain
    from .fidelity import GRID_VALUES
    from .reduced import _sample_fidelities, evolve_receiver_pair
    from .spectral import decompose_chain

    seed = whole_number("seed", seed, 0)
    rng = np.random.default_rng(seed)
    results = []

    # r-excitation amplitudes from random source sites to every target set:
    # propagator entries for r = 1, determinants of its minors for r = 2, 3
    for r, name, chains in ((1, "single-excitation amplitudes",
                             ((10, 1, 0.0), (10, 1, 12.0), (9, 2, 7.0))),
                            (2, "two-excitation determinants", ((7, 2, 11.0), (8, 2, 11.0))),
                            (3, "three-excitation determinants", ((8, 1, 6.0),))):
        dev = 0.0
        for n_sites, block, field in chains:
            spec = build_chain(n_sites, block, field)
            dec = decompose_chain(spec)
            ev = SectorEvolver(spec, r)
            for t in rng.uniform(0.0, 80.0, size=5):
                sources = ev.basis.subsets[rng.integers(len(ev.basis))]
                sector = ev.evolve_sites(sources, t) * np.exp(1j * field_constant(spec) * t)
                dets = [amplitude_rp(dec, targets, sources, t) for targets in ev.basis.subsets]
                dev = max(dev, float(np.abs(sector - dets).max()))
        # phase roundoff grows like eps * |lambda| * t, so 1e-12 is too tight here
        results.append(CheckResult(name, dev, 1e-10))

    # the receiver-pair reduced state, the Monte Carlo scorer against the
    # oracle state's fidelity, and each class's closed form against the design
    # average of oracle_rdm, whose memo serves the slices' states too
    states = [TwoQubitState(*vec) for vec in _GENERAL]
    dev = dev_score = 0.0
    dev_class = dict.fromkeys(_DESIGNS, 0.0)
    for n_sites, field in ((7, 18.0), (8, 4.0)):
        spec = build_chain(n_sites, 2, field)
        dec = decompose_chain(spec)
        for t in rng.uniform(0.0, 120.0, size=2):
            channel = functools.cache(functools.partial(oracle_rdm, spec, t=t))
            scores = _sample_fidelities(dec, _GENERAL, t)
            for state, vec, score in zip(states, _GENERAL, scores):
                ref = channel(state)
                dev = max(dev, float(np.abs(evolve_receiver_pair(dec, state, t) - ref).max()))
                dev_score = max(dev_score, abs(score - _fidelity(ref, vec)))
            for cls in dev_class:
                exact = haar_average(channel, cls)
                dev_class[cls] = max(dev_class[cls], abs(GRID_VALUES[cls](dec, (t,))[0] - exact))
    results.append(CheckResult("receiver-pair reduced state", dev, 1e-10))
    results.append(CheckResult("Monte Carlo scorer", dev_score, 1e-10))
    results += [CheckResult(f"{cls} Haar average", d, 1e-10) for cls, d in dev_class.items()]

    # sector norm conservation
    dev = 0.0
    spec = build_chain(9, 2, 9.0)
    for r in (1, 2, 3):
        ev = SectorEvolver(spec, r)
        vec = rng.normal(size=len(ev.basis)) + 1j * rng.normal(size=len(ev.basis))
        vec /= np.linalg.norm(vec)
        for t in (3.7, 41.0):
            out = ev.evolve(vec, t)
            dev = max(dev, abs(float(np.linalg.norm(out)) - 1.0))
    results.append(CheckResult("sector norm conservation", dev, 1e-12))

    return results
