"""Chain geometry, coupling profiles, and the single-particle hopping matrix.

An open chain of N spins-1/2 with XX exchange maps, through the usual
fermionization, onto free fermions hopping on N sites.  Everything downstream
works with the resulting N x N symmetric tridiagonal matrix: off-diagonal
entries -2*J_l for bond l, and on-site energy -2*h on the two barrier sites
when a barrier field is present.  Energies are quoted in units of the uniform
exchange coupling, and site indices are 1-based in every public interface.

Barrier layout: a sender block occupies sites 1..n and a receiver block sites
N-n+1..N; the field sits on the sites immediately inside, b1 = n + 1 and
b2 = N - n.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

UNIFORM = "uniform"
ENGINEERED = "engineered"
BALLISTIC = "ballistic"
PROFILES = (UNIFORM, ENGINEERED, BALLISTIC)

# endpoint prefactor that maximizes end-to-end transfer on long uniform chains
BALLISTIC_C_DEFAULT = 1.030


def whole_number(name, value, minimum) -> int:
    """value as an int; a bool, a fraction or a value below minimum raises ValueError.

    int() would truncate 7.9 to 7 and read True as 1; both are rejected instead.
    """
    # the exact type test spares the common case the slower check against the
    # numbers ABC; bool is a subclass of int, so True does not pass it
    integral = type(value) is int or (isinstance(value, numbers.Integral)
                                      and not isinstance(value, bool))
    if not integral or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def real_number(name, value) -> float:
    """value as a float; a bool or anything but a real number raises ValueError.

    float() would read True as 1.0 and "3" as 3.0; both are rejected instead.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ChainSpec:
    """Geometry and field layout of an open XX chain.

    Parameters
    ----------
    n_sites : int
        Number of spins N (at least 2).
    block : int or None
        Length n of the sender and receiver blocks.  None means no block
        structure (plain end-to-end transfer, no barrier allowed).
    field : float
        Barrier field strength h >= 0.  Positive values require room for
        the barriers: N >= 2n + 3.
    profile : str
        One of "uniform", "engineered", "ballistic".
    ballistic_c : float
        Endpoint coupling prefactor for the ballistic profile.
    """

    n_sites: int
    block: int | None = None
    field: float = 0.0
    profile: str = UNIFORM
    ballistic_c: float = BALLISTIC_C_DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "n_sites", whole_number("n_sites", self.n_sites, 2))
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}, expected one of {PROFILES}")
        if self.block is not None:
            object.__setattr__(self, "block", whole_number("block", self.block, 1))
            if 2 * self.block + 2 > self.n_sites:
                raise ValueError(
                    f"blocks of length {self.block} do not fit on {self.n_sites} sites"
                )
        object.__setattr__(self, "field", real_number("field", self.field))
        object.__setattr__(self, "ballistic_c", real_number("ballistic_c", self.ballistic_c))
        if not np.isfinite(self.field) or self.field < 0:
            raise ValueError(f"barrier field must be >= 0, got {self.field!r}")
        if self.field > 0:
            if self.block is None:
                raise ValueError("a barrier field requires a block length")
            if self.n_sites < 2 * self.block + 3:
                raise ValueError(
                    f"barrier sites need N >= 2n + 3, got N={self.n_sites}, n={self.block}"
                )
        if not np.isfinite(self.ballistic_c) or self.ballistic_c <= 0:
            raise ValueError(f"ballistic prefactor must be > 0, got {self.ballistic_c!r}")

    @property
    def barriers(self) -> tuple[int, int] | None:
        """Barrier sites (b1, b2) = (n + 1, N - n), or None without clearance."""
        if self.block is None or self.n_sites < 2 * self.block + 3:
            return None
        return (self.block + 1, self.n_sites - self.block)

    def couplings(self) -> np.ndarray:
        """Exchange couplings J_l for bonds l = 1..N-1."""
        n = self.n_sites
        if self.profile == UNIFORM:
            j = np.ones(n - 1)
        elif self.profile == ENGINEERED:
            l = np.arange(1, n)
            j = np.sqrt(l * (n - l))
        else:
            j = np.ones(n - 1)
            j[0] = j[-1] = self.ballistic_c * n ** (-1.0 / 6.0)
        j.flags.writeable = False
        return j

    def site_fields(self) -> np.ndarray:
        """On-site field h_l for sites l = 1..N (nonzero only on barriers)."""
        f = np.zeros(self.n_sites)
        if self.field > 0:
            b1, b2 = self.barriers
            f[b1 - 1] = f[b2 - 1] = self.field
        f.flags.writeable = False
        return f


def build_chain(n_sites, block=None, field=0.0, profile=UNIFORM,
                ballistic_c=BALLISTIC_C_DEFAULT) -> ChainSpec:
    """Validate and assemble a ChainSpec."""
    return ChainSpec(n_sites, block, field, profile, ballistic_c)


@dataclass(frozen=True, eq=False)
class SingleParticleHamiltonian:
    """Symmetric tridiagonal one-fermion matrix of the chain.

    diagonal[i] is the on-site energy of site i+1, offdiagonal[l] the hopping
    element of bond l+1.  Hopping is -2*J_l; barrier sites carry -2*h.
    """

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    @property
    def dimension(self) -> int:
        return self.diagonal.size

    def to_dense(self) -> np.ndarray:
        n = self.dimension
        m = np.zeros((n, n))
        m[np.arange(n), np.arange(n)] = self.diagonal
        m[np.arange(n - 1), np.arange(1, n)] = self.offdiagonal
        m[np.arange(1, n), np.arange(n - 1)] = self.offdiagonal
        return m


def hamiltonian_matrix(spec: ChainSpec) -> SingleParticleHamiltonian:
    """Single-particle matrix: off-diagonal -2*J_l, diagonal -2*h on barriers."""
    diag = -2.0 * spec.site_fields()
    off = -2.0 * spec.couplings()
    diag.flags.writeable = False
    off.flags.writeable = False
    return SingleParticleHamiltonian(diag, off)
