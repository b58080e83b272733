"""Eigendecomposition of the chain and single-excitation propagator amplitudes.

The propagator amplitude from site i to site j after time t is

    f_{j,i}(t) = sum_k U[j,k] * U[i,k] * exp(-i * lam_k * t)

with (lam_k, U[:,k]) the eigenpairs of the single-particle matrix.  All site
arguments are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .chain import ChainSpec, SingleParticleHamiltonian, hamiltonian_matrix

# relative cutoff below which a leading eigenvector component is treated as zero
# when fixing the overall sign
_SIGN_EPS = 1e-8


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and sign-fixed orthonormal eigenvectors.

    eigenvectors[:, k] belongs to eigenvalues[k]; the first component of each
    vector that is not negligibly small is made positive, so repeated
    decompositions of the same chain are bit-identical.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.eigenvalues.size

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


def decompose(ham: SingleParticleHamiltonian) -> SpectralDecomposition:
    """Diagonalize a symmetric tridiagonal single-particle matrix."""
    vals, vecs = eigh_tridiagonal(ham.diagonal, ham.offdiagonal)
    for k in range(vals.size):
        col = vecs[:, k]
        lead = np.flatnonzero(np.abs(col) > _SIGN_EPS * np.abs(col).max())[0]
        if col[lead] < 0:
            np.negative(col, out=col)
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return SpectralDecomposition(vals, vecs)


def decompose_chain(spec: ChainSpec) -> SpectralDecomposition:
    """Shorthand for decompose(hamiltonian_matrix(spec))."""
    return decompose(hamiltonian_matrix(spec))


def _site_index(dec: SpectralDecomposition, site) -> int:
    s = int(site)
    if s < 1 or s > dec.n_sites:
        raise ValueError(f"site {site!r} outside 1..{dec.n_sites}")
    return s - 1


def amplitude_1p(dec: SpectralDecomposition, target, source, t: float) -> complex:
    """Propagator amplitude f_{target,source}(t); negative t gives the reverse."""
    return complex(propagator_minor_grid(dec, (target,), (source,), (t,))[0, 0, 0])


def amplitude_row(dec: SpectralDecomposition, source, t: float) -> np.ndarray:
    """All-site amplitude vector [f_{1,source}(t), ..., f_{N,source}(t)]."""
    return propagator_minor_grid(dec, range(1, dec.n_sites + 1), (source,), (t,))[0, :, 0]


def propagator_minor(dec: SpectralDecomposition, targets, sources, t: float) -> np.ndarray:
    """Matrix of amplitudes f_{targets[p], sources[q]}(t)."""
    return propagator_minor_grid(dec, targets, sources, (t,))[0]


def propagator_minor_grid(dec: SpectralDecomposition, targets, sources,
                          ts: np.ndarray) -> np.ndarray:
    """Amplitude minors over a time grid, shape (len(ts), len(targets), len(sources)).

    The only place the phases exp(-i lam_k t) are evaluated: one GEMM of the
    (T, N) phase table against W[k, (p, q)] = U[targets[p], k] * U[sources[q], k].
    """
    tj = [_site_index(dec, s) for s in targets]
    si = [_site_index(dec, s) for s in sources]
    u = dec.eigenvectors
    weights = (u[tj][:, None, :] * u[si][None, :, :]).reshape(-1, dec.n_sites).T
    ts = np.asarray(ts, dtype=float)
    phases = np.exp(-1j * np.outer(ts, dec.eigenvalues))
    return (phases @ weights).reshape(ts.size, len(tj), len(si))
