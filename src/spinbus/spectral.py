"""Eigendecomposition of the chain and single-excitation propagator amplitudes.

The propagator amplitude from site i to site j after time t is

    f_{j,i}(t) = sum_k U[j,k] * U[i,k] * exp(-i * lam_k * t)

with (lam_k, U[:,k]) the eigenpairs of the single-particle matrix.  All site
arguments are 1-based.

_phase_products is the only place exp(-i lam_k t) is evaluated: it sums
the phases against weight columns W[k, c], and propagator_minor_grid calls
it with the weights of a minor, W[k, (p, q)] = U[targets[p], k] U[sources[q], k]
(fidelity.omega1_values folds a constant form into those columns first).
It takes either an array of times, evaluated point by point, or a
UniformGrid, the times step * (start + j) of a scan.  On a uniform grid the
phase factorizes, exp(-i lam step (start + a B + j)) = anchor[a] * base[j]
for blocks of B points: the base phases folded into the weights form the
phase plan, (N, B * columns), and the whole grid is one product of the
(count/B, N) anchor table with it, costing count/B + B phase evaluations
per mode instead of count.  The plan depends only on the decomposition,
the weights, the step and B, so it is built once per scan and shared,
read-only, by every chunk and pool thread (a one-entry memo).  Anchors are
computed from the integer index, never accumulated, so the rounding of a
point's phase is bounded by a few eps * |lam| * t, as on the array path.
The values depend only on (step, start, count), so a fixed chunk layout
gives the same values at any thread count.

decompose diagonalizes the dense N x N matrix with np.linalg.eigh, so the
runtime needs numpy alone.  The solve is O(N^3), about 4 ms at N = 200, and
runs once per chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, SingleParticleHamiltonian, hamiltonian_matrix, whole_number

# relative cutoff below which a leading eigenvector component is treated as zero
# when fixing the overall sign
_SIGN_EPS = 1e-8
# time points per block of a uniform grid's phase table (one anchor per block)
_BLOCK = 256


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
    """Diagonalize a symmetric tridiagonal single-particle matrix.

    The solver is np.linalg.eigh on the dense matrix (it reads the lower
    triangle).  It costs O(N^3): on one core of a 2-vCPU VM a call takes
    about 45 us at N = 8 and 4 ms at N = 200, twice LAPACK's tridiagonal
    solver at N = 200, but it runs once per chain and any scan of that chain
    costs orders of magnitude more.

    Each eigenvector's sign is fixed in one pass over all columns: its leading
    component, the first above _SIGN_EPS times the column's largest modulus,
    is made positive.
    """
    vals, vecs = np.linalg.eigh(ham.to_dense())
    mags = np.abs(vecs)
    lead = np.argmax(mags > _SIGN_EPS * mags.max(axis=0), axis=0)
    flip = vecs[lead, np.arange(vals.size)] < 0
    vecs[:, flip] = -vecs[:, flip]
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return SpectralDecomposition(vals, vecs)


def decompose_chain(spec: ChainSpec) -> SpectralDecomposition:
    """Shorthand for decompose(hamiltonian_matrix(spec))."""
    return decompose(hamiltonian_matrix(spec))


def _site_index(dec: SpectralDecomposition, site) -> int:
    s = whole_number("site", site, 1)
    if s > dec.n_sites:
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


@dataclass(frozen=True)
class UniformGrid:
    """The count times step * (start + j), j = 0 .. count - 1.

    The start is an integer index, so a scan cut into chunks places every
    point at the same time whatever the chunking.  len() is the point count.
    """

    step: float
    start: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"a grid needs at least one point, got {self.count!r}")

    def __len__(self) -> int:
        return self.count


def propagator_minor_grid(dec: SpectralDecomposition, targets, sources,
                          ts) -> np.ndarray:
    """Amplitude minors over a time grid, shape (len(ts), len(targets), len(sources)).

    ts is an array of times or a UniformGrid.  Either way the minors are one
    GEMM of a phase table against W[k, (p, q)] = U[targets[p], k] * U[sources[q], k].
    """
    targets, sources = tuple(targets), tuple(sources)
    minors = _phase_products(dec, _minor_weights(dec, targets, sources), ts)
    return minors.reshape(len(ts), len(targets), len(sources))


def _minor_weights(dec: SpectralDecomposition, targets, sources) -> np.ndarray:
    """W[k, (p, q)] = U[targets[p], k] * U[sources[q], k], shape (N, P Q)."""
    u = dec.eigenvectors
    tj = [_site_index(dec, s) for s in targets]
    si = [_site_index(dec, s) for s in sources]
    return (u[tj][:, None, :] * u[si][None, :, :]).reshape(-1, dec.n_sites).T


def _phase_products(dec: SpectralDecomposition, weights, ts) -> np.ndarray:
    """sum_k exp(-i lam_k t) weights[k, c] for each t in ts, shape (len(ts), C)."""
    if isinstance(ts, UniformGrid):
        return _uniform_products(dec, weights, ts)
    ts = np.asarray(ts, dtype=float)
    return np.exp(-1j * np.outer(ts, dec.eigenvalues)) @ weights


# The phase plan of the last uniform grid evaluated: (key, base-folded
# weights).  It depends on the decomposition, the weights, the step and the
# block length only, so every chunk of a scan shares it, and a rebuilt plan
# is bit-identical to a kept one: no caller can tell a hit from a miss.  It
# is replaced in one assignment, so a pool thread reads either the old pair
# or the new one, never a mix.
_plan = None


def _phase_plan(dec, weights, step, block) -> np.ndarray:
    """Base phases of one block folded into the weights: (N, block * C), read-only."""
    global _plan
    key = (dec, step, block, weights.tobytes())
    memo = _plan
    if memo is None or memo[0] != key:
        lam = dec.eigenvalues
        base = np.exp(-1j * np.outer(step * np.arange(block), lam))
        folded = (base.T[:, :, None] * weights[:, None, :]).reshape(lam.size, -1)
        folded.flags.writeable = False
        memo = _plan = (key, folded)
    return memo[1]


def _uniform_products(dec, weights, grid: UniformGrid) -> np.ndarray:
    """(count, C) products on a uniform grid: anchors (A, N) @ phase plan (N, B C)."""
    block = min(_BLOCK, grid.count)
    folded = _phase_plan(dec, weights, grid.step, block)
    n_blocks = -(-grid.count // block)
    anchor_times = grid.step * (grid.start + block * np.arange(n_blocks))
    anchors = np.exp(-1j * np.outer(anchor_times, dec.eigenvalues))
    return (anchors @ folded).reshape(n_blocks * block, -1)[:grid.count]
