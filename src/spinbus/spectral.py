"""Eigendecomposition of the chain and single-excitation propagator amplitudes.

The propagator amplitude from site i to site j after time t is

    f_{j,i}(t) = sum_k U[j,k] * U[i,k] * exp(-i * lam_k * t)

with (lam_k, U[:,k]) the eigenpairs of the single-particle matrix.  All site
arguments are 1-based.

Two kernels evaluate the phases exp(-i lam_k t).  _phase_products
evaluates linear forms in F: it sums the phases against weight columns
W[k, c], and propagator_minor_grid calls it with the weights of a minor,
W[k, (p, q)] = U[targets[p], k] U[sources[q], k].  _cosine_series
evaluates Hermitian forms x^H G x in the phases x_k = exp(-i lam_k t) with a
real symmetric G on a scan grid: the form is the real series
tr G + sum_{k<l} 2 G[k, l] cos((lam_l - lam_k) t), one real term per mode
pair and no complex output (fidelity.omega1_values uses it on short chains).

_phase_products takes either an array of times, evaluated point by point,
or a UniformGrid, the times step * (start + j) of a scan; _cosine_series
takes a UniformGrid.  On a uniform grid the phase factorizes,
exp(-i lam step (start + a B + j)) = anchor[a] * base[j] for blocks of B
points: the base phases folded into the weights (or, for a series, the
cosines and sines of a block's offsets folded into the coefficients) form
the plan, and the whole grid is one product of the (count/B, .) anchor
table with it, costing count/B + B phase evaluations per mode or pair
instead of count.  A plan depends only on the
decomposition, the weights or G, the step and B, so it is built once per
scan and shared, read-only, by every chunk and pool thread (a one-entry
memo).  Anchors are computed from the integer index, never accumulated, so
the rounding of a point's phase is bounded by a few eps * |lam| * t, as on
the array path.  The values depend only on (step, start, count), so a fixed
chunk layout gives the same values at any thread count.

decompose diagonalizes the dense N x N matrix with np.linalg.eigh, so the
runtime needs numpy alone.  The solve is O(N^3), about 4 ms at N = 200, and
runs once per chain.
"""

from __future__ import annotations

import functools
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


# The plan of the last uniform grid evaluated: (key, plan).  A plan depends
# on its key alone (the kernel, the decomposition, the step, the block length
# and the weights or Gram matrix), so every chunk of a scan shares it, and a
# rebuilt plan is bit-identical to a kept one: no caller can tell a hit from
# a miss.  It is replaced in one assignment, so a pool thread reads either
# the old pair or the new one, never a mix.
_memo = None


def _memoized(key, build):
    """build(), or its value from the last call when that call had the same key."""
    global _memo
    memo = _memo
    if memo is None or memo[0] != key:
        memo = _memo = (key, build())
    return memo[1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _phase_plan(dec, weights, step, block) -> np.ndarray:
    """Base phases of one block folded into the weights: (N, block * C), read-only."""
    def build():
        lam = dec.eigenvalues
        base = np.exp(-1j * np.outer(step * np.arange(block), lam))
        return _read_only((base.T[:, :, None] * weights[:, None, :]).reshape(lam.size, -1))

    return _memoized(("phase", dec, step, block, weights.tobytes()), build)


def _uniform_products(dec, weights, grid: UniformGrid) -> np.ndarray:
    """(count, C) products on a uniform grid: anchors (A, N) @ phase plan (N, B C)."""
    block = min(_BLOCK, grid.count)
    folded = _phase_plan(dec, weights, grid.step, block)
    anchors = np.exp(-1j * np.outer(_anchor_times(grid, block), dec.eigenvalues))
    return (anchors @ folded).reshape(-1, weights.shape[1])[:grid.count]


def _anchor_times(grid: UniformGrid, block: int) -> np.ndarray:
    # from the integer index, never accumulated
    n_blocks = -(-grid.count // block)
    return grid.step * (grid.start + block * np.arange(n_blocks))


@functools.cache
def _mode_pairs(n_modes: int):
    """Row and column indices of the strict upper triangle, k < l, read-only."""
    return tuple(_read_only(i) for i in np.triu_indices(n_modes, 1))


def _cosine_series(dec: SpectralDecomposition, gram, grid: UniformGrid) -> np.ndarray:
    """x^H gram x at each time of a uniform grid for a real symmetric gram, (count,).

    With x_k = exp(-i lam_k t) the form is the real cosine series
    tr gram + sum_{k<l} a_kl cos(w_kl t), a_kl = 2 gram[k, l] and
    w_kl = lam_l - lam_k, and the whole grid is one real GEMM of the anchor
    table [cos w t_a | sin w t_a], (A, 2P), against the plan
    [a cos w tau_j ; -a sin w tau_j], (2P, B), with tau_j the offsets of a
    block's points and P = N (N - 1) / 2.
    """
    lam = dec.eigenvalues
    block = min(_BLOCK, grid.count)

    def build():
        k, l = _mode_pairs(lam.size)
        omega, a = lam[l] - lam[k], 2.0 * gram[k, l]
        offsets = np.outer(omega, grid.step * np.arange(block))
        plan = np.concatenate([a[:, None] * np.cos(offsets), -a[:, None] * np.sin(offsets)])
        return float(gram.trace()), _read_only(omega), _read_only(plan)

    c0, omega, plan = _memoized(("cosine", dec, grid.step, block, gram.tobytes()), build)
    phases = np.outer(_anchor_times(grid, block), omega)
    anchors = np.concatenate([np.cos(phases), np.sin(phases)], axis=1)
    values = anchors @ plan
    values += c0  # in place: a second chunk-sized temporary cost page faults per chunk
    return values.ravel()[:grid.count]
