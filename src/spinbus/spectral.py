"""Eigendecomposition of the chain and single-excitation propagator amplitudes.

The propagator amplitude from site i to site j after time t is

    f_{j,i}(t) = sum_k U[j,k] * U[i,k] * exp(-i * lam_k * t)

with (lam_k, U[:,k]) the eigenpairs of the single-particle matrix.  All site
arguments are 1-based.

Two kernels evaluate the phases exp(-i lam_k t).  _phase_products sums
them against weight columns W[k, c] for given frequencies lam_k, one linear
form per column, and hands the table of sums to a reducer, which maps it to
the values its caller wants.  propagator_minor_grid calls it with the
eigenvalues, the weights of a minor, W[k, (p, q)] = U[targets[p], k]
U[sources[q], k], and _table, the reducer that keeps the table whole.  Each
class of fidelity.py passes its own reducer, its formula in the trace,
determinant and norm of F, and fidelity.general_values adds one more mode,
of frequency 0 and weights I, so that the entries of I + F come out of the
GEMM itself.  _cosine_series evaluates Hermitian forms x^H G x in the phases
x_k = exp(-i lam_k t) with a real symmetric G on a scan grid: the form is
the real series tr G + sum_{k<l} 2 G[k, l] cos((lam_l - lam_k) t) of
_form_series (which bounds.series reads too), one real term per mode pair
and no complex output (fidelity.omega1_values uses it on short chains).

_phase_products takes either an array of times, evaluated point by point,
or a UniformGrid, the times step * (start + j) of a scan; _cosine_series
takes a UniformGrid.  The table has one layout, (A, C, B) for A blocks of
B points: point a B + j sits at [a, :, j], so each column is a slab [:, c]
of contiguous rows for the elementwise work of the reducer.  An array of
times is A = len(ts) blocks of one point, reduced as one table.  On a
uniform grid the phase factorizes, exp(-i lam step (start + a B + j)) =
anchor[a] * base[j]: the base phases folded into the weights (or, for a
series, the cosines and sines of a block's offsets folded into the
coefficients) form the plan, and the grid is the product of the
(count/B, .) anchor table with it, costing count/B + B phase evaluations
per mode instead of count.  _phase_products makes that product _ROW_POINTS
points (a few anchor rows) at a time, and each row block goes straight from
its GEMM to the reducer, whose (rows, B) values fill one (A, B) output.  So
a scan chunk holds its values, 8 bytes a point, and one row block of the
table, never the whole table, 16 C bytes a point; only
propagator_minor_grid, whose output is the table, keeps it whole.  A
series' tables hold a phase exp(i (lam_l - lam_k) t) per mode pair, but
each is the product of two mode phases (_pair_phases), so a table time
still costs N phase evaluations, plus one complex product per pair.  The
phase plan is entry-major, (mode, column, block offset), which is what
gives the table its layout.  Each call builds its own plan, N B phase
evaluations and one product with what it folds in (the weights or G),
small beside the chunk's GEMM, so the kernels keep no state between calls
and scans on several threads share nothing.  Anchors are computed from the
integer index, never accumulated, so the rounding of a point's phase is
bounded by a few eps * |lam| * t, as on the array path.  The values depend
only on (step, start, count), so a fixed chunk layout gives the same
values however the scans run.

decompose diagonalizes the dense N x N matrix with np.linalg.eigh, so the
runtime needs numpy alone.  The solve is O(N^3), about 3 ms at N = 200, and
runs once per chain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, SingleParticleHamiltonian, hamiltonian_matrix, real_number, \
    whole_number

# time points per block of a uniform grid's phase table (one anchor per block)
_BLOCK = 256
# time points per row block of a uniform grid's phase table, reduced as one:
# 64 kB of complex values per column, so a block and its reducer's
# temporaries stay in cache
_ROW_POINTS = 4096


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors.

    eigenvectors[:, k] belongs to eigenvalues[k], with the sign eigh gives
    it: every reader multiplies two entries of one column or takes a
    modulus, so a column's sign cancels exactly.
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
    about 13 us at N = 8 when repeated (about 28 us amid the benchmark's
    point queries, 23 of them in eigh) and 2.9 ms at N = 200, two and a half
    times LAPACK's tridiagonal solver there, but it runs once per chain and
    any scan of that chain costs orders of magnitude more.  A matrix with a
    NaN or infinite entry is an error.
    """
    m = ham.to_dense()
    # eigh does not refuse one: it may return wrong eigenvalues beside NaN eigenvectors
    if np.count_nonzero(np.isfinite(m)) < m.size:
        raise ValueError("the single-particle matrix is not finite")
    vals, vecs = np.linalg.eigh(m)
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return SpectralDecomposition(vals, vecs)


def decompose_chain(spec: ChainSpec) -> SpectralDecomposition:
    """Shorthand for decompose(hamiltonian_matrix(spec))."""
    return decompose(hamiltonian_matrix(spec))


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
    The step must be finite and positive, the start a whole number >= 0 and
    the count a whole number >= 1.
    """

    step: float
    start: int
    count: int

    def __post_init__(self):
        step = real_number("step", self.step)
        if not (math.isfinite(step) and step > 0):
            raise ValueError(f"step must be finite and positive, got {self.step!r}")
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "start", whole_number("start", self.start, 0))
        object.__setattr__(self, "count", whole_number("count", self.count, 1))

    def __len__(self) -> int:
        return self.count


def propagator_minor_grid(dec: SpectralDecomposition, targets, sources,
                          ts) -> np.ndarray:
    """Amplitude minors over a time grid, shape (len(ts), len(targets), len(sources)).

    ts is an array of times or a UniformGrid.  Either way the minors are one
    GEMM of a phase table against W[k, (p, q)] = U[targets[p], k] * U[sources[q], k],
    kept whole.
    """
    targets, sources = tuple(targets), tuple(sources)
    minors = _phase_products(dec.eigenvalues, _minor_weights(dec, targets, sources), ts,
                             _table)
    # (A, C, B) to one row per point: a view on an array of times (B = 1)
    return minors.transpose(0, 2, 1).reshape(-1, len(targets), len(sources))[:len(ts)]


def _minor_weights(dec: SpectralDecomposition, targets, sources) -> np.ndarray:
    """W[k, (p, q)] = U[targets[p], k] * U[sources[q], k], shape (N, P Q)."""
    for name, sites in (("targets", targets), ("sources", sources)):
        if len(sites) == 0:
            raise ValueError(f"{name} must not be empty")
    n, p = dec.n_sites, len(targets)
    sites = (*targets, *sources)
    rows = [whole_number("site", s, 1) - 1 for s in sites]
    if max(rows) >= n:
        raise ValueError(f"site {sites[rows.index(max(rows))]!r} outside 1..{n}")
    # one take for both: the target rows, then the source rows
    u = dec.eigenvectors.take(rows, 0)
    return (u[:p, None, :] * u[None, p:, :]).reshape(-1, n).T


def _table(block):
    """The reducer that keeps a block of the phase table whole."""
    return block


def _phase_products(lam, weights, ts, reduce) -> np.ndarray:
    """reduce of the table sum_k exp(-i lam[k] t) weights[k, c] over ts, (A, ...).

    The table is (A, C, B): point a B + j of ts is [a, :, j], so column c is
    the slab [:, c] of contiguous rows.  An array of times is A = len(ts)
    blocks of B = 1 point, and reduce gets its whole table at once.  A
    UniformGrid is blocks of B = min(_BLOCK, count) points, the last of which
    may run past the count, and its table is made and reduced a few rows at
    a time, each row block straight from its GEMM, so that only reduce's
    output, (A, ...) for (rows, C, B) blocks reduced to (rows, ...), spans
    the grid.  An array of times that is not 1-D or not of real numbers
    (bools, strings, complex) raises ValueError, as does a phase table that
    is not finite, from a time that is not or a product lam t that
    overflows.
    """
    if not isinstance(ts, UniformGrid):
        times = np.asarray(ts)
        if times.dtype.kind in "bUSc":
            raise ValueError(f"times must be real numbers, got {ts!r}")
        ts = times.astype(float, copy=False)
        if ts.ndim != 1:
            raise ValueError(f"times must be a 1-D array, got shape {ts.shape}")
        return reduce((np.exp(-1j * _finite_phases(ts, lam, ts, lam)) @ weights)[:, :, None])
    block = min(_BLOCK, ts.count)
    # entry-major: (mode, column, block offset)
    base = np.exp(-1j * _finite_phases(lam, ts.step * np.arange(block), ts, lam))
    plan = (weights[:, :, None] * base[:, None, :]).reshape(lam.size, -1)
    anchors = np.exp(-1j * _finite_phases(_anchor_times(ts, block), lam, ts, lam))
    rows = max(1, _ROW_POINTS // block)
    out = None
    for r in range(0, anchors.shape[0], rows):
        values = reduce((anchors[r:r + rows] @ plan).reshape(-1, weights.shape[1], block))
        if out is None:
            out = np.empty((anchors.shape[0],) + values.shape[1:], values.dtype)
        out[r:r + rows] = values
    return out


def _finite_phases(x, y, ts, lam) -> np.ndarray:
    """The outer product of x and y, the phases lam t of a table for the
    times ts; a phase that is not finite raises ValueError naming ts, so no
    table holds the NaN of exp(-i inf)."""
    # np.outer's product without its ravels, and a count in place of .all(),
    # whose Python wrapper costs more than the check on a one-point table
    with np.errstate(over="ignore", invalid="ignore"):
        phases = x[:, None] * y
    if np.count_nonzero(np.isfinite(phases)) < phases.size:
        raise ValueError(f"times must keep every phase lam t finite, got t = {ts!r} "
                         f"on eigenvalues up to {float(np.abs(lam).max()):.6g} in modulus")
    return phases


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _anchor_times(grid: UniformGrid, block: int) -> np.ndarray:
    # from the integer index, never accumulated
    n_blocks = -(-grid.count // block)
    return grid.step * (grid.start + block * np.arange(n_blocks))


@functools.cache
def _mode_pairs(n_modes: int):
    """Row and column indices of the strict upper triangle, k < l, read-only."""
    return tuple(_read_only(i) for i in np.triu_indices(n_modes, 1))


def _form_series(lam, gram):
    """x^H gram x, x_k = exp(-i lam_k t), for a real symmetric gram as the real
    series c0 + sum_{k<l} a_kl cos(w_kl t): (c0, a, w) with c0 = tr gram,
    a_kl = 2 gram[k, l] and w_kl = lam_l - lam_k."""
    k, l = _mode_pairs(lam.size)
    return float(gram.trace()), 2.0 * gram[k, l], lam[l] - lam[k]


def _pair_phases(lam, ts, grid) -> np.ndarray:
    """exp(i w_kl t) for each t of ts and each mode pair k < l in _mode_pairs'
    order, (len(ts), P) with P = N (N - 1) / 2; a phase lam t that is not
    finite raises ValueError naming grid, the times ts belong to.

    Each is the product exp(i lam_l t) conj(exp(i lam_k t)): N complex phases
    per time and one complex product per pair.  The phases are mode-major, so
    the pairs (k, l > k) of one k are one row-wise multiply into the pair-major
    view of the output.
    """
    n = lam.size
    modes = np.exp(1j * _finite_phases(lam, ts, grid, lam))
    conj = modes.conj()
    pairs = np.empty((len(ts), n * (n - 1) // 2), dtype=complex)
    rows, first = pairs.T, 0
    for k in range(n - 1):
        np.multiply(modes[k + 1:], conj[k], out=rows[first:first + n - 1 - k])
        first += n - 1 - k
    return pairs


def _cosine_series(lam, gram, grid: UniformGrid) -> np.ndarray:
    """x^H gram x at each time of a uniform grid for a real symmetric gram, (count,).

    With x_k = exp(-i lam_k t) the form is the real cosine series
    c0 + sum_{k<l} a_kl cos(w_kl t) of _form_series, and the whole grid is
    one real GEMM of the anchor table, (A, 2P), against the plan, (2P, B),
    with P = N (N - 1) / 2.  The anchor table is the float view of the pair
    phases exp(i w t_a) of _pair_phases, so its columns interleave
    (cos w t_a, sin w t_a) pair by pair; the plan's rows interleave
    (a cos w tau_j, -a sin w tau_j) the same way, with tau_j the offsets of
    a block's points.  Each table time costs N complex phases, not 2P
    cosines and sines of the pair frequencies.
    """
    block = min(_BLOCK, grid.count)
    c0, a, _ = _form_series(lam, gram)
    plan = _pair_phases(lam, grid.step * np.arange(block), grid).view(float)
    plan *= np.stack((a, -a), axis=1).ravel()
    values = _pair_phases(lam, _anchor_times(grid, block), grid).view(float) @ plan.T
    values += c0  # in place: a second chunk-sized temporary cost page faults per chunk
    return values.ravel()[:grid.count]
