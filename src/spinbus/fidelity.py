"""Average transfer fidelities: closed forms and seeded Monte Carlo.

Input classes
-------------
one-qubit : a single qubit sent from site 1 to site N; averaging the
    phase-corrected fidelity over the Bloch sphere gives
    1/2 + |f|/3 + |f|^2/6 with f the end-to-end amplitude.
omega1    : sender states b|01> + c|10> (one excitation shared by the pair).
omega2    : sender states a|00> + d|11> (even excitation content).
general   : Haar-random two-qubit states.

Every average is a closed form in the sender-to-receiver minor F(t), and
GRID_VALUES names the function that evaluates each class on a time grid;
scans and single-time queries both go through it.  Two kernels of
spectral.py evaluate them all: the complex phase GEMM _phase_products,
whose table holds each entry it emits as a contiguous slab, which each
class reads elementwise in its reducer (_omega1_rows, _omega2_entries,
_general_entries, _one_qubit_amplitudes) a row block at a time, and the
real _cosine_series.  omega1 is a Hermitian form in F, the sum of the
squared moduli of its four rows, and on the scan grids of short chains
that form's cosine series.  omega2 is
1/2 - ||F||^2/6 + |g_uv|^2/2 + Re(g_uv)/3 with g_uv = det F, by column
orthonormality of the propagator.  Both are exact slice-Haar integrals of
<psi|rho(t)|psi>, hit 1 at perfect transfer and do not see a global phase
of the odd-excitation sector.  general is 1/5 + |det(I + F)|^2/20: of the
Kraus operators, one per bulk configuration, only the bulk-empty one has a
nonzero diagonal, (1, f_v2, f_u1, g_uv), whose sum is det(I + F)
(Horodecki^3, PRA 60, 1888, 1999), and the phase GEMM emits I + F with the
identity folded in as a zero-frequency mode (_general_modes).  A phase p on
the odd-excitation sector makes that trace 1 + g_uv + p (f_u1 + f_v2)
(general_values' phase_opt).

The curvature bounds and the all-time ceiling that tell a scan how far it
may trust the curve between its points are read off each class's series in
bounds.py, which only scans load.  Seeded Monte Carlo stays as the
cross-check of the closed forms: reduced._sample_fidelities scores each
drawn state from F at one time, through the six signed terms of the
receiver state's operator table (reduced._receiver_operators).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chain import whole_number
from .reduced import _pair_weights, _sample_fidelities
from .spectral import SpectralDecomposition, UniformGrid, _cosine_series, _minor_weights, \
    _phase_products, _read_only, amplitude_1p
from .states import SeededSampler, sample_haar_1q, sample_haar_2q, sample_omega1, \
    sample_omega2

# method label of each class's closed form
METHODS = {
    "one-qubit": "closed-form-1q",
    "general": "closed-form-general",
    "omega1": "closed-form-omega1",
    "omega2": "closed-form-omega2",
}

_AMP_TOL = 1e-9


@dataclass(frozen=True)
class AverageFidelity:
    """An average fidelity value with its provenance.

    stderr is the Monte Carlo standard error and is None for closed forms.
    """

    value: float
    method: str
    stderr: float | None = None


def avg_fidelity_1q(f) -> AverageFidelity:
    """Bloch-sphere average for one-qubit transfer with amplitude f.

    Accepts the complex amplitude or its modulus; the formula uses |f| and
    assumes the arrival phase has been compensated.
    """
    m = abs(f)
    if not m <= 1.0 + _AMP_TOL:  # also rejects NaN
        raise ValueError(f"|f| = {m} exceeds 1 or is not a number")
    return AverageFidelity(_one_qubit_from_modulus(min(m, 1.0)), METHODS["one-qubit"])


def one_qubit_amplitude(dec: SpectralDecomposition, t: float) -> complex:
    """End-to-end amplitude f_{N,1}(t)."""
    return amplitude_1p(dec, dec.n_sites, 1, t)


def _one_qubit_from_modulus(m):
    # Bloch-sphere average after the arrival phase is compensated
    return 0.5 + m / 3.0 + m * m / 6.0


# The exact Haar average over b|01> + c|10> of <psi|rho|psi> is a Hermitian
# form in F, (3/4 |f_u1 + f_v2|^2 + 1/4 |f_u1 - f_v2|^2 + 1/2 |f_u2|^2
# + 1/2 |f_v1|^2) / 3, and so the sum of squares |_OMEGA1_FORM @ vec F|^2 with
# vec F = (f_u1, f_u2, f_v1, f_v2), the order of the pair minor's weights.
_OMEGA1_FORM = np.array([[1 / 2, 0.0, 0.0, 1 / 2],
                         [1 / np.sqrt(12), 0.0, 0.0, -1 / np.sqrt(12)],
                         [0.0, 1 / np.sqrt(6), 0.0, 0.0],
                         [0.0, 0.0, 1 / np.sqrt(6), 0.0]])
_OMEGA1_FORM.flags.writeable = False

# the longest chain whose omega1 scan grids are evaluated as a cosine series:
# its N (N - 1) real terms per point grow faster than the phase products'
# four complex columns per mode.  On a 32768-point chunk (one BLAS thread,
# 2-vCPU VM), with the series' tables built from mode phases, the series
# takes 0.37-0.61 ms against 0.59-0.72 ms for the phase products at
# N = 10-16, each chunk building its plan (0.17-0.35 against 0.45-0.55 ms
# without the build); the two cost the same near N = 20, and the series
# takes twice as long at N = 40.  The cutoff was set at the crossover of
# tables built from pair cosines and sines, N = 12 to 13.  The benchmark
# scans no omega1 chain longer than 11 sites, so it checks neither side.
_SERIES_MAX_SITES = 12


def avg_fidelity_omega1(dec: SpectralDecomposition, t: float) -> AverageFidelity:
    """Exact average fidelity over the one-excitation sender slice."""
    return AverageFidelity(float(omega1_values(dec, (t,))[0]), METHODS["omega1"])


def avg_fidelity_omega2(dec: SpectralDecomposition, t: float) -> AverageFidelity:
    """Exact average fidelity over the even sender slice."""
    return AverageFidelity(float(omega2_values(dec, (t,))[0]), METHODS["omega2"])


@functools.lru_cache(maxsize=1)
def _omega1_weights(dec: SpectralDecomposition) -> np.ndarray:
    """The pair minor's weights with _OMEGA1_FORM folded in, once per decomposition."""
    return _read_only(_pair_weights(dec) @ _OMEGA1_FORM.T)


def omega1_values(dec: SpectralDecomposition, ts: np.ndarray) -> np.ndarray:
    """Vectorized omega1 average over a time grid.

    With W = _omega1_weights(dec), the phase products yield the four rows of
    the form and the average is their sum of squares.  It is also the
    Hermitian form x^H G x in the mode phases x_k = exp(-i lam_k t) with the
    real G = W W^T, and on the uniform grid of a scan of a short chain it is
    evaluated as that form's cosine series.
    """
    weights = _omega1_weights(dec)
    if isinstance(ts, UniformGrid) and dec.n_sites <= _SERIES_MAX_SITES:
        return _cosine_series(dec.eigenvalues, weights @ weights.T, ts)
    return _phase_products(dec.eigenvalues, weights, ts, _omega1_rows).ravel()[:len(ts)]


def _omega1_rows(rows):
    """The sum of squares of a block of the form's four rows, (A, 4, B) to (A, B)."""
    # the float view is (A, 4, 2B), re and im interleaved
    rows = rows.view(float)
    squares = np.einsum("acb,acb->ab", rows, rows)
    return squares[:, 0::2] + squares[:, 1::2]


def omega2_values(dec: SpectralDecomposition, ts: np.ndarray) -> np.ndarray:
    """Vectorized omega2 average over a time grid.

    The average is 1/2 - ||F||^2/6 + |g|^2/2 + Re(g)/3 with
    g = det F = f_u1 f_v2 - f_u2 f_v1, evaluated on the slabs of F's entries.
    """
    return _phase_products(dec.eigenvalues, _pair_weights(dec), ts, _omega2_entries) \
        .ravel()[:len(ts)]


def _omega2_entries(entries):
    """The omega2 average from a block of F's entries, (A, 4, B) to (A, B)."""
    fu1, fu2, fv1, fv2 = (entries[:, c] for c in range(4))
    g = fu1 * fv2 - fu2 * fv1
    # squared moduli without np.abs, whose hypot is then squared back
    values = 0.5 + (g.real * g.real + g.imag * g.imag) / 2.0 + g.real / 3.0
    for e in (fu1, fu2, fv1, fv2):
        values -= (e.real * e.real + e.imag * e.imag) / 6.0
    return values


@functools.lru_cache(maxsize=1)
def _general_modes(dec: SpectralDecomposition):
    """The pair minor's modes and one more, of frequency 0 and weights I.

    Their phase products are the entries of I + F.  Built once per
    decomposition, not per chunk of a scan.
    """
    lam = np.append(dec.eigenvalues, 0.0)
    weights = np.vstack([_pair_weights(dec), np.eye(2).ravel()])
    return _read_only(lam), _read_only(weights)


def general_values(dec: SpectralDecomposition, ts: np.ndarray,
                   phase_opt: bool = False) -> np.ndarray:
    """Exact Haar average over all two-qubit sender states on a time grid.

    The average is 1/5 + |det(I + F)|^2/20.  With phase_opt, the average after
    the odd-excitation sector phase that maximizes it at each time,
    1/5 + (|det(I + F) - s| + |s|)^2/20 with s = f_u1 + f_v2.
    """
    reduce = functools.partial(_general_entries, phase_opt=phase_opt)
    return _phase_products(*_general_modes(dec), ts, reduce).ravel()[:len(ts)]


def _general_entries(entries, phase_opt):
    """The general average from a block of the entries of I + F, (A, 4, B) to (A, B)."""
    # (x, z; w, y) = I + F, each entry an (A, B) slab
    x, z, w, y = (entries[:, c] for c in range(4))
    det = x * y
    det -= z * w
    if phase_opt:
        s = x + y - 2.0
        norm = (np.abs(det - s) + np.abs(s)) ** 2
    else:
        # |det|^2 without np.abs, whose hypot is then squared back
        norm = det.real * det.real
        norm += det.imag * det.imag
    norm /= 20.0
    norm += 0.2
    return norm


@functools.lru_cache(maxsize=1)
def _end_weights(dec: SpectralDecomposition) -> np.ndarray:
    """The weights of the end-to-end amplitude f_{N,1}, (N, 1), once per decomposition."""
    return _read_only(_minor_weights(dec, (dec.n_sites,), (1,)))


def one_qubit_values(dec: SpectralDecomposition, ts: np.ndarray) -> np.ndarray:
    """Vectorized one-qubit average over a time grid."""
    return _phase_products(dec.eigenvalues, _end_weights(dec), ts, _one_qubit_amplitudes) \
        .ravel()[:len(ts)]


def _one_qubit_amplitudes(amplitudes):
    """The one-qubit average from a block of f_{N,1}, (A, 1, B) to (A, B)."""
    return _one_qubit_from_modulus(np.abs(amplitudes[:, 0]))


# average fidelity of each class on a time grid, called as values(dec, ts)
GRID_VALUES = {
    "one-qubit": one_qubit_values,
    "general": general_values,
    "omega1": omega1_values,
    "omega2": omega2_values,
}
CLASSES = tuple(GRID_VALUES)


def _sample_count(samples) -> int:
    # a standard error needs two samples; a fractional count would draw
    # int(samples) states but divide by sqrt(samples)
    return whole_number("samples", samples, 2)


def avg_fidelity_1q_mc(dec: SpectralDecomposition, t: float, samples: int,
                       sampler: SeededSampler) -> AverageFidelity:
    """Monte Carlo Bloch-sphere average for one-qubit transfer.

    Cross-validates the closed form.  The arrival amplitude is rotated to be
    real positive, matching the compensated protocol the closed form describes.
    samples must be an integer >= 2.
    """
    samples = _sample_count(samples)
    f = abs(one_qubit_amplitude(dec, t))
    ab = sample_haar_1q(sampler, size=samples)
    pa, pb = np.abs(ab[:, 0]) ** 2, np.abs(ab[:, 1]) ** 2
    vals = (pa + pb * f) ** 2 + pa * pb * (1.0 - f ** 2)
    return AverageFidelity(float(vals.mean()), "monte-carlo-1q",
                           float(vals.std(ddof=1) / np.sqrt(samples)))


_SAMPLERS = {
    "general": sample_haar_2q,
    "omega1": sample_omega1,
    "omega2": sample_omega2,
}


def avg_fidelity_mc(dec: SpectralDecomposition, t: float, samples: int,
                    sampler: SeededSampler, state_class: str = "general") -> AverageFidelity:
    """Monte Carlo average of <psi|rho(t)|psi> over a sender-state class.

    Every sample is scored through the receiver kernel of reduced.py.  samples
    must be an integer >= 2, the fewest that give a standard error.
    """
    samples = _sample_count(samples)
    try:
        draw = _SAMPLERS[state_class]
    except KeyError:
        raise ValueError(f"unknown state class {state_class!r}") from None
    states = draw(sampler, size=samples)
    vals = _sample_fidelities(dec, states, t)
    return AverageFidelity(float(vals.mean()), f"monte-carlo-{state_class}",
                           float(vals.std(ddof=1) / np.sqrt(samples)))
