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
scans and single-time queries both go through it.  The two-qubit averages
read three invariants of F, tau = tr F, g = det F and s = ||F||^2:

    general = 1/5 + |1 + tau + g|^2/20
    omega1  = (|tau|^2 + s)/6
    omega2  = 1/2 - s/6 + |g|^2/2 + Re(g)/3

Of general's Kraus operators, one per bulk configuration, only the
bulk-empty one has a nonzero diagonal, (1, f_v2, f_u1, g), summing to
1 + tau + g = det(I + F) (Horodecki^3, PRA 60, 1888, 1999).  omega1 and
omega2 are exact slice-Haar integrals of <psi|rho(t)|psi>; both hit 1 at
perfect transfer and do not see a global phase of the odd-excitation
sector.  The phase GEMM of spectral._phase_products emits F's entries as
slabs, a row block at a time, and each class's reducer applies its
formula through _trace, _det and _norm2, computing only the invariants it
reads; for general the GEMM emits I + F, with I folded in as a
zero-frequency mode (_general_modes), and _det gives 1 + tau + g.  omega1
is also a Hermitian form in the mode phases (_omega1_gram), evaluated on
the scan grids of short chains as its real _cosine_series.

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


# the longest chain whose omega1 scan grids are evaluated as a cosine series:
# its N (N - 1) real terms per point grow faster than the phase products'
# four complex columns per mode.  On a 131072-point chunk (one BLAS thread,
# 2-vCPU VM) the series takes 0.9-2.2 ms against 3.2-4.4 ms for the phase
# products at N = 10-16 and 3.6 against 5.0 ms at N = 20; the two cost the
# same between N = 24 and 28, and the series takes 1.7 times as long at
# N = 40.  The cutoff was set at an earlier crossover, N = 12 to 13, and the
# benchmark scans no omega1 chain longer than 11 sites.
_SERIES_MAX_SITES = 12


def avg_fidelity_omega1(dec: SpectralDecomposition, t: float) -> AverageFidelity:
    """Exact average fidelity over the one-excitation sender slice."""
    return AverageFidelity(float(omega1_values(dec, (t,))[0]), METHODS["omega1"])


def avg_fidelity_omega2(dec: SpectralDecomposition, t: float) -> AverageFidelity:
    """Exact average fidelity over the even sender slice."""
    return AverageFidelity(float(omega2_values(dec, (t,))[0]), METHODS["omega2"])


# The invariants of F that the two-qubit averages read, each from a block of
# the entry slabs of F (or of I + F) in _pair_weights' order
# (f_u1, f_u2, f_v1, f_v2), (A, 4, B) to (A, B).

def _trace(entries):
    """tr F = f_u1 + f_v2."""
    return entries[:, 0] + entries[:, 3]


def _det(entries):
    """det F = f_u1 f_v2 - f_u2 f_v1."""
    det = entries[:, 0] * entries[:, 3]
    det -= entries[:, 1] * entries[:, 2]
    return det


def _norm2(entries):
    """||F||^2, the sum of the entries' squared moduli."""
    # the float view is (A, 4, 2B), re and im interleaved
    parts = entries.view(float)
    squares = np.einsum("acb,acb->ab", parts, parts)
    return squares[:, 0::2] + squares[:, 1::2]


def _abs2(z):
    # |z|^2 without np.abs, whose hypot is then squared back
    return z.real * z.real + z.imag * z.imag


@functools.lru_cache(maxsize=1)
def _omega1_gram(dec: SpectralDecomposition) -> np.ndarray:
    """G with omega1 = x^H G x, x_k = exp(-i lam_k t), once per decomposition: F's
    entries are x^T P and tr F = x^T w, so G = (P P^T + w w^T)/6."""
    p = _pair_weights(dec)
    w = p[:, 0] + p[:, 3]
    return _read_only((p @ p.T + np.outer(w, w)) / 6.0)


def omega1_values(dec: SpectralDecomposition, ts: np.ndarray) -> np.ndarray:
    """Vectorized omega1 average over a time grid, (|tr F|^2 + ||F||^2)/6, on
    the uniform grid of a scan of a short chain as its form's cosine series."""
    if isinstance(ts, UniformGrid) and dec.n_sites <= _SERIES_MAX_SITES:
        return _cosine_series(dec.eigenvalues, _omega1_gram(dec), ts)
    return _phase_products(dec.eigenvalues, _pair_weights(dec), ts, _omega1_average) \
        .ravel()[:len(ts)]


def _omega1_average(entries):
    values = _norm2(entries)
    values += _abs2(_trace(entries))
    values /= 6.0
    return values


def omega2_values(dec: SpectralDecomposition, ts: np.ndarray) -> np.ndarray:
    """Vectorized omega2 average over a time grid, 1/2 - ||F||^2/6 + |g|^2/2 + Re(g)/3
    with g = det F."""
    return _phase_products(dec.eigenvalues, _pair_weights(dec), ts, _omega2_average) \
        .ravel()[:len(ts)]


def _omega2_average(entries):
    g = _det(entries)
    return 0.5 - _norm2(entries) / 6.0 + _abs2(g) / 2.0 + g.real / 3.0


@functools.lru_cache(maxsize=1)
def _general_modes(dec: SpectralDecomposition):
    """The pair minor's modes and one more, of frequency 0 and weights I, whose
    phase products are the entries of I + F, once per decomposition."""
    lam = np.append(dec.eigenvalues, 0.0)
    weights = np.vstack([_pair_weights(dec), np.eye(2).ravel()])
    return _read_only(lam), _read_only(weights)


def general_values(dec: SpectralDecomposition, ts: np.ndarray) -> np.ndarray:
    """Exact Haar average over all two-qubit sender states on a time grid,
    1/5 + |det(I + F)|^2/20."""
    return _phase_products(*_general_modes(dec), ts, _general_average).ravel()[:len(ts)]


def _general_average(entries):
    # entries of I + F, so _det is det(I + F) = 1 + tr F + det F
    return 0.2 + _abs2(_det(entries)) / 20.0


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
        raise ValueError(f"avg_fidelity_mc takes the classes {tuple(_SAMPLERS)}, not "
                         f"{state_class!r}; one-qubit transfer is avg_fidelity_1q_mc") from None
    states = draw(sampler, size=samples)
    vals = _sample_fidelities(dec, states, t)
    return AverageFidelity(float(vals.mean()), f"monte-carlo-{state_class}",
                           float(vals.std(ddof=1) / np.sqrt(samples)))
