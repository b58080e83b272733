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
scans and single-time queries both go through it.  The omega1 and omega2
averages are exact slice-Haar integrals of <psi|rho(t)|psi> and hit 1 at
perfect transfer; both are invariant under a global phase of the
odd-excitation sector.  The omega1 average is a Hermitian form in F, so it
is computed as a sum of squares: the form's four rows are folded into the
weights of the phase GEMM (spectral._phase_products), and the values are
the squared norms of its output rows.  It is also a Hermitian form
x^H G x in the mode phases x_k = exp(-i lam_k t) with a real G, and on the
scan grids of chains up to _SERIES_MAX_SITES sites it is evaluated as that
form's real cosine series (spectral._cosine_series), one real GEMM with no
complex output.
The general average is exact too: of the Kraus
operators, one per bulk configuration, only the bulk-empty one has a nonzero
diagonal, (1, f_v2, f_u1, g_uv), so Fbar = (4 F_e + 1)/5 with
F_e = |1 + f_u1 + f_v2 + g_uv|^2/16 (Horodecki^3, PRA 60, 1888, 1999).  A
phase p on the odd-excitation sector (a receiver-side correction knob) turns
the trace into 1 + g_uv + p (f_u1 + f_v2), whose largest modulus over |p| = 1
is |1 + g_uv| + |f_u1 + f_v2|.  Seeded Monte Carlo stays as the cross-check
of the closed forms: it scores each drawn state through the receiver kernel
and the sector tables of reduced.py, in fixed blocks of states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import whole_number
from .reduced import _D_ROWS, _D_SLOTS, _E_ROWS, _E_SLOTS, _pair_minor, _pair_sites, \
    _receiver_kernel
from .spectral import SpectralDecomposition, UniformGrid, _cosine_series, _minor_weights, \
    _phase_products, amplitude_1p, propagator_minor_grid
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
    if m > 1.0 + _AMP_TOL:
        raise ValueError(f"|f| = {m} exceeds 1")
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
# four complex columns per mode.  The cutoff rests on one microbenchmark of a
# 32768-point chunk (one BLAS thread, 2-vCPU VM): both ways cost the same at
# N = 12 to 13, and the series took 5 times as long at N = 40.  The benchmark
# scans no omega1 chain longer than 11 sites, so it checks neither.
_SERIES_MAX_SITES = 12


def _omega2_from_amplitudes(g_uv, traced_weight):
    # exact Haar average over a|00> + d|11>; traced_weight is
    # sum_m (|g_{m,N-1}|^2 + |g_{m,N}|^2) over bulk sites m
    return 0.5 - traced_weight / 6.0 + np.abs(g_uv) ** 2 / 6.0 + np.real(g_uv) / 3.0


def avg_fidelity_omega1(dec: SpectralDecomposition, t: float) -> AverageFidelity:
    """Exact average fidelity over the one-excitation sender slice."""
    return AverageFidelity(float(omega1_values(dec, (t,))[0]), METHODS["omega1"])


def avg_fidelity_omega2(dec: SpectralDecomposition, t: float) -> AverageFidelity:
    """Exact average fidelity over the even sender slice."""
    return AverageFidelity(float(omega2_values(dec, (t,))[0]), METHODS["omega2"])


def omega1_values(dec: SpectralDecomposition, ts: np.ndarray) -> np.ndarray:
    """Vectorized omega1 average over a time grid.

    With W the pair minor's weights with _OMEGA1_FORM folded in, the phase
    products yield the four rows of the form and the average is their sum of
    squares.  It is also the Hermitian form x^H G x in the mode phases
    x_k = exp(-i lam_k t) with the real G = W W^T, and on the uniform grid of
    a scan of a short chain it is evaluated as that form's cosine series.
    """
    weights = _minor_weights(dec, *_pair_sites(dec)) @ _OMEGA1_FORM.T
    if isinstance(ts, UniformGrid) and dec.n_sites <= _SERIES_MAX_SITES:
        return _cosine_series(dec, weights @ weights.T, ts)
    rows = _phase_products(dec, weights, ts).view(float)
    return np.einsum("ij,ij->i", rows, rows)


def omega2_values(dec: SpectralDecomposition, ts: np.ndarray) -> np.ndarray:
    """Vectorized omega2 average over a time grid."""
    w, gram, _ = _receiver_kernel(_pair_minor(dec, ts))
    return _omega2_from_amplitudes(w[1], np.real(gram[0, 0] + gram[1, 1]))


def general_values(dec: SpectralDecomposition, ts: np.ndarray,
                   phase_opt: bool = False) -> np.ndarray:
    """Exact Haar average over all two-qubit sender states on a time grid.

    With phase_opt, the average after the odd-excitation sector phase that
    maximizes it at each time.
    """
    m = _pair_minor(dec, ts)
    fu1, fu2, fv1, fv2 = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    g_uv = fu1 * fv2 - fu2 * fv1
    if phase_opt:
        return 0.2 + (np.abs(1.0 + g_uv) + np.abs(fu1 + fv2)) ** 2 / 20.0
    kraus_trace = 1.0 + fu1 + fv2 + g_uv
    return 0.2 + np.abs(kraus_trace) ** 2 / 20.0


def one_qubit_values(dec: SpectralDecomposition, ts: np.ndarray) -> np.ndarray:
    """Vectorized one-qubit average over a time grid."""
    m = np.abs(propagator_minor_grid(dec, (dec.n_sites,), (1,), ts)[:, 0, 0])
    return _one_qubit_from_modulus(m)


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


# <psi| in the receiver basis is conj(states[:, ::-1]), so the receiver row r
# of a sector-table entry pairs with the sender slot 3 - r of the target
_E_TARGET, _D_TARGET = 3 - _E_ROWS, 3 - _D_ROWS

# states scored per block, so the block's temporaries (at most 6 x 2048
# complex values, 196 kB, each) stay in cache; timed over the benchmark's
# point queries, 4096 gave back most of the gain over unblocked scoring and
# 512 or 1024 were no faster
_SCORE_BLOCK = 2048


def _sample_fidelities(dec, states, t):
    """<psi|rho(t)|psi> for each sender state, from the receiver kernel at t.

    With kernel values (w, gram, weight) at t,
    <psi|rho|psi> = |w . x|^2 + sum_ij conj(y_i) gram_ij y_j + |a00 a11|^2 weight,
    where each entry of the sector tables of reduced.py contributes one
    product of a target and a sender amplitude: 6 of them make x, 4 make y.
    The states (k, 4) are scored in blocks of _SCORE_BLOCK columns of the
    transposed amplitudes, so every product is a row operation on a (6, B)
    or (4, B) block and only the (k,) scores grow with k.
    """
    w, gram, weight = (a[..., 0] for a in _receiver_kernel(_pair_minor(dec, (t,))))
    out = np.empty(len(states))
    for i in range(0, len(states), _SCORE_BLOCK):
        p = states[i:i + _SCORE_BLOCK].T
        c = p.conj()
        x = c[_E_TARGET] * p[_E_SLOTS]
        y = c[_D_TARGET] * p[_D_SLOTS]
        bulk = (y.conj() * (gram @ y)).sum(0)
        out[i:i + p.shape[1]] = (np.abs(w @ x) ** 2 + bulk.real
                                 + np.abs(p[0] * p[3]) ** 2 * weight)
    return out
