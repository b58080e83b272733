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
whose output holds each entry it emits as a contiguous slab that the
classes read elementwise, and the real _cosine_series.  omega1 is a
Hermitian form in F, the sum of the squared moduli of its four rows, and on
the scan grids of short chains that form's cosine series.  omega2 is
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

Each two-qubit average is also one finite series in the eigenfrequencies,
a0 + sum a_j cos(w_j t) + |sum c_m exp(-i nu_m t)|^2 / s, built once per
decomposition by series() with coinciding frequencies merged, and scans
read two numbers off it: interval_bound's K >= -Fbar'', sum |a| w^2 plus the
squared part's bound, and series_ceiling's bound on the average at every
time, a0 + sum |a| + (sum |c|)^2 / s.  The one-qubit average is not such a
series, and its K and ceiling come from bounds on its one entry.
onset_curvature gives a sharper K over [0, t] near t = 0, from the Dyson
series of the propagator in the hopping, carried through the closed form by
the product rule.  Seeded Monte Carlo stays as the cross-check of the
closed forms: reduced._sample_fidelities scores each drawn state from F at
one time, its bulk term as the rank-2 form |u|^2 - |F u|^2.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .chain import whole_number
from .reduced import _pair_entries, _pair_sites, _pair_weights, _sample_fidelities
from .spectral import SpectralDecomposition, UniformGrid, _cosine_series, _form_series, \
    _minor_weights, _mode_pairs, _phase_products, _read_only, amplitude_1p
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
# takes 0.17-0.35 ms against 0.45-0.55 ms for the phase products at
# N = 10-16 (a scan's first chunk, which also builds the plan, 0.37-0.61
# against 0.59-0.72 ms); the two cost the same near N = 20, and the series
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
        return _cosine_series(dec, weights @ weights.T, ts)
    # the float view of the (A, 4, B) rows is (A, 4, 2B), re and im interleaved
    rows = _phase_products(dec.eigenvalues, weights, ts).view(float)
    squares = np.einsum("acb,acb->ab", rows, rows)
    return (squares[:, 0::2] + squares[:, 1::2]).ravel()[:len(ts)]


def omega2_values(dec: SpectralDecomposition, ts: np.ndarray) -> np.ndarray:
    """Vectorized omega2 average over a time grid.

    The average is 1/2 - ||F||^2/6 + |g|^2/2 + Re(g)/3 with
    g = det F = f_u1 f_v2 - f_u2 f_v1, evaluated on the slabs of F's entries.
    """
    fu1, fu2, fv1, fv2 = entries = _pair_entries(dec, ts)
    g = fu1 * fv2 - fu2 * fv1
    # squared moduli without np.abs, whose hypot is then squared back
    values = 0.5 + (g.real * g.real + g.imag * g.imag) / 2.0 + g.real / 3.0
    for e in entries:
        values -= (e.real * e.real + e.imag * e.imag) / 6.0
    return values.ravel()[:len(ts)]


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
    entries = _phase_products(*_general_modes(dec), ts)
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
    return norm.ravel()[:len(ts)]


@functools.lru_cache(maxsize=1)
def _end_weights(dec: SpectralDecomposition) -> np.ndarray:
    """The weights of the end-to-end amplitude f_{N,1}, (N, 1), once per decomposition."""
    return _read_only(_minor_weights(dec, (dec.n_sites,), (1,)))


def one_qubit_values(dec: SpectralDecomposition, ts: np.ndarray) -> np.ndarray:
    """Vectorized one-qubit average over a time grid."""
    m = np.abs(_phase_products(dec.eigenvalues, _end_weights(dec), ts)[:, 0].ravel()[:len(ts)])
    return _one_qubit_from_modulus(m)


# average fidelity of each class on a time grid, called as values(dec, ts)
GRID_VALUES = {
    "one-qubit": one_qubit_values,
    "general": general_values,
    "omega1": omega1_values,
    "omega2": omega2_values,
}
CLASSES = tuple(GRID_VALUES)


# Fbar(t) = a0 + sum_j a_j cos(w_j t) + |sum_m c_m exp(-i nu_m t)|^2 / scale,
# and the spread of its merged terms (see series)
Series = collections.namedtuple("Series", "a0 a w c nu scale spread")
# frequencies within this times max |lam| are merged, 64 eigenvalue roundings
_MERGE_EPS = 64.0 * np.finfo(float).eps
_NO_TERMS = _read_only(np.empty(0))


def _merged(coef, freq, tol):
    """coef summed over the runs of freq whose neighbours lie within tol, each
    at its first term's place and frequency, and sum |coef_i| |freq_i - its
    run's frequency|; with no run of two, the arrays themselves and 0."""
    if freq.size < 2:
        return coef, freq, 0.0
    ordered = np.sort(freq)
    gaps = ordered[1:] - ordered[:-1]
    if gaps.min() > tol:
        return coef, freq, 0.0
    new = np.concatenate(([True], gaps > tol))
    starts = np.flatnonzero(new)
    order = np.argsort(freq, kind="stable")
    first = np.minimum.reduceat(order, starts)
    coef = coef[order]
    spread = float(np.abs(coef) @ np.abs(ordered - freq[first][new.cumsum() - 1]))
    place = np.argsort(first)
    return np.add.reduceat(coef, starts)[place], freq[first[place]], spread


@functools.lru_cache(maxsize=4)
def series(dec: SpectralDecomposition, fidelity_class: str) -> Series:
    """The two-qubit class's average as a Series, once per decomposition.

    general is 1/5 + |det(I + F)|^2/20, det(I + F) = 1 + (f_u1 + f_v2) + g_uv
    at the frequencies 0, lam_k and lam_k + lam_l; omega1 the form x^H G x,
    G = W W^T (spectral._form_series); omega2 is 1/2 - ||F||^2/6 + |g_uv|^2/2
    + Re(g_uv)/3 with g_uv = det F.  The squared part stays factored: O(N^2)
    terms.  Terms whose frequencies (a cosine's in modulus) agree within
    _MERGE_EPS * max |lam| are summed, so coinciding frequencies cancel, and
    the average evaluated lies within spread * t of the series, spread being
    sum |a_i| |w_i - w|, w the merged term's frequency, plus 2 sum |c| / scale
    times that of the squared part: 0, and the arrays unmerged, if none merge.
    """
    lam = dec.eigenvalues
    a0, a, w, c, nu, scale = 0.0, _NO_TERMS, _NO_TERMS, _NO_TERMS, _NO_TERMS, 1.0
    if fidelity_class == "general":
        weights = _pair_weights(dec)
        d, dnu = _pair_det_series(dec)
        a0, scale = 0.2, 20.0
        c = np.concatenate(([1.0], weights[:, 0] + weights[:, 3], d))
        nu = np.concatenate(([0.0], lam, dnu))
    elif fidelity_class == "omega1":
        weights = _omega1_weights(dec)
        a0, a, w = _form_series(lam, weights @ weights.T)
    elif fidelity_class == "omega2":
        weights = _pair_weights(dec)
        trace, a, w = _form_series(lam, weights @ weights.T)
        c, nu = _pair_det_series(dec)
        a0, scale = 0.5 - trace / 6.0, 2.0
        a, w = np.concatenate((-a / 6.0, c / 3.0)), np.concatenate((w, np.abs(nu)))
    else:
        raise ValueError(f"no trigonometric series for the class {fidelity_class!r}")
    tol = _MERGE_EPS * float(max(-lam[0], lam[-1]))  # the eigenvalues ascend
    a, w, spread = _merged(a, w, tol)
    merged, nu, moved = _merged(c, nu, tol)
    if moved:
        spread += 2.0 * float(np.abs(c).sum()) * moved / scale
    return Series(a0, *map(_read_only, (a, w, merged, nu)), scale, spread)


def _squared_series_bound(c, nu) -> float:
    """A bound on the second derivative of |s|^2, s = sum_m c_m exp(-i nu_m t)
    with real c.  |s|^2 = sum_{m,n} c_m c_n cos((nu_m - nu_n) t), so it is
    sum_{m,n} |c_m c_n| (nu_m - nu_n)^2 = 2 (S0 S2 - S1^2) with
    S_p = sum |c| nu^p, evaluated as 2 S0 sum |c| (nu - S1/S0)^2, which does
    not cancel."""
    a = np.abs(c)
    s0 = a.sum()
    if s0 == 0.0:
        return 0.0
    return 2.0 * float(s0 * (a @ (nu - (a @ nu) / s0) ** 2))


def _pair_det_series(dec: SpectralDecomposition):
    """g_uv = det F as sum_{k<l} D_kl exp(-i (lam_k + lam_l) t): (D, lam_k + lam_l).

    By Cauchy-Binet, D_kl = (U_uk U_vl - U_ul U_vk)(U_1k U_2l - U_1l U_2k),
    each factor the (k, l) entry of P - P^T for P the outer product of two
    rows of U; the terms k = l cancel.
    """
    (u, v), (s1, s2) = _pair_sites(dec)
    vec, lam = dec.eigenvectors, dec.eigenvalues
    k, l = _mode_pairs(lam.size)
    receivers, senders = (np.subtract(p, p.T)[k, l] for p in (
        np.outer(vec[u - 1], vec[v - 1]), np.outer(vec[s1 - 1], vec[s2 - 1])))
    return receivers * senders, lam[k] + lam[l]


def interval_bound(dec: SpectralDecomposition, fidelity_class: str) -> float:
    """The bound K a certified scan of the class works with: -Fbar''(t) <= K
    at every t, so on an interval of width w the average lies below its chord
    plus K w^2/8 (Piyavskii 1972; Shubert 1972).  For a two-qubit class it is
    sum |a_j| w_j^2 plus the squared part's bound, read off its series, and
    bounds |Fbar''| too; for one-qubit, _end_curvature of f_{N,1}'s bounds."""
    if fidelity_class == "one-qubit":
        w = np.abs(_end_weights(dec))
        return float(_end_curvature(w.sum(0), None, ((dec.eigenvalues ** 2)[:, None] * w).sum(0)))
    s = series(dec, fidelity_class)
    return float(np.abs(s.a) @ s.w ** 2) + _squared_series_bound(s.c, s.nu) / s.scale


def series_ceiling(dec: SpectralDecomposition, fidelity_class: str) -> float:
    """A bound on the class's average at every time: a series never exceeds
    a0 + sum |a_j| + (sum |c_m|)^2 / scale, nor an average fidelity 1, and the
    one-qubit average grows with |f_{N,1}| <= sum |W|.  A decision scan whose
    value to reach lies above it is a miss without evaluating the window."""
    if fidelity_class == "one-qubit":
        return _one_qubit_from_modulus(min(1.0, float(np.abs(_end_weights(dec)).sum())))
    s = series(dec, fidelity_class)
    return min(1.0, s.a0 + float(np.abs(s.a).sum()) + float(np.abs(s.c).sum()) ** 2 / s.scale)


# Near t = 0, onset_curvature bounds the entries of F themselves and carries
# those bounds through the closed form by the product rule.  Each
# product-rule bound below takes bounds (A, B1, B2) on |e|, |e'| and |e''| for
# the entries e its class reads, as arrays of one row per entry (and any
# trailing shape).  An entry e(t) = sum_k W[k] exp(-i lam_k t) has
# A = sum |W|, B1 = sum |lam W| and B2 = sum lam^2 |W|.

def _product_bounds(p, q):
    """Bounds on |pq|, |(pq)'| and |(pq)''| from those on p and on q."""
    return p[0] * q[0], p[1] * q[0] + p[0] * q[1], p[2] * q[0] + 2.0 * p[1] * q[1] + p[0] * q[2]


def _square_curvature(a, b1, b2):
    """A bound on (|e|^2)'' = 2 Re(e'' conj(e)) + 2 |e'|^2 from bounds on |e|, |e'|, |e''|."""
    return 2.0 * a * b2 + 2.0 * b1 * b1


def _det_bounds(a, b1, b2):
    """Bounds on the first two derivatives of x y - z w from the entry bounds of (x, z, w, y)."""
    x, z, w, y = ((a[c], b1[c], b2[c]) for c in range(4))
    p, q = _product_bounds(x, y), _product_bounds(z, w)
    return p[1] + q[1], p[2] + q[2]


def _omega2_curvature(a, b1, b2):
    # 1/2 - ||F||^2/6 + |g|^2/2 + Re(g)/3 with g = g_uv = det F, and |g| <= 1
    t1, t2 = _det_bounds(a, b1, b2)
    return _square_curvature(a, b1, b2).sum(0) / 6.0 + _square_curvature(1.0, t1, t2) / 2.0 \
        + t2 / 3.0


def _end_curvature(a, b1, b2):
    # Fbar = 1/2 + m/3 + m^2/6 with m = |f_{N,1}| <= 1, so
    # Fbar'' = (1 + m) m''/3 + m'^2/3.  Where f != 0, m'' >= -|f''|, as
    # |f'| >= |m'|; at a zero of f, m has a convex kink
    return (1.0 + np.minimum(a[0], 1.0)) * b2[0] / 3.0


_ABS_OMEGA1_FORM = np.abs(_OMEGA1_FORM)
_IDENTITY_ENTRIES = np.eye(2).reshape(4, 1)

# onset_curvature's product-rule bound of each class, from the bounds on F's
# entries (f_u1, f_u2, f_v1, f_v2), or on f_{N,1} for one-qubit
_BOUNDS = {
    "one-qubit": _end_curvature,
    # 1/5 + |det(I + F)|^2/20 from the entries of I + F, and |det(I + F)| <= ||I + F||^2 <= 4
    "general": lambda a, b1, b2:
        _square_curvature(4.0, *_det_bounds(a + _IDENTITY_ENTRIES, b1, b2)) / 20.0,
    # the sum of squares of the four rows of the form
    "omega1": lambda a, b1, b2:
        _square_curvature(*(_ABS_OMEGA1_FORM @ x for x in (a, b1, b2))).sum(0),
    "omega2": _omega2_curvature,
}


@functools.lru_cache(maxsize=1)
def _hopping(dec: SpectralDecomposition):
    """|T|'s off-diagonal, the hopping part of the chain's matrix read back from
    the decomposition, and its largest row sum (its norm on nonnegative vectors),
    once per decomposition: a scan reads it for its horizon and its onset table."""
    u, lam = dec.eigenvectors, dec.eigenvalues
    hop = _read_only(np.abs(np.einsum("ik,k,ik->i", u[:-1], lam, u[1:])))
    rows = np.zeros(dec.n_sites)
    rows[:-1] += hop
    rows[1:] += hop
    return hop, rows.max()


def _hopping_series(dec: SpectralDecomposition, sources, t_max):
    """The terms d_m = |T|^m e_s t_max^m / m! of the sources' columns,
    m = 0 .. M, and r with sum_{m > M} d_m x^m <= r x^M for x <= 1.

    sum_m d_m x^m is the Dyson bound P at t = x t_max, so it is evaluated
    with no power of t_max that could overflow.
    """
    hop, tau = _hopping(dec)
    # past M, each term is at most half the one before, so the rest is below
    # d_M; and M >= N puts r x^M past the onset power x^|i-j| of every entry
    order = max(int(math.ceil(2.0 * tau * t_max)) + 1, dec.n_sites)
    terms = np.zeros((order + 1, dec.n_sites, len(sources)))
    terms[0, [s - 1 for s in sources], range(len(sources))] = 1.0
    for m in range(1, order + 1):
        prev = terms[m - 1] * (t_max / m)
        terms[m, 1:] += hop[:, None] * prev[:-1]
        terms[m, :-1] += hop[:, None] * prev[1:]
    return terms, terms[order].max()


def _onset_sites(dec: SpectralDecomposition, fidelity_class: str):
    """The receiver and sender sites of the entries the class reads."""
    n = dec.n_sites
    return ((n,), (1,)) if fidelity_class == "one-qubit" else _pair_sites(dec)


def onset_horizon(dec: SpectralDecomposition, fidelity_class: str) -> float:
    """A time past which onset_curvature is of no use: (d + 1)/tau, with d the
    distance from the nearest sender to the nearest receiver and tau the
    largest row sum of |T|.  There the leading term (tau t)^d/d! of the
    nearest entry's bound is far above 1."""
    targets, sources = _onset_sites(dec, fidelity_class)
    _, tau = _hopping(dec)
    return (min(targets) - max(sources) + 1) / tau


def onset_curvature(dec: SpectralDecomposition, fidelity_class: str, ts) -> np.ndarray:
    """Bounds K(t) >= -Fbar'' on all of [0, t], one per t of ts, at most interval_bound's K.

    Near t = 0 the entries of F are small: with the chain's matrix split as
    D + T into on-site energies and hopping, the Dyson series of exp(-iHt)
    in T gives |exp(-iHt)_ij| <= P_ij(t) = sum_m (|T|^m)_ij t^m/m!, whose
    terms below the distance |i - j| vanish (so P is of order t^|i-j|), and
    exp(-iHt)' = -iH exp(-iHt) gives |d/dt exp(-iHt)| <= |H| P and
    |d^2/dt^2 exp(-iHt)| <= |H|^2 P entrywise.  P grows with t, so these
    bound F's entries on all of [0, t], and the class's product rule turns
    them into K(t), non-decreasing in t.  A window shorter than the arrival
    time, where the average stays within rounding of its t = 0 value, is then
    certified from a few points.
    """
    ts = np.asarray(ts, dtype=float)
    k = interval_bound(dec, fidelity_class)
    if not ts.size:
        return np.empty(0)
    curvature = _BOUNDS[fidelity_class]
    n = dec.n_sites
    targets, sources = _onset_sites(dec, fidelity_class)
    t_max = float(ts.max())
    # far past the horizon the series overflows: an infinite bound is still a
    # bound, and fmin below reads the NaN of 0 * inf as one too
    with np.errstate(over="ignore", invalid="ignore"):
        terms, tail = _hopping_series(dec, sources, t_max)
        x = (ts / t_max)[None, :, None] if t_max > 0 else np.zeros((1, ts.size, 1))
        p = np.zeros((n, ts.size, len(sources)))  # (N, len(ts), S), by Horner's rule in x
        for d in terms[::-1]:
            p *= x
            p += d[:, None, :]
        p += tail * x ** (len(terms) - 1)
        # |H| P and |H|^2 P from the matrix read back from the decomposition
        u, lam = dec.eigenvectors, dec.eigenvalues
        h = np.abs((u * lam) @ u.T)
        h[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 1] = 0.0
        p1 = np.einsum("ij,jts->its", h, p)
        p2 = np.einsum("ij,jts->its", h, p1)
        rows = [r - 1 for r in targets]
        # (entries, len(ts)) in the order (f_u1, f_u2, f_v1, f_v2), or f_{N,1}
        a, b1, b2 = (m[rows].transpose(0, 2, 1).reshape(-1, len(ts)) for m in (p, p1, p2))
        return np.fmin(curvature(a, b1, b2), k)


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
