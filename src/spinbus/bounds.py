"""How far a scan may trust an average-fidelity curve between its points.

Each two-qubit average of fidelity.py is a formula in three invariants of
F, tau = tr F, g = det F and s = ||F||^2, and so also one finite series in
the eigenfrequencies, a0 + sum a_j cos(w_j t) + |sum c_m exp(-i nu_m t)|^2 / s,
built once per decomposition by series() with coinciding frequencies
merged, and scans read two numbers off it: interval_bound's K >= -Fbar'',
sum |a| w^2 plus the squared part's bound, and series_ceiling's bound on the
average at every time, a0 + sum |a| + (sum |c|)^2 / s.  The one-qubit
average is not such a series, and its K and ceiling come from bounds on its
one entry.  onset_curvature gives a sharper K over [0, t] near t = 0, from
the Dyson series of the propagator in the hopping, carried through the same
formula in the invariants by the product rule.

The series and the closed forms must stay one function of F.  So a
correction to F (a parity sign, local phases on the receiver, a change of
the receiver's frame) enters once, as a transform of F that both the closed
form and the series read, never as a second formula here: K and the ceiling
then cannot drift from the value a scan evaluates.

Only scans.py imports this module, so a point query never loads it.
"""

from __future__ import annotations

import collections
import functools
import math

import numpy as np

from .fidelity import _end_weights, _omega1_gram, _one_qubit_from_modulus
from .reduced import _pair_sites, _pair_weights
from .spectral import SpectralDecomposition, _form_series, _mode_pairs, _read_only


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

    With tau = tr F = f_u1 + f_v2, g = det F and s = ||F||^2: general is
    1/5 + |1 + tau + g|^2/20, 1 + tau + g = det(I + F) at the frequencies 0,
    lam_k and lam_k + lam_l; omega1, (|tau|^2 + s)/6, the form x^H G x with
    G = fidelity._omega1_gram (spectral._form_series); omega2 is
    1/2 - s/6 + |g|^2/2 + Re(g)/3.  The squared part stays factored: O(N^2)
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
        a0, a, w = _form_series(lam, _omega1_gram(dec))
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
    at every t, so on an interval [a, b] the average lies below its chord
    plus K (t - a)(b - t)/2 (Piyavskii 1972; Shubert 1972).  For a two-qubit
    class it is sum |a_j| w_j^2 plus the squared part's bound, read off its
    series, and bounds |Fbar''| too; for one-qubit, _end_curvature of
    f_{N,1}'s bounds."""
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
    # 1/2 - ||F||^2/6 + |g|^2/2 + Re(g)/3 with g = det F, and |g| <= 1
    t1, t2 = _det_bounds(a, b1, b2)
    return _square_curvature(a, b1, b2).sum(0) / 6.0 + _square_curvature(1.0, t1, t2) / 2.0 \
        + t2 / 3.0


def _end_curvature(a, b1, b2):
    # Fbar = 1/2 + m/3 + m^2/6 with m = |f_{N,1}| <= 1, so
    # Fbar'' = (1 + m) m''/3 + m'^2/3.  Where f != 0, m'' >= -|f''|, as
    # |f'| >= |m'|; at a zero of f, m has a convex kink
    return (1.0 + np.minimum(a[0], 1.0)) * b2[0] / 3.0


_IDENTITY_ENTRIES = np.eye(2).reshape(4, 1)

# onset_curvature's product-rule bound of each class, from the bounds on F's
# entries (f_u1, f_u2, f_v1, f_v2), or on f_{N,1} for one-qubit
_BOUNDS = {
    "one-qubit": _end_curvature,
    # 1/5 + |det(I + F)|^2/20 from the entries of I + F, and |det(I + F)| <= ||I + F||^2 <= 4
    "general": lambda a, b1, b2:
        _square_curvature(4.0, *_det_bounds(a + _IDENTITY_ENTRIES, b1, b2)) / 20.0,
    # (|tr F|^2 + ||F||^2)/6 with tr F = f_u1 + f_v2
    "omega1": lambda a, b1, b2: (_square_curvature(*(x[0] + x[3] for x in (a, b1, b2)))
                                 + _square_curvature(a, b1, b2).sum(0)) / 6.0,
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
