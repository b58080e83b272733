"""Receiver-pair reduced density matrix from the 2 x 2 sender-to-receiver minor.

The sender pair occupies sites (1, 2) and the receiver pair sites (u, v) =
(N-1, N).  Writing f for single-excitation amplitudes and g for two-excitation
determinants, the evolved state sorts into sectors that share a bulk
configuration (sites 1..N-2):

    bulk empty   : a00, plus arrivals A_u, A_v and the pair term a11*g_uv
    bulk at m    : A_m, plus a11*g_{m,u} and a11*g_{m,v}
    bulk pair    : a11*g_{r,s} with r < s <= N-2

where A_j = a10*f_{j,1} + a01*f_{j,2} and g_{j,k} = f_{j,1} f_{k,2} - f_{j,2} f_{k,1}.
Tracing the bulk gives a 4 x 4 matrix in the receiver basis
(|11>, |10>, |01>, |00>), |10> meaning site N-1 excited.

All of it is a function of the minor F = f_{(u,v),(1,2)}(t) alone.  The bulk
enters only through sums over m of products of
v_m = (g_{m,u}, g_{m,v}, f_{m,1}, f_{m,2}) = C (f_{m,1}, f_{m,2}), where the rows
of C are (f_u2, -f_u1), (f_v2, -f_v1), (1, 0) and (0, 1).  Those sums are
conj(C) S C^T with the bulk Gram S_ab = sum_m conj(f_{m,a}) f_{m,b}.  The
propagator is unitary, so its columns f_{.,1} and f_{.,2} are orthonormal over
all N sites and the bulk holds what the receiver rows leave: S = I - F^H F.
Two-excitation unitarity gives the bulk-pair weight the same way.  No sum over
sites is needed once F is known.

Which receiver row each kernel amplitude lands on, and which sender amplitude
multiplies it, is written down once, in the sector tables _E_* and _D_*.
The rho assembly of evolve_receiver_pair and the Monte Carlo scorer of
fidelity.py both read them; the scorer gathers rows of a block of states
with them, one (6, B) and one (4, B) product per block.
"""

from __future__ import annotations

import numpy as np

from .spectral import SpectralDecomposition, propagator_minor_grid
from .states import TwoQubitState

RECEIVER_BASIS = ("11", "10", "01", "00")


def _pair_minor(dec: SpectralDecomposition, ts) -> np.ndarray:
    """Minors F(t) = f_{(N-1,N),(1,2)}(t) over a time grid, shape (T, 2, 2)."""
    n = dec.n_sites
    if n < 4:
        raise ValueError(f"receiver pair needs at least 4 sites, got {n}")
    return propagator_minor_grid(dec, (n - 1, n), (1, 2), ts)


def _receiver_kernel(f: np.ndarray):
    """Bulk-traced ingredients of the receiver state for a stack of minors F.

    f has shape (T, 2, 2); time is the last axis of every result:
      w      (6, T): bulk-empty amplitudes (1, g_uv, f_u1, f_u2, f_v1, f_v2)
      gram   (4, 4, T): gram[i, j] = sum over bulk m of conj(v_m[i]) v_m[j]
      weight (T,): total weight of pair configurations inside the bulk
    """
    fu1, fu2, fv1, fv2 = f[:, 0, 0], f[:, 0, 1], f[:, 1, 0], f[:, 1, 1]
    g_uv = fu1 * fv2 - fu2 * fv1
    w = np.array([np.ones_like(g_uv), g_uv, fu1, fu2, fv1, fv2])
    # S = I - F^H F, written out: batched 2 x 2 products are slow in numpy
    s00 = 1.0 - np.abs(fu1) ** 2 - np.abs(fv1) ** 2
    s11 = 1.0 - np.abs(fu2) ** 2 - np.abs(fv2) ** 2
    s01 = -(np.conj(fu1) * fu2 + np.conj(fv1) * fv2)
    s10 = np.conj(s01)
    # the two rows of S C^T, then conj(C) (S C^T) row by row
    top = np.array([s00 * fu2 - s01 * fu1, s00 * fv2 - s01 * fv1, s00, s01])
    bottom = np.array([s10 * fu2 - s11 * fu1, s10 * fv2 - s11 * fv1, s10, s11])
    gram = np.array([np.conj(fu2) * top - np.conj(fu1) * bottom,
                     np.conj(fv2) * top - np.conj(fv1) * bottom, top, bottom])
    weight = 1.0 - np.real(gram[0, 0] + gram[1, 1]) - np.abs(g_uv) ** 2
    return w, gram, weight


# The sector tables.  Every kernel amplitude enters exactly one receiver row,
# times exactly one sender amplitude: w[j] lands on row _E_ROWS[j] times
# sender slot _E_SLOTS[j], v_m[j] on row _D_ROWS[j] times slot _D_SLOTS[j]
# (rows in the receiver basis, slots in [a00, a01, a10, a11]).
#   w   = (1,   g_uv, f_u1, f_u2, f_v1, f_v2):  a00|00>, a11|11>, A_u|10>, A_v|01>
#   v_m = (g_mu, g_mv, f_m1, f_m2):              a11|10>, a11|01>, A_m|00>
_E_ROWS, _E_SLOTS = np.array([3, 0, 1, 1, 2, 2]), np.array([0, 3, 2, 1, 2, 1])
_D_ROWS, _D_SLOTS = np.array([1, 2, 3, 3]), np.array([3, 3, 2, 1])


def _sector_maps(state: np.ndarray):
    """Receiver amplitudes of each sector as linear maps of the kernel amplitudes.

    state is [a00, a01, a10, a11].  In the receiver basis the bulk-empty
    sector holds E @ w and the sector with the bulk excitation on site m holds
    D @ v_m; returns E, shape (4, 6), and D, shape (4, 4), filled from the
    sector tables.  The bulk-pair sector is a11 times a bulk pair, on |00>.
    """
    e = np.zeros((4, 6), dtype=complex)
    e[_E_ROWS, np.arange(6)] = state[_E_SLOTS]
    d = np.zeros((4, 4), dtype=complex)
    d[_D_ROWS, np.arange(4)] = state[_D_SLOTS]
    return e, d


def evolve_receiver_pair(dec: SpectralDecomposition, state: TwoQubitState,
                         t: float) -> np.ndarray:
    """Receiver-pair density matrix at time t, basis (|11>, |10>, |01>, |00>)."""
    w, gram, weight = _receiver_kernel(_pair_minor(dec, (t,)))
    e, d = _sector_maps(state.vector())
    vac = e @ w[:, 0]
    rho = np.outer(vac, vac.conj()) + d @ gram[:, :, 0].T @ d.conj().T
    rho[3, 3] += abs(state.a11) ** 2 * weight[0]
    # gram is Hermitian only to rounding; return an exactly Hermitian rho
    return (rho + rho.conj().T) / 2


def _target_vector(state: TwoQubitState) -> np.ndarray:
    # sender slot 1 (site 1) maps onto receiver slot 1 (site N-1)
    return np.array([state.a11, state.a10, state.a01, state.a00])


def fidelity_against(rho: np.ndarray, state: TwoQubitState) -> float:
    """Transfer fidelity <psi|rho|psi> of the received state against psi.

    This is the squared overlap convention: for a pure target it equals 1
    exactly at perfect transfer.
    """
    w = _target_vector(state)
    return float(np.real(w.conj() @ rho @ w))
