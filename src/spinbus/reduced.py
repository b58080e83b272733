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
Two-excitation unitarity gives the bulk-pair weight the same way,
1 - ||F||_F^2 + |g_uv|^2.  No sum over sites is needed once F is known.

Which receiver row each kernel amplitude lands on, and which sender amplitude
multiplies it, is written down once, in the sector tables _E_* and _D_*; they
now serve only the rho assembly of evolve_receiver_pair.  The Monte Carlo
scorer _sample_fidelities needs only <psi|rho|psi>, in which the bulk block is
a rank-2 form: for y the four products of a target and a sender amplitude
that meet the bulk, y^H conj(C) S C^T y = |u|^2 - |F u|^2 with u = C^T y.
"""

from __future__ import annotations

import functools

import numpy as np

from .spectral import SpectralDecomposition, _minor_weights, _phase_products, _read_only
from .states import TwoQubitState

RECEIVER_BASIS = ("11", "10", "01", "00")


def _pair_sites(dec: SpectralDecomposition):
    """Receiver sites (N-1, N) and sender sites (1, 2), the rows and columns of F."""
    n = dec.n_sites
    if n < 4:
        raise ValueError(f"receiver pair needs at least 4 sites, got {n}")
    return (n - 1, n), (1, 2)


@functools.lru_cache(maxsize=1)
def _pair_weights(dec: SpectralDecomposition) -> np.ndarray:
    """The weights of F's entries (f_u1, f_u2, f_v1, f_v2), (N, 4), once per decomposition."""
    return _read_only(_minor_weights(dec, *_pair_sites(dec)))


def _pair_entries(dec: SpectralDecomposition, ts):
    """Entries (f_u1, f_u2, f_v1, f_v2) of F(t) = f_{(N-1,N),(1,2)}(t) over ts.

    Each is a slab of spectral._phase_products, shape (A, B), with point
    a B + j of ts at [a, j] (the last block of a UniformGrid may run past
    its count).
    """
    entries = _phase_products(dec.eigenvalues, _pair_weights(dec), ts)
    return tuple(entries[:, c] for c in range(4))


def _receiver_kernel(dec: SpectralDecomposition, t: float):
    """Bulk-traced ingredients of the receiver state at time t, from the entries of F.

      f      (2, 2): F = [[f_u1, f_u2], [f_v1, f_v2]]
      g_uv   complex: det F, the pair amplitude onto the receiver
      s      (2, 2): the bulk Gram S = I - F^H F
      weight float: total weight of pair configurations inside the bulk
    """
    f = np.reshape(_pair_entries(dec, (t,)), (2, 2))
    g_uv = f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0]
    s = np.eye(2) - f.conj().T @ f
    weight = 1.0 - np.vdot(f, f).real + abs(g_uv) ** 2
    return f, g_uv, s, weight


def _bulk_map(f: np.ndarray) -> np.ndarray:
    """C, (4, 2), with v_m = C (f_m1, f_m2): rows (f_u2, -f_u1), (f_v2, -f_v1), (1, 0), (0, 1)."""
    return np.vstack([f[:, ::-1] * [1, -1], np.eye(2)])


# The sector tables.  Every kernel amplitude enters exactly one receiver row,
# times exactly one sender amplitude: w[j] lands on row _E_ROWS[j] times
# sender slot _E_SLOTS[j], v_m[j] on row _D_ROWS[j] times slot _D_SLOTS[j]
# (rows in the receiver basis, slots in [a00, a01, a10, a11]).
#   w   = (1,   g_uv, f_u1, f_u2, f_v1, f_v2):  a00|00>, a11|11>, A_u|10>, A_v|01>
#   v_m = (g_mu, g_mv, f_m1, f_m2):              a11|10>, a11|01>, A_m|00>
_E_ROWS, _E_SLOTS = np.array([3, 0, 1, 1, 2, 2]), np.array([0, 3, 2, 1, 2, 1])
_D_ROWS, _D_SLOTS = np.array([1, 2, 3, 3]), np.array([3, 3, 2, 1])


# states scored per block, so the block's rows (18 rows of 1024 complex
# values, 295 kB) stay in cache; over the benchmark's point queries, 2048
# scored as fast, but with it the 10 000 states and the rows outgrew what
# glibc's allocator keeps, and every call took about 350 fresh page faults
_SCORE_BLOCK = 1024


def _sample_fidelities(dec, states, t):
    """<psi|rho(t)|psi> for each sender state, from the receiver kernel at t.

    For psi = [a00, a01, a10, a11] and the kernel values (f, g_uv, s, weight),
    <psi|rho|psi> = |vac|^2 + |u|^2 - |F u|^2 + |a00 a11|^2 weight, where
      vac = |a00|^2 + g_uv |a11|^2 + q^H F q with q = (a10, a01) is the
          bulk-empty overlap, psi^H M psi for M = 1 (+) F (+) g_uv on the
          slots (a00, (a10, a01), a11);
      u = C^T y with y = (conj(a10) a11, conj(a01) a11, conj(a00) a10,
          conj(a00) a01), so that |u|^2 - |F u|^2 = u^H S u is the bulk block:
          u0 = f_u2 conj(a10) a11 + f_v2 conj(a01) a11 + conj(a00) a10,
          u1 = conj(a00) a01 - f_u1 conj(a10) a11 - f_v1 conj(a01) a11.
    The states (k, 4) are scored in blocks of _SCORE_BLOCK: each block's
    transposed amplitudes are copied once into contiguous rows, every product
    is a row operation, and only the (k,) scores grow with k.
    """
    f, g_uv, _, weight = _receiver_kernel(dec, t)
    c_t = _bulk_map(f).T
    u_map = np.vstack([c_t, f @ c_t])  # (u, F u) = u_map @ y
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[3, 3] = 1.0, g_uv
    m[2:0:-1, 2:0:-1] = f  # F acts on (a10, a01), slots 2 and 1
    # the squared moduli of the rows w = (vac, a00 a11, u, F u) enter with these signs
    signs = np.array([1.0, weight, 1.0, 1.0, -1.0, -1.0])
    out = np.empty(len(states))
    # a block's 18 rows: the amplitudes p, their conjugates c, the products y and w
    buf = np.empty(18 * min(len(states), _SCORE_BLOCK), dtype=complex)
    for i in range(0, len(states), _SCORE_BLOCK):
        block = states[i:i + _SCORE_BLOCK]
        rows = buf[:18 * len(block)].reshape(18, len(block))
        p, c, y, w = rows[:4], rows[4:8], rows[8:12], rows[12:]
        p[...] = block.T
        np.conj(p, out=c)
        np.multiply(c[2:0:-1], p[3], out=y[:2])
        np.multiply(p[2:0:-1], c[0], out=y[2:])
        np.matmul(u_map, y, out=w[2:])
        np.matmul(m, p, out=y)
        y *= c
        y.sum(axis=0, out=w[0])
        np.multiply(p[0], p[3], out=w[1])
        squares = w.view(float)
        squares *= squares
        pairs = signs @ squares  # (re^2, im^2) of each state, interleaved
        np.add(pairs[0::2], pairs[1::2], out=out[i:i + len(block)])
    return out


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
    f, g_uv, s, weight = _receiver_kernel(dec, t)
    e, d = _sector_maps(state.vector())
    vac = e @ np.concatenate(([1.0, g_uv], f.ravel()))
    dc = d @ _bulk_map(f)
    rho = np.outer(vac, vac.conj()) + dc @ s.T @ dc.conj().T
    rho[3, 3] += abs(state.a11) ** 2 * weight
    # the products are Hermitian only to rounding; return an exactly Hermitian rho
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
