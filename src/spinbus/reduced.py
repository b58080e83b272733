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

All of it is a function of the minor F = f_{(u,v),(1,2)}(t) alone, and
_receiver_operators writes it down once, as six signed terms: for
psi = [a00, a01, a10, a11],

    rho(psi) = sum_k s_k (T_k psi)(T_k psi)^H,   s = (1, w_pair, 1, 1, -1, -1).

T_0 maps psi to the bulk-empty sector and T_1 puts a11 on |00>, weighted by
the bulk-pair weight w_pair = 1 - ||F||_F^2 + |g_uv|^2 (two-excitation
unitarity).  The sector with the bulk excitation on site m holds
B (f_m1, f_m2), B's columns being T_2 psi and T_3 psi, so the bulk trace is
B S^T B^H with the bulk Gram S_ab = sum_m conj(f_{m,a}) f_{m,b}.  The
propagator is unitary, so its columns f_{.,1} and f_{.,2} are orthonormal
over all N sites, S = I - F^H F and B S^T B^H = B B^H - (B F^T)(B F^T)^H:
T_4 and T_5 are the columns of B F^T, with sign -1.  Neither a sum over
sites nor S is formed.

evolve_receiver_pair sums the six outer products.  The Monte Carlo scorer
_sample_fidelities needs only <psi|rho|psi> = sum_k s_k |w^H T_k psi|^2, with
w the target psi reversed, and reads the few nonzero entries of the same
table.
"""

from __future__ import annotations

import functools

import numpy as np

from .spectral import SpectralDecomposition, _minor_weights, _phase_products, _read_only, \
    _table
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


# the entries of the operator table that do not depend on F: a00 on |00> in
# T_0, a bulk pair's a11 on |00> in T_1, and A_m's a10 and a01 on |00> in B's
# columns T_2 and T_3
_CONSTANT_OPERATORS = np.zeros((6, 4, 4), dtype=complex)
_CONSTANT_OPERATORS[0, 3, 0] = _CONSTANT_OPERATORS[1, 3, 3] = 1.0
_CONSTANT_OPERATORS[2, 3, 2] = _CONSTANT_OPERATORS[3, 3, 1] = 1.0
_read_only(_CONSTANT_OPERATORS)
# the signs of g_mu and g_mv in T_2 and T_3
_G_SIGNS = _read_only(np.array([[1], [-1]]))


def _receiver_operators(dec: SpectralDecomposition, t: float):
    """The operator table of the receiver state at time t: T, (6, 4, 4), and s, (6,).

    rho(psi) = sum_k s[k] (T[k] psi)(T[k] psi)^H in the receiver basis, for
    psi in the sender slots [a00, a01, a10, a11].
    """
    f = _phase_products(dec.eigenvalues, _pair_weights(dec), (t,), _table).reshape(2, 2)
    u1, u2, v1, v2 = f.ravel()
    g_uv = u1 * v2 - u2 * v1
    ops = _CONSTANT_OPERATORS.copy()
    # bulk empty: a11 g_uv on |11>, A_u on |10> and A_v on |01> from (a10, a01)
    ops[0, 0, 3] = g_uv
    ops[0, 1:3, 2:0:-1] = f
    # B's columns, the coefficients of f_m1 and f_m2: a11 g_mu on |10>, a11 g_mv on |01>
    ops[2:4, 1:3, 3] = f[:, ::-1].T * _G_SIGNS
    # B F^T's columns
    np.matmul(f, ops[2:4].reshape(2, 16), out=ops[4:].reshape(2, 16))
    weight = 1.0 - np.vdot(f, f).real + abs(g_uv) ** 2
    return ops, np.array([1.0, weight, 1.0, 1.0, -1.0, -1.0])


# states scored per block, so the block's rows (18 rows of 1024 complex
# values, 295 kB) stay in cache; over the benchmark's point queries, 2048
# scored as fast, but with it the 10 000 states and the rows outgrew what
# glibc's allocator keeps, and every call took about 350 fresh page faults
_SCORE_BLOCK = 1024


def _sample_fidelities(dec, states, t):
    """<psi|rho(t)|psi> for each sender state, from the operator table at t.

    With w = psi reversed, the target, the score is sum_k s_k |w^H T_k psi|^2
    over the six rows
      vac   = psi^H m psi, m = T_0 with its rows reversed (the bulk-empty overlap);
      a00 a11, whose modulus is that of w^H T_1 psi;
      u and F u, w^H T_k psi for k = 2..5: these operators are nonzero
          only at the receiver rows (1, 2, 3, 3) and sender slots
          (3, 3, 2, 1), so the four rows are u_map y, with u_map holding those
          entries and y = (conj(a10) a11, conj(a01) a11, conj(a00) a10,
          conj(a00) a01).
    The states (k, 4) are scored in blocks of _SCORE_BLOCK: each block's
    transposed amplitudes are copied once into contiguous rows, every product
    is a row operation, and only the (k,) scores grow with k.
    """
    ops, signs = _receiver_operators(dec, t)
    m = ops[0, ::-1]
    u_map = ops[2:, [1, 2, 3, 3], [3, 3, 2, 1]]
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


def evolve_receiver_pair(dec: SpectralDecomposition, state: TwoQubitState,
                         t: float) -> np.ndarray:
    """Receiver-pair density matrix at time t, basis (|11>, |10>, |01>, |00>)."""
    ops, signs = _receiver_operators(dec, t)
    amps = ops @ state.vector()
    rho = (amps.T * signs) @ amps.conj()
    # the products are Hermitian only to rounding; return an exactly Hermitian rho
    return (rho + rho.conj().T) / 2


def fidelity_against(rho: np.ndarray, state: TwoQubitState) -> float:
    """Transfer fidelity <psi|rho|psi> of the received state against psi.

    This is the squared overlap convention: for a pure target it equals 1
    exactly at perfect transfer.
    """
    # receiver row i holds the target amplitude of sender slot 3 - i
    w = state.vector()[::-1]
    return float(np.real(w.conj() @ rho @ w))
