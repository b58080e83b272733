"""Receiver-pair reduced density matrices."""

import numpy as np
import pytest

from spinbus import (
    RECEIVER_BASIS,
    SeededSampler,
    TwoQubitState,
    amplitude_rp,
    build_chain,
    decompose_chain,
    evolve_receiver_pair,
    fidelity_against,
    general_values,
    omega1_values,
    omega2_values,
    one_qubit_values,
    sample_haar_2q,
    sample_omega1,
    sample_omega2,
)
from spinbus.reduced import _SCORE_BLOCK, _receiver_operators, _sample_fidelities


def _random_states(seed, count):
    sampler = SeededSampler(seed)
    return [sample_haar_2q(sampler) for _ in range(count)]


def test_basis_order():
    assert RECEIVER_BASIS == ("11", "10", "01", "00")


def test_initial_state_is_vacuum():
    """At t=0 all excitation weight sits on the sender side, so rho = |00><00|."""
    dec = decompose_chain(build_chain(7, 2, 5.0))
    st = TwoQubitState(0.3, 0.5, 0.5, np.sqrt(1 - 0.59))
    rho = evolve_receiver_pair(dec, st, 0.0)
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    np.testing.assert_allclose(rho, expected, atol=1e-12)


def test_density_matrix_properties():
    rng = np.random.default_rng(11)
    dec = decompose_chain(build_chain(8, 2, 9.0))
    for st in _random_states(77, 6):
        t = rng.uniform(0.0, 200.0)
        rho = evolve_receiver_pair(dec, st, t)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-11)
        eigs = np.linalg.eigvalsh(rho)
        assert eigs.min() > -1e-12, f"negative eigenvalue {eigs.min()}"


def test_pair_amplitudes_weight_sums_to_one():
    """From |11> every sector weight is a pair weight: they sum to one, and the
    pair weight on the receiver is |g_{(N-1,N),(1,2)}|^2."""
    dec = decompose_chain(build_chain(9, 2, 7.0))
    rho = evolve_receiver_pair(dec, TwoQubitState(0.0, 0.0, 0.0, 1.0), 13.0)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    g_uv = amplitude_rp(dec, (8, 9), (1, 2), 13.0)
    assert rho[0, 0].real == pytest.approx(abs(g_uv) ** 2, abs=1e-12)


def test_grid_matches_pointwise():
    dec = decompose_chain(build_chain(7, 2, 3.0))
    ts = np.array([0.0, 2.2, 47.0])
    for values in (omega1_values, omega2_values, one_qubit_values, general_values):
        grid = values(dec, ts)
        for k, t in enumerate(ts):
            assert abs(grid[k] - values(dec, np.array([t]))[0]) < 1e-13


def test_fidelity_against_perfect_match():
    """A state delivered intact scores fidelity one."""
    dec = decompose_chain(build_chain(7, profile="engineered"))
    st = TwoQubitState(1.0, 0.0, 0.0, 0.0)
    rho = evolve_receiver_pair(dec, st, np.pi / 4)
    assert fidelity_against(rho, st) == pytest.approx(1.0, abs=1e-10)


_CHAINS = {
    "uniform4": (build_chain(4), 3.7),
    "barrier8": (build_chain(8, 2, 12.0), 31.0),
    "engineered6": (build_chain(6, profile="engineered"), np.pi / 4),
}


@pytest.mark.parametrize("chain", sorted(_CHAINS))
@pytest.mark.parametrize("draw", [sample_haar_2q, sample_omega1, sample_omega2],
                         ids=["haar", "omega1", "omega2"])
def test_batch_fidelity_matches_loop(draw, chain):
    """The Monte Carlo scorer agrees with rho assembled state by state.

    The omega samplers leave two amplitudes exactly zero, so between them
    the three classes reach every nonzero entry of the operator table.
    """
    spec, t = _CHAINS[chain]
    dec = decompose_chain(spec)
    mat = draw(SeededSampler(5), size=64)
    batch = _sample_fidelities(dec, mat, t)
    states = [TwoQubitState(*row) for row in mat]
    loop = [fidelity_against(evolve_receiver_pair(dec, st, t), st) for st in states]
    np.testing.assert_allclose(batch, loop, rtol=0, atol=1e-12)


def _unblocked_scores(dec, states, t):
    """The Monte Carlo score of every state at once, sum_k s_k |w^H T_k psi|^2.

    Dense over the whole operator table, with the target w = psi reversed,
    so it shares none of the scorer's gather of the table's nonzero entries.
    """
    ops, signs = _receiver_operators(dec, t)
    overlaps = np.einsum("si,kij,sj->sk", states[:, ::-1].conj(), ops, states)
    return np.abs(overlaps) ** 2 @ signs


@pytest.mark.parametrize("count", [1, *(k * _SCORE_BLOCK + d for k in (1, 2) for d in (-1, 0, 1)),
                                   4 * _SCORE_BLOCK + 37])
@pytest.mark.parametrize("draw", [sample_haar_2q, sample_omega1, sample_omega2],
                         ids=["haar", "omega1", "omega2"])
def test_blocked_scores_across_block_boundaries(draw, count):
    """Every row is scored once, whichever block holds it."""
    dec = decompose_chain(build_chain(8, 2, 12.0))
    t = 31.0
    mat = draw(SeededSampler(5), size=count)
    batch = _sample_fidelities(dec, mat, t)
    assert batch.shape == (count,)
    np.testing.assert_allclose(batch, _unblocked_scores(dec, mat, t), rtol=0, atol=1e-12)
    edges = {0, count - 1} | {r for b in (_SCORE_BLOCK, 2 * _SCORE_BLOCK)
                              for r in (b - 1, b) if r < count}
    for r in sorted(edges):
        st = TwoQubitState(*mat[r])
        loop = fidelity_against(evolve_receiver_pair(dec, st, t), st)
        assert abs(batch[r] - loop) <= 1e-12, f"row {r}"


def _table_chains():
    """Uniform chains with a barrier, at h = 0, and the engineered profile."""
    rng = np.random.default_rng(2014)
    specs = [build_chain(int(n), 2, float(h))
             for n, h in zip(rng.integers(7, 20, 6), rng.uniform(0.0, 40.0, 6))]
    specs += [build_chain(n, 2, 0.0) for n in (7, 8, 12)]
    specs += [build_chain(n, profile="engineered") for n in (7, 10)]
    return specs


@pytest.mark.parametrize("spec", _table_chains(),
                         ids=lambda c: f"{c.profile}{c.n_sites}_h{c.field:.3g}")
def test_operator_table_preserves_trace_and_gives_the_general_average(spec):
    """sum_k s_k T_k^H T_k = I, so tr rho(psi) = |psi|^2, and the Horodecki
    trace form (sum_k s_k |tr(W^H T_k)|^2 + 4)/20, W the map of sender slot
    3 - i onto receiver row i, is the closed-form general average."""
    dec = decompose_chain(spec)
    rows = np.arange(4)
    for t in (0.0, 0.9, 37.5, 611.0, 1.0e4):
        ops, signs = _receiver_operators(dec, t)
        gram = np.einsum("k,kij,kil->jl", signs, ops.conj(), ops)
        np.testing.assert_allclose(gram, np.eye(4), rtol=0, atol=1e-14)
        traces = ops[:, rows, 3 - rows].sum(axis=1)
        horodecki = (signs @ np.abs(traces) ** 2 + 4.0) / 20.0
        assert abs(horodecki - general_values(dec, (t,))[0]) <= 1e-14, f"t = {t}"


def test_minimum_length_enforced():
    dec = decompose_chain(build_chain(3))
    with pytest.raises(ValueError):
        evolve_receiver_pair(dec, TwoQubitState(1.0, 0.0, 0.0, 0.0), 1.0)
