"""Brute-force sector evolution as an independent reference implementation."""

import warnings

import numpy as np
import pytest

from spinbus import (
    SectorBasis,
    SectorEvolver,
    TwoQubitState,
    amplitude_rp,
    build_chain,
    decompose_chain,
    field_constant,
    general_values,
    omega1_values,
    omega2_values,
    oracle_rdm,
    sample_haar_2q,
    verification_battery,
    SeededSampler,
)
from spinbus.oracle import _DESIGNS, haar_average, sector_hamiltonian
from spinbus.reduced import evolve_receiver_pair
from spinbus.spectral import amplitude_row


def test_sector_basis_indexing():
    basis = SectorBasis(5, 2)
    assert len(basis) == 10
    for k, subset in enumerate(basis.subsets):
        assert basis.index_of(subset) == k
    with pytest.raises(ValueError):
        basis.index_of((1, 6))


def test_sector_hamiltonian_is_symmetric():
    spec = build_chain(7, 2, 9.0)
    for r in (1, 2, 3):
        h = sector_hamiltonian(spec, r)
        np.testing.assert_array_equal(h, h.T)


def test_field_constant_uniform_across_sectors():
    """Every sector shares the same field offset, so only a global phase differs."""
    spec = build_chain(8, 2, 6.0)
    assert field_constant(spec) == pytest.approx(2 * 6.0)
    # diagonal of the empty-ish sector: one excitation far from barriers
    h1 = sector_hamiltonian(spec, 1)
    basis = SectorBasis(8, 1)
    k = basis.index_of((1,))
    assert h1[k, k] == pytest.approx(field_constant(spec))


def test_single_excitation_agreement():
    spec = build_chain(9, 2, 21.0)
    dec = decompose_chain(spec)
    ev = SectorEvolver(spec, 1)
    const = field_constant(spec)
    rng = np.random.default_rng(1)
    for _ in range(5):
        t = rng.uniform(0.0, 60.0)
        vec = np.zeros(9, dtype=complex)
        vec[ev.basis.index_of((3,))] = 1.0
        sector = ev.evolve(vec, t) * np.exp(1j * const * t)
        np.testing.assert_allclose(sector, amplitude_row(dec, 3, t), atol=1e-10)


def test_two_excitation_agreement():
    spec = build_chain(7, 2, 13.0)
    dec = decompose_chain(spec)
    ev = SectorEvolver(spec, 2)
    const = field_constant(spec)
    t = 17.3
    for pair in ((1, 2), (3, 5), (6, 7)):
        got = ev.amplitude(pair, (1, 2), t) * np.exp(1j * const * t)
        want = amplitude_rp(dec, pair, (1, 2), t)
        assert abs(got - want) < 1e-10, f"pair={pair}"


def test_end_pair_agreement_random_settings():
    """Block-to-block amplitude {1,2} -> {7,8} on the 8-site chain."""
    rng = np.random.default_rng(28)
    for _ in range(5):
        h = rng.uniform(0.0, 40.0)
        t = rng.uniform(0.0, 70.0)
        spec = build_chain(8, 2, h)
        dec = decompose_chain(spec)
        got = SectorEvolver(spec, 2).amplitude((7, 8), (1, 2), t) \
            * np.exp(1j * field_constant(spec) * t)
        assert abs(got - amplitude_rp(dec, (7, 8), (1, 2), t)) < 1e-10


def test_norm_conserved():
    spec = build_chain(8, 2, 4.0)
    ev = SectorEvolver(spec, 2)
    rng = np.random.default_rng(2)
    vec = rng.normal(size=28) + 1j * rng.normal(size=28)
    vec /= np.linalg.norm(vec)
    out = ev.evolve(vec, 33.3)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_oracle_rdm_matches_fermionic_path():
    # beyond two generic chains: a two-site bulk (N = 4), the mirror time of
    # an engineered chain, where the bulk-pair weight vanishes, and a wider
    # barrier block
    rng = np.random.default_rng(4)
    cases = ((build_chain(7, 2, 11.0), None), (build_chain(8, 2, 3.0), None),
             (build_chain(4), None), (build_chain(5), None),
             (build_chain(6, profile="engineered"), np.pi / 4),
             (build_chain(9, 3, 15.0), None))
    for spec, t_fixed in cases:
        dec = decompose_chain(spec)
        for k in range(3):
            st = sample_haar_2q(SeededSampler(int(rng.integers(1 << 30))))
            t = rng.uniform(0.0, 90.0) if t_fixed is None else t_fixed
            rho_oracle = oracle_rdm(spec, st, t)
            rho_fast = evolve_receiver_pair(dec, st, t)
            np.testing.assert_allclose(rho_fast, rho_oracle, atol=1e-10)


def test_bare_n8_exact_haar_average_exceeds_0_8_at_scan_maximum():
    """Exact general-class average of the bare N = 8 chain, oracle only.

    t = 5287.291 is one of the bare N = 8 chain's near-maximal peaks.  The
    Haar average there is above 0.8, so the chain's window maximum is too and
    no barrier can lift that chain by 0.2.  haar_average builds it from oracle_rdm alone as
    the Haar average, exact on a 2-design, in dimension 4; the closed form
    general_values must agree with it.
    """
    spec = build_chain(8, 2, 0.0)
    t = 5287.291
    fbar = haar_average(lambda state: oracle_rdm(spec, state, t))
    assert abs(fbar.imag) < 1e-12
    assert fbar.real == pytest.approx(0.80105, abs=1e-5)
    assert abs(general_values(decompose_chain(spec), [t])[0] - fbar) < 1e-12


def _frame_potential(vecs):
    return float(np.mean(np.abs(vecs.conj() @ vecs.T) ** 4))


def test_design_tables_are_2_designs():
    """Each class's table is a 2-design of its slots, and no smaller set is.

    A set of unit vectors in dimension d has mean |<a|b>|^4 >= 2/(d(d+1)) over
    all pairs, with equality exactly for a 2-design.
    """
    for cls, slots, count in (("general", [0, 1, 2, 3], 60), ("omega1", [1, 2], 6),
                              ("omega2", [0, 3], 6)):
        design = _DESIGNS[cls]
        assert design.shape == (count, 4)
        assert np.all(np.delete(design, slots, axis=1) == 0), cls
        np.testing.assert_allclose(np.linalg.norm(design, axis=1), 1.0, atol=1e-15)
        overlaps = np.abs(design.conj() @ design.T)
        assert np.all(overlaps[~np.eye(count, dtype=bool)] < 1.0 - 1e-9), f"{cls} repeats a state"
        d = len(slots)
        bound = 2.0 / (d * (d + 1))
        assert abs(_frame_potential(design[:, slots]) - bound) < 1e-15, cls
        for k in range(count):
            assert _frame_potential(np.delete(design, k, axis=0)[:, slots]) > bound + 1e-6
    with pytest.raises(ValueError, match="fidelity_class"):
        haar_average(lambda state: np.eye(4), "one-qubit")


def test_omega_closed_forms_equal_the_oracle_design_average():
    for n_sites in (7, 8):
        for field in (0.0, 4.0, 18.0):
            spec = build_chain(n_sites, 2, field)
            dec = decompose_chain(spec)
            ts = np.array([0.7, 23.0, 310.0, 2900.0])
            for cls, values in (("omega1", omega1_values), ("omega2", omega2_values)):
                grid = values(dec, ts)
                for k, t in enumerate(ts):
                    exact = haar_average(lambda state: oracle_rdm(spec, state, t), cls)
                    assert abs(grid[k] - exact) <= 1e-10, f"{cls} N={n_sites} h={field} t={t}"


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_oracle_rejects_a_non_finite_time(t):
    spec = build_chain(7, 2, 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"t = {t}"):
            oracle_rdm(spec, TwoQubitState(0, 0, 1, 0), t)
        with pytest.raises(ValueError, match=f"t = {t}"):
            SectorEvolver(spec, 2).amplitude((6, 7), (1, 2), t)


def test_verification_battery_green():
    checks = verification_battery(seed=0)
    assert [check.name for check in checks] == [
        "single-excitation amplitudes", "two-excitation determinants",
        "three-excitation determinants", "receiver-pair reduced state", "Monte Carlo scorer",
        "general Haar average", "omega1 Haar average", "omega2 Haar average",
        "sector norm conservation"]
    for check in checks:
        assert check.ok, f"{check.name}: {check.max_deviation} > {check.tolerance}"


def test_sector_size_guard():
    with pytest.raises(ValueError):
        SectorEvolver(build_chain(8), 4)
