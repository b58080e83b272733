"""Average transfer fidelities: closed forms and Monte Carlo."""

import numpy as np
import pytest

from spinbus import (
    SeededSampler,
    SingleParticleHamiltonian,
    avg_fidelity_1q,
    avg_fidelity_1q_mc,
    avg_fidelity_mc,
    avg_fidelity_omega1,
    avg_fidelity_omega2,
    build_chain,
    decompose,
    decompose_chain,
    evolve_receiver_pair,
    general_values,
    omega1_values,
    omega2_values,
    one_qubit_amplitude,
    one_qubit_values,
)
from spinbus.fidelity import _OMEGA1_FORM, _omega2_from_amplitudes
from spinbus.oracle import haar_average
from spinbus.scans import _CHUNK
from spinbus.spectral import UniformGrid, propagator_minor, propagator_minor_grid


def test_one_qubit_closed_form_limits():
    assert avg_fidelity_1q(1.0).value == pytest.approx(1.0)
    assert avg_fidelity_1q(0.0).value == pytest.approx(0.5)
    # |f| enters through |f|/3 + |f|^2/6
    assert avg_fidelity_1q(0.5j).value == pytest.approx(0.5 + 0.5 / 3 + 0.25 / 6)
    with pytest.raises(ValueError):
        avg_fidelity_1q(1.0 + 1e-6)


def test_one_qubit_average_strictly_increasing():
    grid = np.linspace(0.0, 1.0, 201)
    vals = np.array([avg_fidelity_1q(m).value for m in grid])
    assert np.all(np.diff(vals) > 0)


def test_one_qubit_mc_agrees():
    dec = decompose_chain(build_chain(6, 1, 4.0))
    rng = np.random.default_rng(21)
    for k in range(4):
        t = rng.uniform(0.0, 300.0)
        closed = avg_fidelity_1q(one_qubit_amplitude(dec, t))
        mc = avg_fidelity_1q_mc(dec, t, 40000, SeededSampler(k))
        assert mc.method == "monte-carlo-1q"
        assert abs(closed.value - mc.value) < 4 * mc.stderr, f"t={t}"


def _omega1_entrywise(f_u1, f_v2, f_u2, f_v1):
    # exact Haar average over b|01> + c|10> of <psi|rho|psi>, entry by entry
    return ((np.abs(f_u1) ** 2 + np.abs(f_v2) ** 2
             + 0.5 * np.abs(f_u2) ** 2 + 0.5 * np.abs(f_v1) ** 2) / 3.0
            + np.real(f_v2 * np.conj(f_u1)) / 3.0)


def _omega1_from_form(f_u1, f_v2, f_u2, f_v1):
    # the sum of squares omega1_values evaluates, on one minor
    rows = _OMEGA1_FORM @ np.array([f_u1, f_u2, f_v1, f_v2], dtype=complex)
    return float(np.sum(np.abs(rows) ** 2))


def test_omega_slice_formulas():
    # worked examples evaluated by hand from the sector averages
    for omega1 in (_omega1_entrywise, _omega1_from_form):
        assert omega1(1.0, 1.0, 0.0, 0.0) == pytest.approx(1.0)
        assert omega1(0.0, 0.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0)
        assert omega1(0.0, 0.0, 0.0, 0.0) == pytest.approx(0.0)
    assert _omega2_from_amplitudes(1.0, 0.0) == pytest.approx(1.0)
    assert _omega2_from_amplitudes(-1.0, 0.0) == pytest.approx(1.0 / 3.0)
    assert _omega2_from_amplitudes(0.0, 0.0) == pytest.approx(0.5)
    assert _omega2_from_amplitudes(0.0, 1.0) == pytest.approx(1.0 / 3.0)


def _pair_chain(n_sites, field):
    # block-2 barrier chains from N = 7; shorter chains carry the field on
    # sites 2 and N-1, built directly, so that N = 4 can have one too
    if n_sites >= 7:
        return decompose_chain(build_chain(n_sites, 2, field))
    diag = np.zeros(n_sites)
    diag[[1, n_sites - 2]] = -2.0 * field
    return decompose(SingleParticleHamiltonian(diag, np.full(n_sites - 1, -2.0)))


@pytest.mark.parametrize("field", [0.0, 5.0, 20.0, 200.0])
@pytest.mark.parametrize("n_sites", [4, 7, 8, 11, 40])
def test_folded_omega1_matches_entrywise_formula(n_sites, field):
    """omega1_values equals the entrywise formula on F.

    Grids: a whole scan chunk, one mid-window chunk shorter than a phase
    block, and a time array out to the longest scan window.  On the scan
    grids of chains up to 12 sites omega1 is a cosine series, which rounds
    its phases differently from the minor's phase table, so the two sides
    agree to the phase rounding, eps * |lam| * t, at the grid's last time.
    """
    dec = _pair_chain(n_sites, field)
    step = np.pi / (4.0 * dec.spectral_range)
    pair = ((n_sites - 1, n_sites), (1, 2))
    lam_max = np.abs(dec.eigenvalues).max()
    for ts, t_max in ((UniformGrid(step, 0, _CHUNK), step * (_CHUNK - 1)),
                      (UniformGrid(step, 123457, 100), step * (123457 + 99)),
                      (np.array([0.0, 0.7, 13.0, 1234.5, 2.0e4, 6.0e4]), 6.0e4)):
        m = propagator_minor_grid(dec, *pair, ts)
        want = _omega1_entrywise(m[:, 0, 0], m[:, 1, 1], m[:, 0, 1], m[:, 1, 0])
        tol = 1e-14 + 2 * np.finfo(float).eps * lam_max * t_max
        assert np.abs(omega1_values(dec, ts) - want).max() <= tol, ts


def test_omega_closed_forms_match_monte_carlo():
    dec = decompose_chain(build_chain(7, 2, 5.0))
    rng = np.random.default_rng(31)
    for cls, closed in (("omega1", avg_fidelity_omega1), ("omega2", avg_fidelity_omega2)):
        for k in range(3):
            t = rng.uniform(0.0, 500.0)
            cf = closed(dec, t)
            mc = avg_fidelity_mc(dec, t, 60000, SeededSampler(100 + k), state_class=cls)
            assert mc.method == f"monte-carlo-{cls}"
            assert abs(cf.value - mc.value) < 4 * mc.stderr, f"{cls} t={t}"


def test_value_grids_match_scalars():
    dec = decompose_chain(build_chain(8, 2, 11.0))
    ts = np.array([0.5, 7.0, 90.0])
    o1 = omega1_values(dec, ts)
    o2 = omega2_values(dec, ts)
    q1 = one_qubit_values(dec, ts)
    for k, t in enumerate(ts):
        assert abs(o1[k] - avg_fidelity_omega1(dec, float(t)).value) < 1e-13
        assert abs(o2[k] - avg_fidelity_omega2(dec, float(t)).value) < 1e-13
        assert abs(q1[k] - avg_fidelity_1q(one_qubit_amplitude(dec, float(t))).value) < 1e-13


def test_general_values_are_exact():
    """The closed form equals the 4-design average of the receiver state and
    agrees with large-sample Monte Carlo."""
    cases = ((build_chain(4), (0.3, 7.0, 55.0)),
             (build_chain(6, profile="engineered"), (np.pi / 4,)),
             (build_chain(8, 2, 0.0), (3.0, 170.0, 5287.291)),
             (build_chain(8, 2, 20.0), (3.0, 990.0, 4.0e4)))
    for spec, ts in cases:
        dec = decompose_chain(spec)
        vals = general_values(dec, np.array(ts))
        for k, t in enumerate(ts):
            exact = haar_average(lambda state: evolve_receiver_pair(dec, state, t))
            assert abs(vals[k] - exact) <= 1e-12, f"N={spec.n_sites} t={t}"
    dec = decompose_chain(build_chain(7, 2, 8.0))
    for k, t in enumerate((0.9, 33.0, 710.0)):
        mc = avg_fidelity_mc(dec, t, 100000, SeededSampler(6 + k))
        assert mc.method == "monte-carlo-general"
        assert abs(general_values(dec, [t])[0] - mc.value) <= 3 * mc.stderr, f"t={t}"


def test_engineered_mirror_is_crossed():
    """At the engineered mirror time excitations land in reversed order.

    The pair state |11> survives the crossing, single excitations do not, so
    the two restricted averages split to 1 and 1/3.
    """
    dec = decompose_chain(build_chain(6, profile="engineered"))
    t = np.pi / 4
    assert avg_fidelity_omega2(dec, t).value == pytest.approx(1.0, abs=1e-10)
    assert avg_fidelity_omega1(dec, t).value == pytest.approx(1.0 / 3.0, abs=1e-10)
    mc = avg_fidelity_mc(dec, t, 20000, SeededSampler(9))
    assert mc.value < 0.5


def test_phase_opt_never_hurts():
    """The phase-optimized closed form is the best single odd-sector phase.

    A phase p on the receiver's |10>, |01> turns the bulk-empty Kraus trace
    into 1 + g_uv + p (f_u1 + f_v2); the argmax aligns the two terms.
    """
    cases = ((build_chain(7, 2, 10.0), (12.0, 148.0)),
             (build_chain(6, profile="engineered"), (np.pi / 4,)))
    phases = np.exp(2j * np.pi * np.arange(64) / 64)
    for spec, ts in cases:
        dec = decompose_chain(spec)
        grid = np.linspace(0.0, 400.0, 801)
        assert np.all(general_values(dec, grid, phase_opt=True)
                      >= general_values(dec, grid) - 1e-15)
        opt = general_values(dec, np.array(ts), phase_opt=True)
        n = spec.n_sites
        for k, t in enumerate(ts):
            (fu1, fu2), (fv1, fv2) = propagator_minor(dec, (n - 1, n), (1, 2), t)
            best = np.exp(1j * (np.angle(1.0 + fu1 * fv2 - fu2 * fv1) - np.angle(fu1 + fv2)))

            def corrected(p):
                u = np.diag([1.0, p, p, 1.0])
                return haar_average(
                    lambda state: u @ evolve_receiver_pair(dec, state, t) @ u.conj().T).real

            assert abs(opt[k] - corrected(best)) <= 1e-12, f"N={n} t={t}"
            assert max(corrected(p) for p in phases) <= opt[k] + 1e-12, f"N={n} t={t}"


def test_mc_requires_known_class():
    dec = decompose_chain(build_chain(7, 2, 1.0))
    with pytest.raises(ValueError):
        avg_fidelity_mc(dec, 1.0, 100, SeededSampler(0), state_class="bogus")


@pytest.mark.parametrize("samples", [1, 0, 2.7, 2.0, True])
def test_mc_sample_count_is_an_integer_of_at_least_two(samples):
    """A standard error needs two samples; a fractional count is not a count."""
    dec = decompose_chain(build_chain(8, 2, 9.0))
    with pytest.raises(ValueError, match="samples"):
        avg_fidelity_mc(dec, 31.0, samples, SeededSampler(0))
    with pytest.raises(ValueError, match="samples"):
        avg_fidelity_1q_mc(dec, 31.0, samples, SeededSampler(0))


def test_mc_takes_two_samples_and_numpy_integers():
    dec = decompose_chain(build_chain(8, 2, 9.0))
    for samples in (2, np.int64(2)):
        for result in (avg_fidelity_mc(dec, 31.0, samples, SeededSampler(0)),
                       avg_fidelity_1q_mc(dec, 31.0, samples, SeededSampler(0))):
            assert np.isfinite(result.stderr)


def test_perfect_transfer_chain_general_average():
    # engineered chains deliver every product |ab> only up to the crossing,
    # so even the best general-state average stays well below one
    dec = decompose_chain(build_chain(5, profile="engineered"))
    vals = [avg_fidelity_mc(dec, t, 3000, SeededSampler(2)).value
            for t in (np.pi / 4, np.pi / 2)]
    assert max(vals) < 0.99
