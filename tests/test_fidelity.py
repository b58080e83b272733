"""Average transfer fidelities: closed forms and Monte Carlo."""

import numpy as np
import pytest

from spinbus import (
    SeededSampler,
    SingleParticleHamiltonian,
    TwoQubitState,
    amplitude_1p,
    amplitude_row,
    amplitude_rp,
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
    hamiltonian_matrix,
    omega1_values,
    omega2_values,
    one_qubit_amplitude,
    one_qubit_values,
)
from spinbus import bounds
from spinbus.bounds import _pair_det_series, _squared_series_bound, interval_bound, \
    onset_curvature, series, series_ceiling
from spinbus.fidelity import GRID_VALUES, _SERIES_MAX_SITES
from spinbus.oracle import haar_average
from spinbus.scans import _CHUNK
from spinbus.spectral import _ROW_POINTS, UniformGrid, propagator_minor, propagator_minor_grid

# points of a grid whose phase table spans four row blocks and part of a fifth
_ROWS_GRID = 4 * _ROW_POINTS + 300

# couplings and on-site energies without mirror symmetry, so that f_u1 != f_v2
_ASYMMETRIC = SingleParticleHamiltonian(
    np.array([0.3, -1.0, 0.0, 2.0, 0.5, -0.7, 0.0, 1.1]),
    np.array([-2.0, -1.3, -2.0, -0.6, -2.0, -1.7, -0.9]))


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


def _omega1_from_invariants(f_u1, f_v2, f_u2, f_v1):
    # (|tr F|^2 + ||F||^2)/6, the formula omega1_values evaluates, on one minor
    f = np.array([f_u1, f_u2, f_v1, f_v2], dtype=complex)
    return float((abs(f_u1 + f_v2) ** 2 + np.sum(np.abs(f) ** 2)) / 6.0)


def test_omega_slice_formulas():
    # worked examples evaluated by hand from the sector averages
    for omega1 in (_omega1_entrywise, _omega1_from_invariants):
        assert omega1(1.0, 1.0, 0.0, 0.0) == pytest.approx(1.0)
        assert omega1(0.0, 0.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0)
        assert omega1(0.0, 0.0, 0.0, 0.0) == pytest.approx(0.0)


def _pair_chain(n_sites, field):
    # block-2 barrier chains from N = 7; shorter chains carry the field on
    # sites 2 and N-1, built directly, so that N = 4 can have one too
    if n_sites >= 7:
        return decompose_chain(build_chain(n_sites, 2, field))
    diag = np.zeros(n_sites)
    diag[[1, n_sites - 2]] = -2.0 * field
    return decompose(SingleParticleHamiltonian(diag, np.full(n_sites - 1, -2.0)))


# (N, h) of _pair_chain, and the chain without mirror symmetry
_PAIR_CHAINS = [*(pytest.param((n_sites, field), id=f"{n_sites}-{field}")
                  for n_sites in (4, 7, 8, 11, 40) for field in (0.0, 5.0, 20.0, 200.0)),
                pytest.param(_ASYMMETRIC, id="asymmetric")]


@pytest.mark.parametrize("chain", _PAIR_CHAINS)
def test_folded_omega1_matches_entrywise_formula(chain):
    """omega1_values equals the entrywise formula on F.

    Grids: one of several row blocks, one mid-window chunk shorter than a
    phase block, and a time array out to the longest scan window.  On the scan
    grids of chains up to 12 sites omega1 is a cosine series, which rounds
    its phases differently from the minor's phase table, so the two sides
    agree to the phase rounding, eps * |lam| * t, at the grid's last time.
    """
    dec = decompose(chain) if chain is _ASYMMETRIC else _pair_chain(*chain)
    n_sites = dec.n_sites
    step = np.pi / (4.0 * dec.spectral_range)
    pair = ((n_sites - 1, n_sites), (1, 2))
    lam_max = np.abs(dec.eigenvalues).max()
    for ts, t_max in ((UniformGrid(step, 0, _ROWS_GRID), step * (_ROWS_GRID - 1)),
                      (UniformGrid(step, 123457, 100), step * (123457 + 99)),
                      (np.array([0.0, 0.7, 13.0, 1234.5, 2.0e4, 6.0e4]), 6.0e4)):
        m = propagator_minor_grid(dec, *pair, ts)
        want = _omega1_entrywise(m[:, 0, 0], m[:, 1, 1], m[:, 0, 1], m[:, 1, 0])
        tol = 1e-14 + 2 * np.finfo(float).eps * lam_max * t_max
        assert np.abs(omega1_values(dec, ts) - want).max() <= tol, ts
    if chain is _ASYMMETRIC:
        assert np.abs(m[:, 0, 0] - m[:, 1, 1]).max() > 0.1


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
    """The closed form equals the Haar average, exact on a 2-design, in
    dimension 4, of the receiver state and agrees with large-sample Monte
    Carlo."""
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


def _general_from_determinant(m):
    # 1/5 + |det(I + F)|^2/20 on a stack of minors, by LAPACK's determinant
    return 0.2 + np.abs(np.linalg.det(np.eye(2) + m)) ** 2 / 20.0


def _general_cases():
    # every (block, field) that fits on each chain length, for every profile
    for n_sites in (4, 5, 8, 11, 16, 40):
        for profile in ("uniform", "engineered", "ballistic"):
            for block in (1, 2):
                for field in (0.0, 3.0, 20.0, 200.0):
                    if 2 * block + 2 <= n_sites and (field == 0 or n_sites >= 2 * block + 3):
                        yield pytest.param(
                            hamiltonian_matrix(build_chain(n_sites, block, field, profile)),
                            id=f"N{n_sites}-{profile}-n{block}-h{field:g}")


@pytest.mark.parametrize("ham", [*_general_cases(), pytest.param(_ASYMMETRIC, id="asymmetric")])
def test_general_grid_is_the_determinant(ham):
    """On scan chunks general_values is 1/5 + |det(I + F)|^2/20 with F the
    pair minor at the same times (the array path, one time per row).

    Chunks start at 0 and at a chunk boundary near the end of the longest
    scan window (6e4), with a count below one phase block and one that is
    not a multiple of it.
    """
    dec = decompose(ham)
    n = dec.n_sites
    step = np.pi / (4.0 * dec.spectral_range)
    last = int(6.0e4 / step) // _CHUNK * _CHUNK
    lam_max = np.abs(dec.eigenvalues).max()
    for start, count in ((0, 1000), (0, 100), (last, 1000), (last, 100)):
        grid = UniformGrid(step, start, count)
        ts = step * (start + np.arange(count))
        m = propagator_minor_grid(dec, (n - 1, n), (1, 2), ts)
        tol = 1e-14 + 2.0 * np.finfo(float).eps * lam_max * ts[-1]
        plain = general_values(dec, grid)
        assert plain.shape == (count,)
        assert np.abs(plain - _general_from_determinant(m)).max() <= tol, (start, count)
    if ham is _ASYMMETRIC:
        assert np.abs(m[:, 0, 0] - m[:, 1, 1]).max() > 0.1


@pytest.mark.parametrize("fidelity_class", GRID_VALUES)
def test_a_scan_chunk_holds_its_values_not_its_phase_table(fidelity_class):
    """A _CHUNK-point grid is reduced one row block of its phase table at a
    time: beside its 8 bytes per point of output it peaks under 1 MB (omega1
    at N = 16, past the cosine series), an eighth of the general class's
    whole (A, 4, B) table."""
    import tracemalloc

    dec = decompose_chain(build_chain(16 if fidelity_class == "omega1" else 8, 2, 9.0))
    assert fidelity_class != "omega1" or dec.n_sites > _SERIES_MAX_SITES
    grid = UniformGrid(0.3, 5 * _CHUNK, _CHUNK)
    GRID_VALUES[fidelity_class](dec, grid)  # the weights, cached per decomposition
    tracemalloc.start()
    try:
        values = GRID_VALUES[fidelity_class](dec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (_CHUNK,)
    assert peak - 8 * _CHUNK < 1 << 20


def test_mc_requires_known_class():
    dec = decompose_chain(build_chain(7, 2, 1.0))
    with pytest.raises(ValueError):
        avg_fidelity_mc(dec, 1.0, 100, SeededSampler(0), state_class="bogus")


def test_one_qubit_mc_is_named_where_the_two_qubit_mc_refuses_it():
    """The one-qubit class is not one avg_fidelity_mc draws: the error names
    the function that does and the classes this one takes."""
    dec = decompose_chain(build_chain(7, 2, 1.0))
    with pytest.raises(ValueError, match="avg_fidelity_1q_mc") as info:
        avg_fidelity_mc(dec, 1.0, 100, SeededSampler(0), state_class="one-qubit")
    assert all(repr(c) in str(info.value) for c in ("general", "omega1", "omega2"))


def test_general_values_takes_no_phase_opt():
    """The general class has one closed form; the phase-optimized variant is gone."""
    dec = decompose_chain(build_chain(7, 2, 1.0))
    with pytest.raises(TypeError):
        general_values(dec, (1.0,), phase_opt=True)


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


_STATE = TwoQubitState(0.5, 0.5, 0.5, 0.5)
_PAIR = ((7, 8), (1, 2))
# every entry point that takes a time, called at t (a grid's at (0.5, t))
_TIME_ENTRY_POINTS = {
    "amplitude_1p": lambda dec, t: amplitude_1p(dec, 8, 1, t),
    "amplitude_row": lambda dec, t: amplitude_row(dec, 1, t),
    "propagator_minor": lambda dec, t: propagator_minor(dec, *_PAIR, t),
    "propagator_minor_grid": lambda dec, t: propagator_minor_grid(dec, *_PAIR, (0.5, t)),
    "amplitude_rp": lambda dec, t: amplitude_rp(dec, *_PAIR, t),
    "evolve_receiver_pair": lambda dec, t: evolve_receiver_pair(dec, _STATE, t),
    "one_qubit_amplitude": lambda dec, t: one_qubit_amplitude(dec, t),
    "avg_fidelity_omega1": lambda dec, t: avg_fidelity_omega1(dec, t),
    "avg_fidelity_omega2": lambda dec, t: avg_fidelity_omega2(dec, t),
    "avg_fidelity_mc": lambda dec, t: avg_fidelity_mc(dec, t, 10, SeededSampler(0)),
    "avg_fidelity_1q_mc": lambda dec, t: avg_fidelity_1q_mc(dec, t, 10, SeededSampler(0)),
    "one_qubit_values": lambda dec, t: one_qubit_values(dec, (0.5, t)),
    "omega1_values": lambda dec, t: omega1_values(dec, (0.5, t)),
    "omega2_values": lambda dec, t: omega2_values(dec, (0.5, t)),
    "general_values": lambda dec, t: general_values(dec, (0.5, t)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 1e300])
@pytest.mark.parametrize("entry", _TIME_ENTRY_POINTS)
def test_non_finite_times_raise(entry, t):
    """A non-finite time is an error, not a NaN value, and so is a finite one
    whose phase lam t overflows (t = 1e300 against the -2e10 of an h = 1e10
    chain): the array path of the phase products checks its phase table, and
    every entry point that takes a time goes through it.  The error comes
    without a RuntimeWarning on the way, which warnings as errors would turn
    into a failure here."""
    dec = decompose_chain(build_chain(8, 2, 1e10 if np.isfinite(t) else 9.0))
    call = _TIME_ENTRY_POINTS[entry]
    call(dec, 31.0)
    with pytest.raises(ValueError, match="finite"):
        call(dec, t)


@pytest.mark.parametrize("t", [0.0, 31.7, 1.94e4])
def test_point_averages_are_the_grid_values_at_one_time(t):
    """A single-time omega1 or omega2 average is its grid evaluator at that
    one time, bit for bit."""
    for n_sites, field in ((7, 0.0), (11, 13.0), (16, 27.5)):
        dec = decompose_chain(build_chain(n_sites, 2, field))
        ts = np.array([t])
        assert avg_fidelity_omega1(dec, t).value == omega1_values(dec, ts)[0]
        assert avg_fidelity_omega2(dec, t).value == omega2_values(dec, ts)[0]


@pytest.mark.parametrize("t", [True, "3"])
@pytest.mark.parametrize("entry", [e for e in _TIME_ENTRY_POINTS
                                   if "values" not in e and not e.endswith("_grid")])
def test_times_that_are_not_real_numbers_raise(entry, t):
    """float() would read True as t = 1 and "3" as t = 3: the array path of the
    phase products rejects both, and every entry point that takes a time
    goes through it."""
    dec = decompose_chain(build_chain(8, 2, 9.0))
    with pytest.raises(ValueError, match="real numbers"):
        _TIME_ENTRY_POINTS[entry](dec, t)


@pytest.mark.parametrize("ts", [
    pytest.param(np.array([True, False]), id="bool"),
    pytest.param(np.array([0.5, 31.0 + 2.0j]), id="complex"),
    pytest.param(np.array([0.5, 31.0 + 0.0j]), id="complex-real"),
])
def test_time_arrays_that_are_not_real_raise(ts):
    """A bool array is not times, and a complex one would lose its imaginary
    part with only a ComplexWarning, whether or not it is zero."""
    dec = decompose_chain(build_chain(8, 2, 9.0))
    for grid_values in (*GRID_VALUES.values(),
                        lambda dec, ts: propagator_minor_grid(dec, *_PAIR, ts)):
        with pytest.raises(ValueError, match="real numbers"):
            grid_values(dec, ts)


@pytest.mark.parametrize("f", [np.nan, complex(np.nan, 0.0), np.inf])
def test_one_qubit_average_rejects_non_numbers(f):
    # min(nan, 1.0) is nan, so a NaN modulus must fail the bound check itself
    with pytest.raises(ValueError):
        avg_fidelity_1q(f)


_BOUND_CHAINS = [
    (7, 0.0, "uniform"), (8, 20.0, "uniform"), (8, 200.0, "uniform"), (16, 5.0, "ballistic"),
    (7, 0.0, "engineered"), (11, 3.0, "engineered"), (40, 0.0, "uniform"),
]


@pytest.mark.parametrize("fidelity_class", ["general", "omega1", "omega2", "one-qubit"])
@pytest.mark.parametrize("n_sites, field, profile", _BOUND_CHAINS)
def test_curvature_bounds_hold(fidelity_class, n_sites, field, profile):
    """-Fbar'' stays within interval_bound's K everywhere and within
    onset_curvature's K(t) on [0, t], as centred second differences of the
    average on a 2e-3 grid show, up to the rounding of those differences.
    The one-qubit average has convex kinks where f = 0 and is bounded from
    below alone; the other classes' K bound |Fbar''|."""
    dec = decompose_chain(build_chain(n_sites, 2, field, profile))
    k = interval_bound(dec, fidelity_class)
    d = 2e-3
    grid = d * np.arange(int(12.0 / d) + 1)
    q = GRID_VALUES[fidelity_class](dec, grid)
    second = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / (d * d)
    second = -second if fidelity_class == "one-qubit" else np.abs(second)
    rounding = 1e-9
    assert second.max() <= k + rounding
    ts = np.linspace(0.25, 12.0, 48)
    onset = onset_curvature(dec, fidelity_class, ts)
    assert np.all(onset <= k) and np.all(np.diff(onset) >= 0)
    # the differences whose stencil [g - d, g + d] lies inside [0, t]
    inside = np.maximum.accumulate(second)[np.searchsorted(grid[2:], ts, side="right") - 1]
    assert np.all(inside <= onset + rounding)
    # the bound reads the start of a long chain as flat
    if n_sites == 40:
        assert onset[0] < 1e-20
    if fidelity_class == "one-qubit":
        return
    # and at late times, where each value carries the rounding of its phases,
    # about eps |lam| t each
    ts = np.random.default_rng(0).uniform(12.0, 2.0e4, 4000)
    q = [GRID_VALUES[fidelity_class](dec, ts + s) for s in (-d, 0.0, d)]
    second = np.abs(q[0] - 2.0 * q[1] + q[2]) / (d * d)
    late_rounding = 1e-9 + 8.0 * np.finfo(float).eps * np.abs(dec.eigenvalues).max() * 2.0e4 \
        / (d * d)
    assert second.max() <= k + late_rounding


@pytest.mark.parametrize("n_sites, field, profile", [
    (6, 0.0, "uniform"), (8, 20.0, "uniform"), (11, 3.0, "engineered"),
])
def test_curvature_series_are_exact(n_sites, field, profile):
    """The series that K is read off reproduce det F and det(I + F) (the
    general series' squared part, merged), and the bound on the second
    derivative of |s|^2 for s = sum_m c_m exp(-i nu_m t) equals the sum over
    coefficient pairs it stands for, sum_{m,n} |c_m c_n| (nu_m - nu_n)^2.  On
    a mirror-symmetric chain each receiver minor of the eigenvectors is +-
    the sender one, so by Cauchy-Binet det F's coefficients sum in modulus
    to det(I_2) = 1."""
    dec = decompose_chain(build_chain(n_sites, 2, field, profile))
    assert np.abs(_pair_det_series(dec)[0]).sum() == pytest.approx(1)
    ts = np.linspace(0.0, 50.0, 11)
    f = propagator_minor_grid(dec, (n_sites - 1, n_sites), (1, 2), ts)
    general = series(dec, "general")
    for (c, nu), want in ((_pair_det_series(dec), np.linalg.det(f)),
                          ((general.c, general.nu), np.linalg.det(np.eye(2) + f))):
        assert np.max(np.abs(np.exp(-1j * np.outer(ts, nu)) @ c - want)) < 1e-13
        a = np.abs(c)
        pairs = (np.outer(a, a) * np.subtract.outer(nu, nu) ** 2).sum()
        assert _squared_series_bound(c, nu) == pytest.approx(pairs, rel=1e-12)


def _series_values(s, ts):
    # a0 + sum_j a_j cos(w_j t) + |sum_m c_m exp(-i nu_m t)|^2 / scale
    squared = np.abs(np.exp(-1j * np.outer(ts, s.nu)) @ s.c) ** 2 / s.scale
    return s.a0 + np.cos(np.outer(ts, s.w)) @ s.a + squared


def _unmerged(monkeypatch):
    # series with no merging: no two frequencies lie within a negative tolerance
    monkeypatch.setattr(bounds, "_MERGE_EPS", -1.0)
    series.cache_clear()


_SERIES_CHAINS = [(7, 0.0, "uniform"), (8, 0.0, "uniform"), (8, 20.0, "uniform"),
                  (7, 0.0, "engineered"), (11, 3.0, "engineered")]


@pytest.mark.parametrize("fidelity_class", ["general", "omega1", "omega2"])
@pytest.mark.parametrize("n_sites, field, profile", _SERIES_CHAINS)
def test_series_reproduce_the_averages(monkeypatch, fidelity_class, n_sites, field, profile):
    """Each two-qubit series, merged, gives the class's average at t <= 50.
    Every chain here but the engineered one at h = 3 has coinciding general
    frequencies, merged into fewer terms: at h = 0 the spectrum is
    +-symmetric (evenly spaced on engineered chains), and at N = 8 the bulk
    has a mode at +-2.  With no coinciding frequencies the series is the
    unmerged one, with spread 0."""
    dec = decompose_chain(build_chain(n_sites, 2, field, profile))
    ts = np.linspace(0.0, 50.0, 201)
    merged = series(dec, fidelity_class)
    assert np.abs(_series_values(merged, ts) - GRID_VALUES[fidelity_class](dec, ts)).max() < 1e-12
    _unmerged(monkeypatch)
    plain = series(dec, fidelity_class)
    series.cache_clear()
    assert plain.spread == 0.0
    terms = (merged.a.size + merged.c.size, plain.a.size + plain.c.size)
    if fidelity_class == "general":
        assert (terms[0] < terms[1]) == ((n_sites, field, profile) != (11, 3.0, "engineered"))
    if terms[0] == terms[1]:
        assert merged.spread == 0.0
        assert all(np.array_equal(x, y) for x, y in zip(merged, plain))


@pytest.mark.parametrize("n_sites, profile, at_most", [
    (7, "engineered", 17.0), (11, "engineered", 28.5), (7, "uniform", 3.7),
])
def test_merged_frequencies_cancel_in_k(n_sites, profile, at_most):
    """At h = 0 coinciding frequencies merge, and their coefficients cancel
    in the general K: unmerged it was 40.07, 69.89 and 5.40 on these chains."""
    assert interval_bound(decompose_chain(build_chain(n_sites, 2, 0.0, profile)),
                          "general") <= at_most


def test_series_ceiling_never_rises_with_merging(monkeypatch):
    """Merged coefficients sum to at most the sum of their moduli, so on the
    Fig. 5 chains at weak fields no ceiling lies above the unmerged one by
    more than the rounding of the reordered sum (two units in the last place)."""
    chains = [decompose_chain(build_chain(n, 2, 0.1 * k)) for n in range(7, 12)
              for k in range(31)]
    classes = ("general", "omega1", "omega2")
    merged = [[series_ceiling(dec, c) for c in classes] for dec in chains]
    _unmerged(monkeypatch)
    plain = [[series_ceiling(dec, c) for c in classes] for dec in chains]
    series.cache_clear()
    assert np.all(np.array(merged) <= np.array(plain) + 4.0 * np.finfo(float).eps)
    assert np.any(np.array(merged) < np.array(plain) - 0.01)


@pytest.mark.parametrize("fidelity_class, n_sites, fields, at_most", [
    ("general", 8, (0.0, 2.0, 5.0, 10.0, 15.0, 20.0, 200.0), 6.0),  # Fig. 4b and h = 200
    ("omega1", 7, (5.2,), 7.0), ("omega1", 8, (7.1,), 7.0), ("omega1", 9, (5.9,), 7.0),
    ("omega1", 10, (7.1,), 7.0), ("omega1", 11, (6.0,), 7.0),  # the Fig. 5 thresholds
])
def test_series_curvature_bounds_are_tight(fidelity_class, n_sites, fields, at_most):
    """K comes from the coefficients of the average's trigonometric series, so
    the terms that cancel in it do not add up: the product rule on the
    entries gave 32 to 34 for general and about 24 for omega1 on these chains."""
    for h in fields:
        dec = decompose_chain(build_chain(n_sites, 2, h))
        assert interval_bound(dec, fidelity_class) <= at_most


@pytest.mark.parametrize("fidelity_class", ["general", "omega1", "omega2", "one-qubit"])
@pytest.mark.parametrize("n_sites, field, profile", _BOUND_CHAINS)
def test_series_ceiling_holds(fidelity_class, n_sites, field, profile):
    """No value on a 0.05 grid over [0, 2e4], nor at 4000 random times in it,
    exceeds series_ceiling by more than the rounding of its phases."""
    dec = decompose_chain(build_chain(n_sites, 2, field, profile))
    ceiling = series_ceiling(dec, fidelity_class)
    evaluate = GRID_VALUES[fidelity_class]
    t_max = 2.0e4
    rounding = 1e-13 + 16.0 * np.finfo(float).eps * np.abs(dec.eigenvalues).max() * t_max
    n_pts = int(t_max / 0.05) + 1
    top = max(evaluate(dec, UniformGrid(0.05, start, min(_CHUNK, n_pts - start))).max()
              for start in range(0, n_pts, _CHUNK))
    top = max(top, evaluate(dec, np.random.default_rng(1).uniform(0.0, t_max, 4000)).max())
    assert top <= ceiling + rounding


@pytest.mark.parametrize("n_sites", range(7, 12))
def test_omega1_ceiling_decides_the_weak_fields_of_fig5(n_sites):
    """Below h = 5 the omega1 average of every Fig. 5 chain stays below the
    0.95 target at every time: the ceiling alone decides those fields."""
    for h in (0.0, 1.0, 2.0, 4.0):
        assert series_ceiling(decompose_chain(build_chain(n_sites, 2, h)), "omega1") < 0.95


@pytest.mark.parametrize("n_sites, block, field, profile, expected", [
    (7, None, 0.0, "uniform", 8.0 / 3.0), (9, None, 0.0, "uniform", 8.0 / 3.0),
    (40, None, 0.0, "uniform", 8.0 / 3.0), (7, 1, 10.0, "uniform", 8.0 / 3.0),
    (9, 1, 10.0, "uniform", 8.0 / 3.0), (7, None, 0.0, "engineered", 8.0 * 6 / 3.0),
    (9, None, 0.0, "engineered", 8.0 * 8 / 3.0), (40, None, 0.0, "engineered", 8.0 * 39 / 3.0),
])
def test_one_qubit_bound_from_the_spectrum(n_sites, block, field, profile, expected):
    """The one-qubit K is (1 + A) B2/3 for f_{N,1} = sum_k u_1k u_Nk exp(-i lam_k t).
    On a mirror chain u_Nk = +-u_1k, so A = 1 and B2 = (H^2)_11: K = 2 (H^2)_11/3,
    8/3 on uniform chains and 8 (N - 1)/3 on engineered ones."""
    chain = build_chain(n_sites, block, field, profile)
    h = hamiltonian_matrix(chain)
    k = interval_bound(decompose_chain(chain), "one-qubit")
    assert k == pytest.approx(2.0 * (h.diagonal[0] ** 2 + h.offdiagonal[0] ** 2) / 3.0, rel=1e-12)
    assert k == pytest.approx(expected, rel=1e-12)


def _omega2_from_minors(f):
    # 1/2 - ||F||^2/6 + |g|^2/2 + Re(g)/3 on a stack of minors, g = det F
    g = np.linalg.det(f)
    return 0.5 - (np.abs(f) ** 2).sum(axis=(1, 2)) / 6.0 + np.abs(g) ** 2 / 2.0 + g.real / 3.0


@pytest.mark.parametrize("chain", [
    *(pytest.param((n_sites, field), id=f"{n_sites}-{field}")
      for n_sites, field in ((4, 0.0), (8, 20.0), (11, 5.0), (16, 200.0))),
    pytest.param(_ASYMMETRIC, id="asymmetric"),
])
def test_omega2_average_in_the_pair_minor(chain):
    """The omega2 average is 1/2 - ||F||^2/6 + |g|^2/2 + Re(g)/3 with g = det F,
    the form its curvature bound is built on, on an array of times and on a
    uniform grid of several row blocks, there to the phase rounding at its
    last time."""
    if chain is _ASYMMETRIC:
        dec = decompose(chain)
    else:
        dec = decompose_chain(build_chain(chain[0], 1, chain[1]))
    pair = ((dec.n_sites - 1, dec.n_sites), (1, 2))
    ts = np.linspace(0.0, 50.0, 101)
    f = propagator_minor_grid(dec, *pair, ts)
    assert np.max(np.abs(_omega2_from_minors(f) - omega2_values(dec, ts))) < 1e-14
    grid = UniformGrid(0.01, 0, _ROWS_GRID)
    ts = 0.01 * np.arange(_ROWS_GRID)
    f = propagator_minor_grid(dec, *pair, ts)
    tol = 1e-14 + 2 * np.finfo(float).eps * np.abs(dec.eigenvalues).max() * ts[-1]
    assert np.max(np.abs(_omega2_from_minors(f) - omega2_values(dec, grid))) <= tol
    if chain is _ASYMMETRIC:
        assert np.abs(f[:, 0, 0] - f[:, 1, 1]).max() > 0.1


@pytest.mark.parametrize("n_sites, field, profile", _BOUND_CHAINS)
def test_omega1_onset_bound_reads_the_trace(monkeypatch, n_sites, field, profile):
    """omega1's onset bound, (sc(tr F) + sum sc(e))/6 over F's entries e, with
    sc the bound on (|e|^2)'' from those on |e|, |e'| and |e''|, is never
    above the rule of the 4 x 4 form it replaced,
    sc(tr F)/3 + (sc(f_u2) + sc(f_v1))/6: sc(tr F) >= sc(f_u1) + sc(f_v2)."""
    dec = decompose_chain(build_chain(n_sites, 2, field, profile))
    ts = np.linspace(0.25, 12.0, 48)
    new = onset_curvature(dec, "omega1", ts)

    def form_rule(a, b1, b2):
        sc = bounds._square_curvature
        return sc(*(x[0] + x[3] for x in (a, b1, b2))) / 3.0 \
            + (sc(a[1], b1[1], b2[1]) + sc(a[2], b1[2], b2[2])) / 6.0

    monkeypatch.setitem(bounds._BOUNDS, "omega1", form_rule)
    assert np.all(new <= onset_curvature(dec, "omega1", ts))


def test_onset_bound_falls_with_the_distance():
    """The Dyson series is carried at least to order N, past every entry's
    onset power, so its tail does not lift the far entries' bound: at the
    same times it falls with the chain length."""
    s = 0.346
    onset = [onset_curvature(decompose_chain(build_chain(n, 2)), "omega2", [s, 2.0 * s])
             for n in (16, 20, 24)]
    assert onset[0][0] < 1e-19
    assert all(later[0] < 1e-8 * earlier[0] for earlier, later in zip(onset, onset[1:]))
    assert all(b[0] <= b[1] for b in onset)


def test_hopping_is_read_back_once_per_decomposition():
    """The hopping of the chain's matrix, read back from the decomposition for
    the onset horizon and the onset table, is computed once per decomposition
    and handed out read-only."""
    spec = build_chain(9, 2, 6.0)
    dec = decompose_chain(spec)
    hop, tau = bounds._hopping(dec)
    assert bounds._hopping(dec)[0] is hop
    assert not hop.flags.writeable
    matrix = np.abs(hamiltonian_matrix(spec).to_dense())
    np.testing.assert_allclose(hop, np.diag(matrix, 1), rtol=1e-12)
    off = matrix - np.diag(matrix.diagonal())
    assert tau == pytest.approx(off.sum(axis=1).max(), rel=1e-12)
