"""Eigendecomposition and single-particle propagator elements."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spinbus import (
    SingleParticleHamiltonian,
    amplitude_1p,
    amplitude_row,
    build_chain,
    decompose,
    decompose_chain,
    hamiltonian_matrix,
    propagator_minor,
    propagator_minor_grid,
)
from spinbus import TwoQubitState, evolve_receiver_pair, fidelity, spectral
from spinbus.bounds import interval_bound, onset_curvature, onset_horizon, series_ceiling
from spinbus.fidelity import GRID_VALUES
from spinbus.spectral import _ROW_POINTS, SpectralDecomposition, UniformGrid

# points of a grid whose phase table spans four row blocks and part of a fifth
_ROWS_GRID = 4 * _ROW_POINTS + 300


def test_uniform_open_chain_spectrum():
    """Barrier-free uniform chain has the textbook cosine band."""
    for n in (3, 5, 8):
        dec = decompose_chain(build_chain(n))
        expected = np.sort([-4.0 * np.cos(k * np.pi / (n + 1)) for k in range(1, n + 1)])
        np.testing.assert_allclose(dec.eigenvalues, expected, atol=1e-12)


def test_eigenvectors_orthonormal():
    dec = decompose_chain(build_chain(9, 2, 17.0))
    gram = dec.eigenvectors.T @ dec.eigenvectors
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)


def test_two_site_oscillation():
    # smallest chain: coupling -2 gives f_21(t) = i sin 2t
    dec = decompose_chain(build_chain(2))
    for t in (0.0, 0.3, 1.1, 2.9):
        f = amplitude_1p(dec, 2, 1, t)
        assert abs(f - 1j * np.sin(2 * t)) < 1e-12
        assert abs(amplitude_1p(dec, 1, 1, t) - np.cos(2 * t)) < 1e-12


def test_propagator_unitarity():
    rng = np.random.default_rng(0)
    dec = decompose_chain(build_chain(8, 2, 6.5))
    for _ in range(5):
        t = rng.uniform(0.0, 40.0)
        u = propagator_minor(dec, range(1, 9), range(1, 9), t)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


def test_amplitude_row_matches_scalar():
    dec = decompose_chain(build_chain(6, 1, 3.0))
    row = amplitude_row(dec, 2, 7.7)
    for j in range(1, 7):
        assert abs(row[j - 1] - amplitude_1p(dec, j, 2, 7.7)) < 1e-14


def test_minor_grid_matches_single_times():
    dec = decompose_chain(build_chain(7, 2, 4.0))
    ts = np.array([0.0, 1.5, 12.0])
    grid = propagator_minor_grid(dec, (6, 7), (1, 2), ts)
    assert grid.shape == (3, 2, 2)
    for k, t in enumerate(ts):
        np.testing.assert_allclose(grid[k], propagator_minor(dec, (6, 7), (1, 2), t),
                                   atol=1e-14)


@pytest.mark.parametrize("ham", [
    hamiltonian_matrix(build_chain(9)),
    hamiltonian_matrix(build_chain(8, 2, 20.0)),
    hamiltonian_matrix(build_chain(40, 2, 200.0)),
    hamiltonian_matrix(build_chain(7, profile="engineered")),
    # site 1 decoupled: five eigenvectors have an exact zero on it
    SingleParticleHamiltonian(np.array([0.0, 1.0, -1.0, 0.5, 0.0, 2.0]),
                              np.array([0.0, -2.0, -1.5, -2.0, -1.0])),
], ids=["uniform", "barrier", "strong-barrier", "engineered", "decoupled-site"])
def test_readers_do_not_see_eigenvector_signs(ham):
    """Negating eigenvectors changes nothing a reader of them returns, bit for
    bit: each multiplies two entries of one column or takes a modulus."""
    dec = decompose(ham)
    rng = np.random.default_rng(5)
    flip = rng.random(dec.n_sites) < 0.5
    flip[0] = True
    flipped = SpectralDecomposition(dec.eigenvalues,
                                    np.where(flip, -dec.eigenvectors, dec.eigenvectors))
    sites = range(1, dec.n_sites + 1)
    ts = np.array([0.0, 0.7, 13.0, 999.5, 1.2e4])
    grid = UniformGrid(0.37, 5, 600)
    state = TwoQubitState.from_vector(rng.normal(size=4) + 1j * rng.normal(size=4),
                                      normalize=True)

    def readings(d):
        out = [propagator_minor_grid(d, sites, sites, ts), evolve_receiver_pair(d, state, 41.2)]
        for cls, values in GRID_VALUES.items():
            out += [values(d, ts), values(d, grid), interval_bound(d, cls),
                    series_ceiling(d, cls), onset_horizon(d, cls),
                    onset_curvature(d, cls, ts[1:3])]
        return out

    for plain, negated in zip(readings(dec), readings(flipped), strict=True):
        assert np.array_equal(plain, negated)


def _barrier_hamiltonian(n_sites, field, decoupled=False):
    # uniform couplings with the field on sites 2 and N-1; built directly, so
    # that N = 4 can carry a field too.  decoupled cuts the first bond.
    diag = np.zeros(n_sites)
    diag[[1, n_sites - 2]] = -2.0 * field
    off = np.full(n_sites - 1, -2.0)
    if decoupled:
        off[0] = 0.0
    return SingleParticleHamiltonian(diag, off)


@pytest.mark.parametrize("decoupled", [False, True], ids=["chain", "decoupled-site"])
@pytest.mark.parametrize("field", [0.0, 20.0, 200.0])
@pytest.mark.parametrize("n_sites", [4, 8, 40, 200])
def test_decompose_matches_tridiagonal_solver(n_sites, field, decoupled):
    """The dense solver agrees with LAPACK's tridiagonal one (test-only reference).

    Measured on numpy 2.4 / scipy 1.17 with OpenBLAS 0.3: eigenvalues within
    2.5 eps * max|lam| (bare N = 200) and all-site propagators within 0.25 of
    the phase bound below up to t = 6e4; N <= 8 and every barrier chain agree
    bit for bit.
    """
    scipy_linalg = pytest.importorskip("scipy.linalg")
    ham = _barrier_hamiltonian(n_sites, field, decoupled)
    dec = decompose(ham)
    ref = SpectralDecomposition(*scipy_linalg.eigh_tridiagonal(ham.diagonal, ham.offdiagonal))
    eps = np.finfo(float).eps
    lam_max = np.abs(ref.eigenvalues).max()
    assert np.abs(dec.eigenvalues - ref.eigenvalues).max() <= 4.0 * eps * lam_max
    # propagators do not depend on eigenvector signs or on the basis of a
    # degenerate eigenspace (the decoupled site of the bare chain)
    ts = np.array([0.0, 0.7, 13.0, 999.5, 1.2e4, 3.3e4, 6.0e4])
    sites = range(1, n_sites + 1)
    dev = np.abs(propagator_minor_grid(dec, sites, sites, ts)
                 - propagator_minor_grid(ref, sites, sites, ts)).max(axis=(1, 2))
    assert np.all(dev <= 1e-14 + 2.0 * eps * lam_max * ts), dev


@pytest.mark.parametrize("field", [0.0, 20.0, 200.0])
@pytest.mark.parametrize("n_sites", [4, 8, 40, 200])
def test_uniform_grid_matches_time_array(n_sites, field):
    """The blocked phase table agrees with exp(-i lam t) point by point.

    Grids start at 0, mid-window and at the end of the longest scan window
    (6e4), with counts that are and are not a multiple of the block, the
    longest spanning several row blocks.
    """
    dec = decompose(_barrier_hamiltonian(n_sites, field))
    lam_max = np.abs(dec.eigenvalues).max()
    step = np.pi / (4.0 * dec.spectral_range)
    window_end = int(6.0e4 / step)
    pair = ((n_sites - 1, n_sites), (1, 2))
    for start in (0, window_end // 2, window_end):
        for count in (1, 300, _ROWS_GRID):
            blocked = propagator_minor_grid(dec, *pair, UniformGrid(step, start, count))
            direct = propagator_minor_grid(dec, *pair, step * (start + np.arange(count)))
            assert blocked.shape == direct.shape == (count, 2, 2)
            t_end = step * (start + count - 1)
            tol = 1e-14 + 2.0 * np.finfo(float).eps * lam_max * t_end
            assert np.abs(blocked - direct).max() <= tol, (start, count)


@pytest.mark.parametrize("cls", GRID_VALUES)
@pytest.mark.parametrize("field", [0.0, 20.0])
@pytest.mark.parametrize("n_sites", [4, 8, 16, 40])
def test_grid_values_match_time_array(n_sites, field, cls):
    """Every class on a UniformGrid equals its time-array path to the phase
    rounding, eps * |lam| * t at the grid's last time.

    Grids: several row blocks from 0, a tail shorter than one phase block
    after them, and a start in the middle of the longest scan window (6e4)
    with a count that is not a multiple of the block.
    """
    dec = decompose(_barrier_hamiltonian(n_sites, field))
    lam_max = np.abs(dec.eigenvalues).max()
    step = np.pi / (4.0 * dec.spectral_range)
    middle = int(3.0e4 / step)
    values = GRID_VALUES[cls]
    for start, count in ((0, _ROWS_GRID), (_ROWS_GRID, 100), (middle, 1000)):
        ts = step * (start + np.arange(count))
        blocked = values(dec, UniformGrid(step, start, count))
        direct = values(dec, ts)
        assert blocked.shape == direct.shape == (count,)
        tol = 1e-14 + 2.0 * np.finfo(float).eps * lam_max * ts[-1]
        assert np.abs(blocked - direct).max() <= tol, (start, count)


@pytest.mark.parametrize("field", [0.0, 6.0, 200.0])
@pytest.mark.parametrize("n_sites", [2, 7, 11, 12])
def test_pair_phases_are_the_pair_cosines(n_sites, field):
    """exp(i w_kl t), built as exp(i lam_l t) conj(exp(i lam_k t)), is
    cos and sin of w_kl t = (lam_l - lam_k) t to the rounding of the two mode
    phases, 2 eps (|lam_k| + |lam_l|) t, pair by pair in _mode_pairs' order,
    at times near 0 and up to the longest scan window (6e4)."""
    dec = decompose(_barrier_hamiltonian(n_sites, field))
    lam = dec.eigenvalues
    k, l = spectral._mode_pairs(n_sites)
    ts = np.concatenate([np.linspace(0.0, 10.0, 7), np.linspace(5.9e4, 6.0e4, 9)])
    pairs = spectral._pair_phases(lam, ts, ts)
    assert pairs.shape == (ts.size, n_sites * (n_sites - 1) // 2)
    angles = np.outer(ts, lam[l] - lam[k])
    eps = np.finfo(float).eps
    tol = 4.0 * eps + 2.0 * eps * np.outer(ts, np.abs(lam[k]) + np.abs(lam[l]))
    assert np.all(np.abs(pairs.real - np.cos(angles)) <= tol)
    assert np.all(np.abs(pairs.imag - np.sin(angles)) <= tol)


@pytest.mark.parametrize("field", [0.0, 6.0, 20.0])
@pytest.mark.parametrize("n_sites", [9, 10, 11, 12])
def test_omega1_series_matches_time_array(n_sites, field):
    """omega1 on a UniformGrid, a cosine series over the pair phases on
    chains up to _SERIES_MAX_SITES, equals its time-array path to
    test_grid_values_match_time_array's tolerance, on grids that start at 0,
    in the middle and at the end of the longest scan window (6e4)."""
    assert n_sites <= fidelity._SERIES_MAX_SITES  # the series' range
    dec = decompose(_barrier_hamiltonian(n_sites, field))
    lam_max = np.abs(dec.eigenvalues).max()
    step = np.pi / (4.0 * dec.spectral_range)
    window_end = int(6.0e4 / step)
    for start, count in ((0, _ROWS_GRID), (window_end // 2, 1000), (window_end - 300, 301)):
        ts = step * (start + np.arange(count))
        blocked = fidelity.omega1_values(dec, UniformGrid(step, start, count))
        direct = fidelity.omega1_values(dec, ts)
        assert blocked.shape == direct.shape == (count,)
        tol = 1e-14 + 2.0 * np.finfo(float).eps * lam_max * ts[-1]
        assert np.abs(blocked - direct).max() <= tol, (start, count)


def test_phase_plan_never_leaks_between_chains_or_steps():
    """Chunks of three chains, two steps and every class, interleaved in one
    thread and on a thread pool, equal each chunk evaluated alone.

    The second chain is the first one shifted by a constant on-site energy:
    the same eigenvectors, so the same weights, with other eigenvalues.
    Each of the three orders below changes one of chain, class and grid
    between neighbouring chunks; the grids alternate between the steps and
    end on a chunk shorter than a phase block.
    """
    first = decompose_chain(build_chain(8, 2, 20.0))
    decs = (first, SpectralDecomposition(first.eigenvalues + 1.0, first.eigenvectors),
            decompose_chain(build_chain(8, 2, 5.0)))
    steps = (np.pi / (4.0 * first.spectral_range), 0.7 * np.pi / (4.0 * first.spectral_range))
    grids = []
    for k, (start, count) in enumerate(((0, 4096), (4096, 4096), (8192, 1000), (9192, 100))):
        grids += [UniformGrid(step, start, count) for step in steps[::1 - 2 * (k % 2)]]
    jobs = [(cls, dec, grid) for grid in grids for cls in GRID_VALUES for dec in decs]
    jobs += [(cls, dec, grid) for grid in grids for dec in decs for cls in GRID_VALUES]
    jobs += [(cls, dec, grid) for dec in decs for cls in GRID_VALUES for grid in grids]

    def evaluate(job):
        cls, dec, grid = job
        return GRID_VALUES[cls](dec, grid)

    reference = [evaluate(job) for job in jobs]
    for k, job in enumerate(jobs):
        assert np.array_equal(evaluate(job), reference[k]), k
    # more threads than cores, switching often, so shared state would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            pooled = list(pool.map(evaluate, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for k, values in enumerate(pooled):
        assert np.array_equal(values, reference[k]), k


def test_uniform_grid_length_is_its_count():
    assert len(UniformGrid(0.25, 7, 300)) == 300
    assert len(UniformGrid(0.25, 0, 1)) == 1
    with pytest.raises(ValueError):
        UniformGrid(0.25, 0, 0)


@pytest.mark.parametrize("step, start, count, name", [
    (math.nan, 0, 3, "step"), (math.inf, 0, 3, "step"), (0.0, 0, 3, "step"),
    (-0.25, 0, 3, "step"), (True, 0, 3, "step"), ("0.25", 0, 3, "step"),
    (0.25, -1, 3, "start"), (0.25, 1.5, 3, "start"), (0.25, 2.0, 3, "start"),
    (0.25, True, 3, "start"), (0.25, 0, 2.5, "count"), (0.25, 0, 0, "count"),
    (0.25, 0, False, "count"),
])
def test_uniform_grid_rejects_what_is_not_a_grid(step, start, count, name):
    """A finite positive step, a whole start >= 0 and a whole count >= 1."""
    with pytest.raises(ValueError, match=name):
        UniformGrid(step, start, count)


@pytest.mark.filterwarnings("error")  # and no overflow warning on the way
@pytest.mark.parametrize("grid", [UniformGrid(1e300, 0, 3), UniformGrid(1e290, 10 ** 10, 1)])
@pytest.mark.parametrize("cls", GRID_VALUES)
def test_grid_whose_phases_overflow_raises(cls, grid):
    """A grid of finite times whose phase lam t overflows on an h = 1e10
    chain raises, in the minors and in every class (omega1 through its
    cosine series), from its block offsets' plan (step 1e300) or from its
    anchors (1e290 * 1e10), and a grid that works still evaluates after it."""
    dec = decompose_chain(build_chain(8, 2, 1e10))
    with pytest.raises(ValueError, match="finite"):
        GRID_VALUES[cls](dec, grid)
    with pytest.raises(ValueError, match="finite"):
        propagator_minor_grid(dec, (8,), (1,), grid)
    want = propagator_minor_grid(dec, (8,), (1,), (0.5, 1.0))
    np.testing.assert_allclose(propagator_minor_grid(dec, (8,), (1,), UniformGrid(0.5, 1, 2)),
                               want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("evaluate", [
    *(pytest.param(values, id=cls) for cls, values in GRID_VALUES.items()),
    pytest.param(lambda dec, ts: propagator_minor_grid(dec, (8,), (1,), ts), id="minor"),
])
@pytest.mark.parametrize("ts", [[[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]], 1.0],
                         ids=["row", "matrix", "scalar"])
def test_times_that_are_not_one_dimensional_raise(evaluate, ts):
    """An array of times must be 1-D: a nested one is not cut to its first
    row, and a scalar is not read as one time."""
    dec = decompose_chain(build_chain(8, 2, 5.0))
    with pytest.raises(ValueError, match="1-D"):
        evaluate(dec, ts)


def test_uniform_grid_takes_numpy_numbers():
    grid = UniformGrid(np.float64(0.25), np.int64(7), np.int32(3))
    assert (grid.step, grid.start, grid.count) == (0.25, 7, 3)
    assert type(grid.start) is int and type(grid.count) is int


def test_site_index_validation():
    dec = decompose_chain(build_chain(5))
    with pytest.raises(ValueError):
        amplitude_1p(dec, 0, 1, 1.0)
    with pytest.raises(ValueError):
        amplitude_1p(dec, 6, 1, 1.0)


@pytest.mark.parametrize("targets, sources, named", [
    ([], [1], "targets"), ([5], [], "sources"), ([], [], "targets"),
])
def test_empty_site_lists_are_named(targets, sources, named):
    """An empty minor is an error that names the empty list, not numpy's
    failure to reshape a table of size 0."""
    dec = decompose_chain(build_chain(5))
    with pytest.raises(ValueError, match=f"{named} must not be empty"):
        propagator_minor_grid(dec, targets, sources, (0.5, 1.0))


def test_time_reversal_symmetry():
    """Real symmetric H makes G(-t) the conjugate of G(t)."""
    dec = decompose_chain(build_chain(7, 2, 9.0))
    g_fwd = propagator_minor(dec, (3, 6), (1, 2), 4.2)
    g_bwd = propagator_minor(dec, (3, 6), (1, 2), -4.2)
    np.testing.assert_allclose(g_bwd, g_fwd.conj(), atol=1e-13)
