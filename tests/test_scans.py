"""Time-window maximization, field sweeps, and threshold searches."""

import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest

from spinbus import (
    ScanRequest,
    ScanResult,
    SeededSampler,
    ThresholdResult,
    avg_fidelity_mc,
    build_chain,
    decompose_chain,
    default_t_max,
    field_sweep,
    max_over_time,
    sample_haar_2q,
    threshold_field,
)
from spinbus.bounds import interval_bound, onset_horizon, series, series_ceiling
from spinbus.fidelity import CLASSES, GRID_VALUES
from spinbus.reduced import _sample_fidelities
from spinbus.scans import _CHUNK, _COARSE_MARGIN, _GAP, _SEARCH_POINTS, _TIE_EPS, _chord_ceilings
from spinbus.spectral import UniformGrid


# a chunk size for the tests whose curves were picked for how they peak from
# chunk to chunk: the decision logic does not depend on the size
_SMALL_CHUNK = 32768


def _in_cells(req, cells):
    """req over a window of `cells` unrounded coarse steps sqrt(8 _COARSE_MARGIN / K):
    for cells not a whole number, its grid has ceil(cells) steps, the last
    ending on t_max."""
    k = interval_bound(decompose_chain(req.chain), req.fidelity_class)
    return dataclasses.replace(req, t_max=cells * math.sqrt(8.0 * _COARSE_MARGIN / k))


def test_two_site_swap_time():
    """The smallest chain transfers perfectly at t = pi/4."""
    req = ScanRequest(build_chain(2), fidelity_class="one-qubit", t_max=2.0)
    res = max_over_time(req)
    assert abs(res.t_star - np.pi / 4) < 1e-6
    assert res.fbar_max > 1 - 1e-10


def test_default_windows():
    assert default_t_max(7, "omega1") == pytest.approx(1.3e4)
    assert default_t_max(7, "omega2") == pytest.approx(1.3e4)
    assert default_t_max(7, "general") == pytest.approx(2.0e4)
    assert default_t_max(8, "general") == pytest.approx(6.0e4)
    assert default_t_max(9, "one-qubit") == pytest.approx(2.0e4)
    # no default window for what is not a chain length or a class
    for n_sites, fidelity_class, name in ((7, "bogus", "class"), (7, "Omega1", "class"),
                                          (7.5, "general", "n_sites"),
                                          (7.0, "general", "n_sites"),
                                          (True, "omega1", "n_sites"),
                                          (1, "general", "n_sites")):
        with pytest.raises(ValueError, match=name):
            default_t_max(n_sites, fidelity_class)


def test_coarse_step_does_not_shrink_with_the_field():
    """The coarse step comes from the curvature bound, not the spectral range,
    whose step pi/(4 * range) would shrink 25-fold from h = 0 to h = 200."""
    steps = []
    for h in (0.0, 20.0, 200.0):
        req = ScanRequest(build_chain(8, 2, h), fidelity_class="general", t_max=10.0)
        dec = decompose_chain(req.chain)
        curvature = interval_bound(dec, "general")
        steps.append(max_over_time(req).grid_step)
        assert steps[-1] == 10.0 / math.ceil(10.0 / math.sqrt(8.0 * _COARSE_MARGIN / curvature))
    assert max(steps) <= 1.1 * min(steps)


def test_curvature_allows_for_merged_frequencies():
    """The scan's K is interval_bound's, read off the merged series, plus what
    the merge's spread allows the average evaluated over the window; a chain
    with no coinciding frequencies gets interval_bound's K itself.  The
    coarse step is set by interval_bound's K either way."""
    from spinbus import scans

    plain = decompose_chain(build_chain(7, 2, 5.0))
    assert series(plain, "general").spread == 0.0
    bound = scans._Bound(plain, "general", 2.0e4)
    assert bound.curvature == interval_bound(plain, "general")
    merged = decompose_chain(build_chain(8, 2, 20.0))  # its bulk mode at +-2 merges
    k = interval_bound(merged, "general")
    bound = scans._Bound(merged, "general", 6.0e4)
    assert series(merged, "general").spread > 0.0
    assert k < bound.curvature < k * (1.0 + 1e-6)
    assert bound.step == 6.0e4 / math.ceil(6.0e4 / math.sqrt(8.0 * _COARSE_MARGIN / k))


def test_thread_count_does_not_change_result():
    """A sweep's fields and a search's lengths give the same rows at any thread
    count, over five grid chunks, the last one partial and ending on t_max."""
    req = ScanRequest(build_chain(8, 2, 9.0), fidelity_class="general")
    req = _in_cells(req, 4.5 * _CHUNK + 0.3)
    r1 = max_over_time(req)
    n_pts = round(req.t_max / r1.grid_step) + 1
    assert n_pts > 4 * _CHUNK and (n_pts - 1) * r1.grid_step == pytest.approx(req.t_max, rel=1e-15)
    fields = (9.0, 0.0, 20.0)
    sweep = field_sweep(req, fields)
    assert sweep[0] == r1
    search = threshold_field(req, (7, 8, 9), target=0.9, h_resolution=1.0, h_cap=16.0)
    assert all(r.field is not None for r in search)
    for threads in (2, 3, 8):
        rn = max_over_time(dataclasses.replace(req, threads=threads))
        assert (rn.t_star, rn.fbar_max) == (r1.t_star, r1.fbar_max)
        assert field_sweep(dataclasses.replace(req, threads=threads), fields) == sweep
        assert threshold_field(dataclasses.replace(req, threads=threads), (7, 8, 9),
                               target=0.9, h_resolution=1.0, h_cap=16.0) == search


def test_a_scan_starts_no_thread(monkeypatch):
    """max_over_time evaluates its chunks on the calling thread whatever
    request.threads is, and a sweep of one field, a search of one length or
    either at one thread starts no pool."""
    before = threading.active_count()
    live = []
    values = GRID_VALUES["general"]

    def counted(dec, ts, *args):
        live.append(threading.active_count())
        return values(dec, ts, *args)

    monkeypatch.setitem(GRID_VALUES, "general", counted)
    req = _in_cells(ScanRequest(build_chain(8, 2, 9.0), fidelity_class="general", threads=8),
                    2.5 * _CHUNK)
    full = max_over_time(req)
    max_over_time(req, full.fbar_max)
    field_sweep(req, (9.0,))
    threshold_field(req, (8,), target=0.9, h_resolution=2.0, h_cap=8.0)
    one = dataclasses.replace(req, threads=1)
    field_sweep(one, (0.0, 9.0))
    threshold_field(one, (7, 8), target=0.9, h_resolution=2.0, h_cap=8.0)
    assert len(live) > 10 and set(live) == {before}


def test_onset_table_is_built_once_across_threads(monkeypatch):
    """A scan builds the onset table at most once, whatever its thread count,
    and only when its search reaches below the onset horizon; the table is
    then read, not rebuilt."""
    from spinbus import scans

    calls = []
    onset = scans.onset_curvature

    def counted(*args):
        calls.append(args)
        return onset(*args)

    monkeypatch.setattr(scans, "onset_curvature", counted)
    # the bare N = 7 chain's omega2 average peaks within _COARSE_MARGIN of its
    # start value, so some of this scan's ceiling calls reach below the horizon
    near = max_over_time(ScanRequest(build_chain(7, 2), fidelity_class="omega2", t_max=100.0,
                                     threads=8))
    assert near.fbar_max - 0.5 < _COARSE_MARGIN and len(calls) == 1
    # at N = 20 over 200 the start lies more than _COARSE_MARGIN below the best,
    # so no coarse cell near it is searched, and the scan never reaches below
    calls.clear()
    far = max_over_time(ScanRequest(build_chain(20, 2), fidelity_class="omega2", t_max=200.0,
                                    threads=8))
    assert far.fbar_max - 0.5 > _COARSE_MARGIN and calls == []
    # two search intervals of 0.4 from the start, within its first two coarse
    # cells, where the onset bound is far below 1e-12
    bound = scans._Bound(decompose_chain(build_chain(20, 2)), "omega2", 100.0)
    assert 0.4 < bound.step <= 0.8
    ts = np.array([[0.0, 0.4], [0.4, 0.8]])
    fs = np.full((2, 2), 0.5)
    tops = [bound.ceilings(ts, fs) for _ in range(3)]
    assert len(calls) == 1
    assert all(np.array_equal(top, tops[0]) for top in tops)
    assert np.all(tops[0] < 0.5 + 1e-12)  # the onset bound, not K, at the start


def test_the_onset_table_stops_at_the_window(monkeypatch):
    """The onset table holds no coarse point past the window's last, however
    far the onset horizon lies beyond it: a window of 1e-300 is scanned from
    its two points, and one of 1e-5 builds a table of two entries."""
    from spinbus import scans

    sizes = []
    onset = scans.onset_curvature

    def counted(dec, fidelity_class, ts):
        sizes.append(len(ts))
        return onset(dec, fidelity_class, ts)

    monkeypatch.setattr(scans, "onset_curvature", counted)
    res = max_over_time(ScanRequest(build_chain(7, 2, 5.0), t_max=1e-300))
    assert (res.t_star, res.fbar_max) == pytest.approx((0.0, 0.25), abs=1e-15)
    res = max_over_time(ScanRequest(build_chain(7, 2, 5.0), t_max=1e-5))
    assert (res.t_star, res.fbar_max) == pytest.approx((0.0, 0.25), abs=1e-15)
    assert sizes and max(sizes) <= 2


_CEILING_CHAINS = (build_chain(8, 2, 20.0), build_chain(7, 2, 0.0),
                   build_chain(7, profile="engineered"))


@pytest.mark.parametrize("fidelity_class", ["general", "omega1", "omega2", "one-qubit"])
@pytest.mark.parametrize("chain", _CEILING_CHAINS, ids=["n8-h20", "n7-h0", "engineered"])
def test_an_interval_never_rises_above_its_chord_ceiling(fidelity_class, chain):
    """About 200 random intervals, widths from 1e-6 to the coarse step, a third
    of them below the onset horizon: the average at 2001 points inside each
    stays within rounding of its ceiling, the chord plus K (t - lo)(hi - t)/2
    at its top; that ceiling is never above max(ends) + K w^2/8, and is
    max(ends) itself once |f_hi - f_lo| >= K w^2/2.  N = 8 at h = 20 has a
    merged series with a spread, so K there carries its allowance."""
    from spinbus import scans

    dec = decompose_chain(chain)
    t_max = 200.0
    bound = scans._Bound(dec, fidelity_class, t_max)
    evaluate = GRID_VALUES[fidelity_class]
    rng = np.random.default_rng(1972)
    horizon = min(onset_horizon(dec, fidelity_class), t_max)
    tighter = 0
    for count, reach in ((70, horizon), (130, t_max)):
        widths = np.minimum(1e-6 * (bound.step / 1e-6) ** rng.uniform(0.0, 1.0, count), reach)
        lo = rng.uniform(0.0, 1.0, count) * (reach - widths)
        ts = np.stack((lo, lo + widths), axis=1)
        inside = ts[:, :1] + (ts[:, 1:] - ts[:, :1]) * np.linspace(0.0, 1.0, 2001)
        values = evaluate(dec, inside.ravel()).reshape(inside.shape)
        fs = values[:, [0, -1]]
        top = bound.ceilings(ts, fs)
        # the same K with both ends at 0: K w^2/8
        margin = bound.ceilings(ts, np.zeros_like(fs))
        assert np.all(values.max(axis=1) <= top + 1e-13)
        higher = fs.max(axis=1)
        assert np.all(top <= higher + margin)
        steep = np.abs(fs[:, 1] - fs[:, 0]) >= 4.0 * margin
        assert np.array_equal(top[steep], higher[steep])
        tighter += np.count_nonzero(top < higher + margin)
    assert tighter > 0


def test_a_degenerate_interval_is_its_higher_end():
    """An interval of zero width, or one whose K is 0, has its higher end as
    ceiling, with no division by zero and no RuntimeWarning."""
    import warnings

    from spinbus import scans

    ts = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 3.0], [0.0, 0.0]])
    fs = np.array([[0.25, 0.5], [0.5, 0.5], [0.75, 0.25], [0.3, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(scans._chord_ceilings(ts[[0, 1, 3]], fs[[0, 1, 3]], 5.0)) == [0.5, 0.5, 0.3]
        assert list(scans._chord_ceilings(ts, fs, 0.0)) == [0.5, 0.5, 0.75, 0.3]
        assert list(scans._chord_ceilings(ts, fs, np.zeros(4))) == [0.5, 0.5, 0.75, 0.3]
        bound = scans._Bound(decompose_chain(build_chain(7, 2, 5.0)), "general", 100.0)
        assert list(bound.ceilings(ts[[0, 1, 3]], fs[[0, 1, 3]])) == [0.5, 0.5, 0.3]


def test_a_long_bare_window_is_certified():
    """The uniform N = 7 chain at h = 0 over 1e5: its chunks' searches fit the
    scan's budget, and the scan finds the window maximum near t = 58176.76, 2.2e-6
    above the peak near t = 20807.68, which a search stopped by its budget
    reports."""
    res = max_over_time(ScanRequest(build_chain(7, 2, 0.0), "general", 1.0e5))
    assert res.capped is False
    assert res.fbar_max >= 0.3387631761
    assert res.t_star == pytest.approx(58176.762, abs=1e-3)


@pytest.mark.parametrize("t_max", [2.0e5, 3.0e5])
def test_a_long_bare_scan_is_certified_whatever_its_chunks(monkeypatch, t_max):
    """A scan's chunks draw on one search budget, sized by its window: the
    uniform N = 7, h = 0 general scan is certified in chunks of 32768, 131072
    or 262144 points alike, and reads one maximum."""
    from spinbus import scans

    results = []
    for chunk in (_SMALL_CHUNK, 4 * _SMALL_CHUNK, 8 * _SMALL_CHUNK):
        monkeypatch.setattr(scans, "_CHUNK", chunk)
        results.append(max_over_time(ScanRequest(build_chain(7, 2, 0.0), "general", t_max)))
    assert [res.capped for res in results] == [False, False, False]
    values = [res.fbar_max for res in results]
    assert max(values) - min(values) <= 1e-11


def test_scan_memory_does_not_grow_with_the_window():
    """Chunks are reduced as they arrive: a scan never holds its whole grid."""
    req = ScanRequest(build_chain(8, 2, 9.0), fidelity_class="general", t_max=100.0)
    max_over_time(req)  # the first-call allocations of the scan path

    def peak_bytes(chunks):
        # the last chunk half full
        scan = _in_cells(req, (chunks - 0.5) * _CHUNK)
        tracemalloc.start()
        try:
            max_over_time(scan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(10) <= 1.1 * peak_bytes(5)


def _record_grids(monkeypatch, fidelity_class):
    """Patch the class's GRID_VALUES to record the times of its calls; return the list."""
    calls = []
    values = GRID_VALUES[fidelity_class]

    def recorded(dec, ts, *args):
        calls.append(ts)
        return values(dec, ts, *args)

    monkeypatch.setitem(GRID_VALUES, fidelity_class, recorded)
    return calls


@pytest.mark.parametrize("fidelity_class, n_sites, field, t_max", [
    ("general", 8, 20.0, 6.0e4), ("omega1", 7, 5.2, 1.3e4), ("one-qubit", 9, 0.0, 123.4),
    ("omega2", 7, 2.0, 3.3),
])
def test_the_coarse_grid_ends_on_t_max(monkeypatch, fidelity_class, n_sites, field, t_max):
    """The coarse grid is the fewest equal steps no longer than
    sqrt(8 _COARSE_MARGIN / K) that span the window, so its last point is
    t_max, and the chunks' grids tile it, each with the next one's first point."""
    calls = _record_grids(monkeypatch, fidelity_class)
    req = ScanRequest(build_chain(n_sites, 2, field), fidelity_class, t_max)
    res = max_over_time(req)
    widest = math.sqrt(8.0 * _COARSE_MARGIN / interval_bound(decompose_chain(req.chain),
                                                           fidelity_class))
    steps = math.ceil(t_max / widest)
    assert res.grid_step == t_max / steps <= widest
    assert res.grid_step * steps == pytest.approx(t_max, rel=1e-15)
    grids = [ts for ts in calls if isinstance(ts, UniformGrid)]
    assert [g.start for g in grids] == list(range(0, steps + 1, _CHUNK))
    assert {g.step for g in grids} == {res.grid_step}
    assert [g.start + g.count - 1 for g in grids] == [g.start for g in grids[1:]] + [steps]


@pytest.mark.parametrize("request_, t_star", [
    pytest.param(ScanRequest(build_chain(2), fidelity_class="one-qubit", t_max=0.75), 0.75,
                 id="at-the-end"),
    pytest.param(ScanRequest(build_chain(16, 2), fidelity_class="omega2", t_max=3.0), 0.0,
                 id="at-the-start"),
])
def test_a_maximum_on_the_grid_needs_no_one_point_call(monkeypatch, request_, t_star):
    """A window whose maximum lies at its end (the two-site swap, rising until
    pi/4) or at its start (before the arrival) is certified from its grid and
    searches: no evaluator call takes a single time."""
    calls = _record_grids(monkeypatch, request_.fidelity_class)
    res = max_over_time(request_)
    assert res.t_star == pytest.approx(t_star, abs=1e-15)
    assert calls and all(isinstance(ts, UniformGrid) or len(ts) > 1 for ts in calls)


def test_an_average_with_no_time_dependence_is_scanned_from_its_ends(monkeypatch):
    """K = 0 gives a coarse step of the whole window, not a division by zero,
    and the scan returns the constant value at t = 0."""
    from spinbus import scans

    monkeypatch.setattr(scans, "interval_bound", lambda dec, fidelity_class: 0.0)
    monkeypatch.setitem(GRID_VALUES, "omega2", lambda dec, ts: np.full(len(ts), 0.5))
    for t_max in (3.0, 2.0e4):
        res = max_over_time(ScanRequest(build_chain(16, 2, 200.0), fidelity_class="omega2",
                                        t_max=t_max))
        assert res.grid_step == t_max
        assert (res.t_star, res.fbar_max) == (0.0, 0.5)


def test_monte_carlo_memory_per_sample():
    """Scoring a sample costs a few rows of its amplitudes, not per-sample sector maps."""
    dec = decompose_chain(build_chain(8, 2, 9.0))
    samples = 40000
    avg_fidelity_mc(dec, 31.0, 100, SeededSampler(1))  # first-call allocations
    tracemalloc.start()
    try:
        avg_fidelity_mc(dec, 31.0, samples, SeededSampler(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * samples


def test_monte_carlo_draws_and_scores_in_one_lean_pass():
    """A general Monte Carlo call holds its draws, one float buffer and the
    scores: the normalization and the scorer work in place on row blocks."""
    dec = decompose_chain(build_chain(8, 2, 9.0))
    samples = 40000
    avg_fidelity_mc(dec, 31.0, 100, SeededSampler(1))  # first-call allocations
    tracemalloc.start()
    try:
        avg_fidelity_mc(dec, 31.0, samples, SeededSampler(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * samples


@pytest.mark.parametrize("state_class", ["omega1", "omega2"])
def test_slice_monte_carlo_draws_before_it_widens(state_class):
    """An omega1 or omega2 call draws its Haar pairs before it allocates the
    four-amplitude rows, so it peaks like a general call (96 B per sample),
    not with the draw's buffers beside the rows (112)."""
    dec = decompose_chain(build_chain(8, 2, 9.0))
    samples = 40000
    avg_fidelity_mc(dec, 31.0, 100, SeededSampler(1), state_class)  # first-call allocations
    tracemalloc.start()
    try:
        avg_fidelity_mc(dec, 31.0, samples, SeededSampler(1), state_class)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * samples


def test_monte_carlo_scorer_memory_is_flat_in_the_sample_count():
    """Samples are scored in fixed blocks: only the (k,) scores grow with k."""
    dec = decompose_chain(build_chain(8, 2, 9.0))
    draws = {k: sample_haar_2q(SeededSampler(1), size=k) for k in (100, 40000, 80000)}

    def peak_bytes(k):
        tracemalloc.start()
        try:
            _sample_fidelities(dec, draws[k], 31.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(100)  # first-call allocations
    assert peak_bytes(80000) - peak_bytes(40000) <= 16 * 40000


class _ToyBound:
    """The ceilings of a toy curve with |f''| <= 0.5, for the search's parts."""

    step = 0.25

    def __init__(self):
        # the scan's budget over the 17 points of _toy_chunk
        self.budget = _SEARCH_POINTS + 17
        self.capped = False

    @staticmethod
    def ceilings(ts, fs):
        return _chord_ceilings(ts, fs, 0.5)


def _toy_chunk(evaluate, bound):
    """The toy curve on [0, 4] as one chunk: its best point and its cells, in one batch."""
    ts = bound.step * np.arange(17)
    fs = evaluate(ts)
    i = int(np.argmax(fs))
    cells, ends = np.stack((ts[:-1], ts[1:]), axis=1), np.stack((fs[:-1], fs[1:]), axis=1)
    return ts[i], fs[i], [(cells, ends, bound.ceilings(cells, ends))]


def _toy_held(evaluate, bound):
    """A chunk search of the toy curve on [0, 4]: its best point, and the
    held list the search fills, with the best point held too."""
    from spinbus.scans import _refine

    held = []
    t, f = _refine(evaluate, bound, _toy_chunk(evaluate, bound), -math.inf, math.inf, held)
    held.append((np.array([[t, t]]), np.array([[f, f]]), np.array([f])))
    return (t, f), held


def _toy_search(evaluate):
    """A chunk search of the toy curve on [0, 4], then its earliest tie."""
    from spinbus.scans import _earliest

    bound = _ToyBound()
    best, held = _toy_held(evaluate, bound)
    return best, _earliest(evaluate, bound, held, best[1] - _TIE_EPS)


def test_ties_resolve_to_earliest_time():
    """Of two peaks 1e-14 apart, or of equal height, the earlier is reported,
    with its own value, though the search's best is the higher."""
    def near(ts):  # peaks 0.7 at t = 1 and 0.7 + 1e-14 at t = 3
        return 0.7 - 0.1 * np.sin(np.pi * (ts - 1.0) / 2.0) ** 2 + 1e-14 * (ts - 1.0) / 2.0

    (t, f), tie = _toy_search(near)
    assert t == 3.0 and f == near(np.array([3.0]))[0] > 0.7
    assert (tie, near(np.array([tie]))[0]) == (1.0, 0.7)

    def equal(ts):  # peaks 0.5 at t = 1 and t = 3
        return 0.5 - 0.1 * np.sin(np.pi * (ts - 1.0) / 2.0) ** 2

    best, tie = _toy_search(equal)
    assert (best, (tie, equal(np.array([tie]))[0])) == ((1.0, 0.5), (1.0, 0.5))


@pytest.mark.parametrize("threads", [1, 3])
def test_perfect_revivals_report_the_first(threads):
    """An engineered chain transfers perfectly at t = pi/4 and every 2 pi after;
    every revival lies within rounding of the first, in three chunks."""
    req = ScanRequest(build_chain(7, profile="engineered"), fidelity_class="one-qubit",
                      t_max=10.0, threads=threads)
    assert abs(max_over_time(req).t_star - np.pi / 4) < 1e-5
    req = _in_cells(req, 2.5 * _CHUNK)
    full = max_over_time(req)
    assert abs(full.t_star - np.pi / 4) < 1e-5 and full.fbar_max > 1.0 - 1e-12
    # a decision scan just below the maximum stops at a later revival
    hit = max_over_time(req, reach=full.fbar_max - 2e-12)
    assert hit.t_star > np.pi


def _dense_maximum(dec, fidelity_class, t_max, step):
    """Brute-force window maximum, with no use of the curvature bound: a dense
    grid, then a fine local grid around every local maximum of it that comes
    within 1e-4 of its top.  The curves here have |q''| < 200 (second
    differences in test_fidelity show it), so a step of 2e-3 misses a peak's
    top by less than 1e-4."""
    evaluate = GRID_VALUES[fidelity_class]
    n = math.floor(t_max / step) + 1
    values = evaluate(dec, step * np.arange(n))
    padded = np.concatenate(([-np.inf], values, [-np.inf]))
    peaks = np.flatnonzero((values >= padded[:-2]) & (values >= padded[2:])
                           & (values >= values.max() - 1e-4))
    best = -math.inf
    for i in peaks:
        ts = np.linspace(max(step * (i - 1), 0.0), min(step * (i + 1), t_max), 40001)
        best = max(best, float(evaluate(dec, ts).max()))
    return best


@pytest.mark.parametrize("fidelity_class, n_sites, field", [
    ("general", 7, 12.0), ("omega1", 8, 4.0), ("omega2", 7, 2.0), ("one-qubit", 9, 6.0),
])
def test_scan_is_within_its_gap_of_a_brute_force_maximum(fidelity_class, n_sites, field):
    """The certified value lies within _GAP below the window maximum, found here
    by a dense grid (step 2e-3) polished on a 1e-7 grid, and t_star within
    _TIE_EPS of it."""
    req = ScanRequest(build_chain(n_sites, 2, field), fidelity_class=fidelity_class, t_max=300.0)
    res = max_over_time(req)
    reference = _dense_maximum(decompose_chain(req.chain), fidelity_class, req.t_max, 2e-3)
    assert reference - _GAP - 1e-13 <= res.fbar_max <= reference + 1e-13
    value = GRID_VALUES[fidelity_class](decompose_chain(req.chain), np.array([res.t_star]))
    assert res.fbar_max - _TIE_EPS <= value[0] <= res.fbar_max + _GAP


@pytest.mark.parametrize("fidelity_class, n_sites, t_max", [
    ("omega2", 16, 3.0), ("general", 16, 3.0), ("omega2", 40, 2.0),
])
def test_window_before_the_arrival_is_cheap(monkeypatch, fidelity_class, n_sites, t_max):
    """Before the arrival time the average stays within rounding of its t = 0
    value, its maximum; the onset bound certifies that from a few points, where
    the global bound alone needed millions."""
    points = []
    values = GRID_VALUES[fidelity_class]

    def counted(dec, ts):
        points.append(len(ts))
        return values(dec, ts)

    monkeypatch.setitem(GRID_VALUES, fidelity_class, counted)
    res = max_over_time(ScanRequest(build_chain(n_sites, 2), fidelity_class=fidelity_class,
                                    t_max=t_max))
    assert res.t_star == 0.0
    assert 0 < sum(points) < 2000


def test_search_stops_at_its_point_budget(monkeypatch):
    """Across a strong barrier a short window's maximum is the t = 0 value, and
    the curve leaves it by about 1e-9 over the window: certifying that to
    _GAP would take millions of points, so the search stops at its budget,
    _SEARCH_POINTS plus one point per coarse point, and the result says so."""
    calls = []
    values = GRID_VALUES["omega2"]

    def counted(dec, ts):
        calls.append(ts)
        return values(dec, ts)

    monkeypatch.setitem(GRID_VALUES, "omega2", counted)
    res = max_over_time(ScanRequest(build_chain(8, 2, 200.0), fidelity_class="omega2",
                                    t_max=5.0))
    assert res.t_star == 0.0 and abs(res.fbar_max - 0.5) < 1e-12
    coarse = sum(len(ts) for ts in calls if isinstance(ts, UniformGrid))
    search = sum(len(ts) for ts in calls if not isinstance(ts, UniformGrid))
    assert _SEARCH_POINTS + coarse <= search < _SEARCH_POINTS + coarse + 4096 and coarse < 100
    assert res.capped


def _off_grid(ts):
    """Peaks 0.5 at t = 0.9 and 0.5 + 8e-13 at t = 3.3, both between the toy grid's points."""
    return 0.5 - 0.1 * np.sin(np.pi * (ts - 0.9) / 2.4) ** 2 + 8e-13 * (ts - 0.9) / 2.4


@pytest.mark.parametrize("chunk_budget, tie_budget, capped", [
    (None, None, (False, False)), (0, None, (True, True)), (None, 0, (False, True)),
])
def test_a_search_stopped_at_its_budget_sets_capped(monkeypatch, chunk_budget, tie_budget,
                                                     capped):
    """Two peaks between grid points, the later 8e-13 higher: the chunk's
    search (165 points, drawn from the scan's budget) and the search for its
    earliest tie (1 point, on the earlier peak, where no end it held comes
    within _TIE_EPS, and its own _SEARCH_POINTS) each set capped when their
    budget (None: the default) stops them with intervals left; once set, it
    stays."""
    from spinbus import scans

    bound = _ToyBound()
    if chunk_budget is not None:
        bound.budget = chunk_budget
    (_, f), held = _toy_held(_off_grid, bound)
    after_chunk = bound.capped
    if tie_budget is not None:
        monkeypatch.setattr(scans, "_SEARCH_POINTS", tie_budget)
    scans._earliest(_off_grid, bound, held, f - _TIE_EPS)
    assert (after_chunk, bound.capped) == capped


def test_chunk_searches_draw_on_one_budget():
    """A scan's chunks share one search budget: a budget of the 165 points one
    search of the toy curve needs is spent by it, uncapped, and a second
    chunk's search of the same scan then stops at once with intervals left."""
    bound = _ToyBound()
    bound.budget = 165
    _toy_held(_off_grid, bound)
    assert (bound.budget, bound.capped) == (0, False)
    _toy_held(_off_grid, bound)
    assert (bound.budget, bound.capped) == (0, True)


def test_a_revival_every_half_pi_reports_capped():
    """The engineered chain's general average revives every pi/2: certifying
    each revival over 2e4 takes more than the scan's search budget."""
    req = ScanRequest(build_chain(7, profile="engineered"), "general", 2.0e4)
    assert max_over_time(req).capped


def test_figure_rows_are_not_capped():
    """Every scan behind a row of Fig. 4a, 4b and 5 is certified to _GAP, and
    the average at its t_star lies in [fbar_max - _TIE_EPS, fbar_max + _GAP]."""
    requests = [ScanRequest(build_chain(n_sites, 2, h), "general", t_max)
                for n_sites, t_max in ((7, 2.0e4), (8, 6.0e4))
                for h in (0.0, 2.0, 5.0, 10.0, 15.0, 20.0)]
    requests += [ScanRequest(build_chain(n_sites, 2, h), "omega1", 1.3e4)
                 for n_sites, h in zip(range(7, 12), (5.2, 7.1, 5.9, 7.1, 6.0))]
    for req in requests:
        res = max_over_time(req)
        value = GRID_VALUES[req.fidelity_class](decompose_chain(req.chain), np.array([res.t_star]))
        assert not res.capped
        assert res.fbar_max - _TIE_EPS <= value[0] <= res.fbar_max + _GAP


@pytest.mark.parametrize("n_sites, field, fidelity_class, t_max, at_least", [
    (9, 0.0, "omega1", 1.3e4, 0.691243),  # the pi/(4 * range) grid reported 0.690058
    (8, 20.0, "general", 6.0e4, 0.9907934),  # and golden section stopped at 0.9907809
    (8, 200.0, "general", 6.0e4, 0.9782461),  # and the grid walked 30.7M points
])
def test_scan_finds_the_window_maxima_the_grid_missed(n_sites, field, fidelity_class, t_max,
                                                      at_least):
    req = ScanRequest(build_chain(n_sites, 2, field), fidelity_class=fidelity_class, t_max=t_max)
    assert max_over_time(req).fbar_max >= at_least


def test_bare_even_chain_peaks_late_in_the_window():
    """N = 8 at h = 0: the maximum over 6e4 is at t = 25161, not at 5287.3,
    where the pi/(4 * range) grid put it."""
    res = max_over_time(ScanRequest(build_chain(8, 2), fidelity_class="general", t_max=6.0e4))
    assert abs(res.t_star - 25161.0) < 1.0


def test_one_qubit_scan_bounds_the_average_itself(monkeypatch):
    """The one-qubit bound is taken on the average, whose kink at f = 0 is
    convex, so its K is 8/3 on the uniform N = 9 chain and its scan over 2e4
    evaluates under 50k points (83k with K = 13.5 on |f|^2)."""
    points = []
    values = GRID_VALUES["one-qubit"]

    def counted(dec, ts):
        points.append(len(ts))
        return values(dec, ts)

    monkeypatch.setitem(GRID_VALUES, "one-qubit", counted)
    max_over_time(ScanRequest(build_chain(9), fidelity_class="one-qubit", t_max=2.0e4))
    assert 0 < sum(points) < 50_000


@pytest.mark.parametrize("field", [20.0, 200.0])
def test_strong_field_scans_stay_cheap(monkeypatch, field):
    """The coarse step does not shrink with the field, so N = 8 over 6e4
    evaluates under 2M points at h = 20 and at h = 200."""
    points = []
    values = GRID_VALUES["general"]

    def counted(dec, ts):
        points.append(len(ts))
        return values(dec, ts)

    monkeypatch.setitem(GRID_VALUES, "general", counted)
    req = ScanRequest(build_chain(8, 2, field), fidelity_class="general", t_max=6.0e4)
    max_over_time(req)
    assert 0 < sum(points) < 2_000_000


def test_field_sweep_orders_results():
    req = ScanRequest(build_chain(7, 2, 5.0), fidelity_class="omega1",
                      t_max=1500.0)
    fields = [0.0, 5.0, 12.0]
    results = field_sweep(req, fields)
    assert [r.field for r in results] == fields
    # strong barriers help on this window
    assert results[2].fbar_max > results[0].fbar_max + 0.2


def _omega1_template(t_max, **kwargs):
    # threshold_field replaces the chain length and field
    return ScanRequest(build_chain(7, 2), fidelity_class="omega1", t_max=t_max, **kwargs)


def test_threshold_zero_target_is_free():
    res = threshold_field(_omega1_template(200.0), (7,), target=0.0)
    assert res[0].field == 0.0


def test_threshold_unreachable_reports_none():
    # nothing below h=0.5 reaches 0.999 on such a short window
    res = threshold_field(_omega1_template(300.0), (7,), target=0.999, h_cap=0.5)
    assert res[0].field is None
    assert res[0].fbar_max < 0.999


def test_threshold_known_value():
    res = threshold_field(_omega1_template(4000.0, threads=2), (7,), target=0.9,
                          h_cap=30.0)
    assert res[0].field == pytest.approx(3.1, abs=0.2)
    assert res[0].fbar_max >= 0.9


def _record_scans(monkeypatch):
    """Patch scans.max_over_time to record (field, reach, result) of every
    scan; return the list."""
    from spinbus import scans

    made = []
    scan = scans.max_over_time

    def recorded(request, reach=None):
        result = scan(request, reach)
        made.append((request.chain.field, reach, result))
        return result

    monkeypatch.setattr(scans, "max_over_time", recorded)
    return made


def test_threshold_scans_each_field_once(monkeypatch):
    """Each field is decided at most once, and the only full scan is the
    found field's, whose result is the row."""
    made = _record_scans(monkeypatch)
    for target in (0.0, 0.8):
        made.clear()
        res = threshold_field(_omega1_template(1000.0), (7,), target=target, h_cap=20.0)
        assert res[0].field is not None
        decided = [h for h, reach, _ in made if reach is not None]
        assert len(set(decided)) == len(decided), made
        full = [(h, result) for h, reach, result in made if reach is None]
        assert [h for h, _ in full] == [res[0].field], made
        assert (res[0].t_star, res[0].fbar_max) == (full[0][1].t_star, full[0][1].fbar_max)


@pytest.mark.parametrize("h_cap, h_resolution, top", [
    (0.16, 0.1, 1), (0.3, 0.1, 3), (0.25, 0.05, 5), (0.05, 0.1, 0),
])
def test_threshold_scans_no_field_above_the_cap(monkeypatch, h_cap, h_resolution, top):
    """The cap is the largest grid field at or below h_cap, never a rounded-up one."""
    made = _record_scans(monkeypatch)
    res = threshold_field(_omega1_template(100.0), (7,), target=1.0,
                          h_resolution=h_resolution, h_cap=h_cap)
    assert res[0].field is None
    # every field missed, so the row is the cap's full scan
    *decisions, (cap, reach, full) = made
    assert (cap, reach) == (top * h_resolution, None)
    assert (res[0].t_star, res[0].fbar_max) == (full.t_star, full.fbar_max)
    assert all(reach == 1.0 for _, reach, _ in decisions)
    fields = [h for h, _, _ in decisions]
    assert max(fields) == top * h_resolution
    assert sorted(set(fields)) == sorted(fields) and max(fields) <= h_cap * (1 + 1e-9)


def _threshold_by_full_scans(request, n_sites, target, h_resolution, h_cap):
    """threshold_field's ladder and bisection, deciding every field by a full scan."""
    def scan(k):
        chain = dataclasses.replace(request.chain, n_sites=n_sites, field=k * h_resolution)
        return max_over_time(dataclasses.replace(request, chain=chain))

    k_cap = math.floor(h_cap / h_resolution * (1 + 1e-9))
    lo, hi = 0, None
    if scan(0).fbar_max >= target:
        hi = 0
    else:
        k = round(1.0 / h_resolution)
        while hi is None and lo < k_cap:
            k = min(k, k_cap)
            if scan(k).fbar_max >= target:
                hi = k
            else:
                lo, k = k, 2 * k
        while hi is not None and hi - lo > 1:
            mid = (lo + hi) // 2
            if scan(mid).fbar_max >= target:
                hi = mid
            else:
                lo = mid
    best = scan(k_cap if hi is None else hi)
    field = None if hi is None else hi * h_resolution
    return ThresholdResult(n_sites, field, best.t_star, best.fbar_max)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("fidelity_class, target, chunks", [
    pytest.param("omega1", 0.9, None, id="omega1-0.9"),
    pytest.param("general", 0.92, None, id="general-0.92"),
    pytest.param("omega1", 0.999, None, id="omega1-0.999"),
    pytest.param("general", 0.92, 2.5, id="general-0.92-2.5chunks"),
])
def test_decision_scans_match_full_scans(monkeypatch, fidelity_class, target, chunks,
                                         threads):
    """Decision scans that stop at their first hit give the search and the rows
    that full scans of every field give, also over 2.5 chunks of the coarse
    grid, where the field found at N = 7 first reaches the target past chunk 0
    (chunks of _SMALL_CHUNK points)."""
    from spinbus import scans

    request = ScanRequest(build_chain(7, 2), fidelity_class=fidelity_class,
                          t_max=6000.0, threads=threads)
    if chunks is not None:
        monkeypatch.setattr(scans, "_CHUNK", _SMALL_CHUNK)
        request = _in_cells(request, chunks * _SMALL_CHUNK)
    made = _record_scans(monkeypatch)
    got = threshold_field(request, (7, 8), target=target, h_resolution=0.5, h_cap=12.0)
    want = [_threshold_by_full_scans(request, n, target, 0.5, 12.0) for n in (7, 8)]
    assert got == want
    assert (got[0].field is None) == (target == 0.999)
    if chunks is not None:
        # the decision at N = 7 and the field found there, which the search made
        chain = dataclasses.replace(request.chain, field=got[0].field)
        hit = max_over_time(dataclasses.replace(request, chain=chain), target)
        assert (got[0].field, target, hit) in made
        assert hit.fbar_max >= target and hit.t_star >= _SMALL_CHUNK * hit.grid_step


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("fidelity_class, n_sites, field", [
    ("general", 7, 4.0), ("omega1", 8, 5.5),
])
def test_decision_scan_stops_at_its_first_hit(monkeypatch, fidelity_class, n_sites, field,
                                              threads):
    """A decision scan returns the first point it evaluates that reaches its
    value, in the first, a middle or the last chunk, and a point below the
    value exactly when the full scan's value is below it.  Over three chunks
    of _SMALL_CHUNK points each of these curves peaks higher in every chunk
    than in the one before."""
    from spinbus import scans

    monkeypatch.setattr(scans, "_CHUNK", _SMALL_CHUNK)
    req = _in_cells(ScanRequest(build_chain(n_sites, 2, field), fidelity_class=fidelity_class,
                                threads=threads), 3 * _SMALL_CHUNK - 1.5)
    full = max_over_time(req)
    step = full.grid_step
    n_pts = round(req.t_max / step) + 1
    n_chunks = -(-n_pts // _SMALL_CHUNK)
    dec = decompose_chain(req.chain)
    evaluate = GRID_VALUES[fidelity_class]

    def chunk_of(t):
        i = round(t / step)
        return min(i if step * i == t else math.floor(t / step), n_pts - 1) // _SMALL_CHUNK

    first_chunk = evaluate(dec, UniformGrid(step, 0, _SMALL_CHUNK)).max()
    assert chunk_of(full.t_star) == n_chunks - 1 >= 2
    chunks = set()
    for reach in np.linspace(first_chunk, full.fbar_max, 16):
        hit = max_over_time(req, reach)
        assert reach <= hit.fbar_max <= full.fbar_max
        assert abs(evaluate(dec, np.array([hit.t_star]))[0] - hit.fbar_max) <= 1e-9
        assert hit == max_over_time(dataclasses.replace(req, threads=1), reach)
        chunks.add(chunk_of(hit.t_star))
    assert {0, n_chunks - 1} <= chunks and len(chunks) >= 3
    # a decision at the full scan's value stops on its best point
    hit = max_over_time(req, full.fbar_max)
    assert hit.fbar_max == full.fbar_max
    miss = max_over_time(req, full.fbar_max + 1e-9)
    assert miss.fbar_max < full.fbar_max + 1e-9


@pytest.mark.parametrize("threads", [1, 3])
def test_a_miss_below_the_ceiling_walks_no_grid(monkeypatch, threads):
    """The omega1 average of the bare N = 7 chain never exceeds its series
    ceiling, 0.738, so a decision at 0.95 is a miss before any chunk is
    evaluated: it returns the one point it evaluates, t = 0."""
    req = ScanRequest(build_chain(7, 2, 0.0), fidelity_class="omega1", t_max=1.3e4,
                      threads=threads)
    dec = decompose_chain(req.chain)
    assert series_ceiling(dec, "omega1") < 0.74
    calls = _record_grids(monkeypatch, "omega1")
    miss = max_over_time(req, 0.95)
    assert [isinstance(ts, UniformGrid) for ts in calls] == [False]
    f0 = GRID_VALUES["omega1"](dec, np.zeros(1))[0]
    assert miss == ScanResult(0.0, 0.0, f0, "omega1", max_over_time(req).grid_step)
    assert miss.fbar_max < 0.95
    assert miss == max_over_time(dataclasses.replace(req, threads=1), 0.95)


def test_a_miss_the_ceiling_certifies_finds_no_onset_horizon(monkeypatch):
    """The onset horizon is found at a scan's first interval ceiling, so a
    decision the series ceiling settles never finds it, and a scan that walks
    its grid finds it once."""
    from spinbus import scans

    found = []
    horizon = scans.onset_horizon
    monkeypatch.setattr(scans, "onset_horizon",
                        lambda *args: found.append(args) or horizon(*args))
    req = ScanRequest(build_chain(7, 2, 0.0), fidelity_class="omega1", t_max=1.3e4)
    assert max_over_time(req, 0.95).t_star == 0.0
    assert found == []
    hit = max_over_time(dataclasses.replace(req, chain=build_chain(7, 2, 5.2)), 0.95)
    assert hit.fbar_max >= 0.95
    assert len(found) == 1


def test_a_reach_below_the_ceiling_walks_the_grid(monkeypatch):
    """A reach between the window maximum and the ceiling is not decided by
    the ceiling: the scan walks its grid and certifies the miss there.  Over
    a window of one and a half chunks of _SMALL_CHUNK points, as over a
    window long enough for two _CHUNK-point chunks the maximum comes within
    0.003 of the ceiling."""
    from spinbus import scans

    monkeypatch.setattr(scans, "_CHUNK", _SMALL_CHUNK)
    req = _in_cells(ScanRequest(build_chain(7, 2, 5.0), fidelity_class="omega1"),
                    1.5 * _SMALL_CHUNK)
    full = max_over_time(req)
    ceiling = series_ceiling(decompose_chain(req.chain), "omega1")
    assert full.fbar_max < ceiling - 0.005
    calls = _record_grids(monkeypatch, "omega1")
    miss = max_over_time(req, (full.fbar_max + ceiling) / 2.0)
    assert miss.fbar_max < (full.fbar_max + ceiling) / 2.0
    assert sum(isinstance(ts, UniformGrid) for ts in calls) == 2  # both chunks of the window


@pytest.mark.parametrize("fidelity_class, n_sites, field, t_max", [
    ("omega1", 7, 5.2, 1.3e4), ("general", 7, 12.0, 2.0e4),
])
def test_decisions_near_the_ceiling_match_the_full_scan(fidelity_class, n_sites, field,
                                                        t_max):
    """Reaches from 0.02 below the ceiling to 0.02 above it, hits, misses the
    grid certifies and misses the ceiling certifies, decide as the full scan's
    value does."""
    req = ScanRequest(build_chain(n_sites, 2, field), fidelity_class=fidelity_class,
                      t_max=t_max)
    full = max_over_time(req)
    ceiling = series_ceiling(decompose_chain(req.chain), fidelity_class)
    reaches = np.linspace(ceiling - 0.02, ceiling + 0.02, 9)
    assert reaches[0] < full.fbar_max < ceiling
    for reach in reaches:
        assert (max_over_time(req, reach).fbar_max >= reach) == (full.fbar_max >= reach)


def test_fig5_thresholds_do_not_depend_on_the_ceiling(monkeypatch):
    """The Fig. 5 search gives the same rows with no ceiling (+inf) as with it,
    though the ceiling decides 20 of its 52 fields without a grid."""
    from spinbus import scans

    request = _omega1_template(1.3e4)
    made = _record_scans(monkeypatch)
    got = threshold_field(request, range(7, 12))
    certified = [result for _, reach, result in made
                 if reach is not None and result.t_star == 0.0]
    assert (len(made), len(certified)) == (57, 20)
    assert sum(reach is None for _, reach, _ in made) == 5  # one full scan per row
    assert [r.field for r in got] == pytest.approx([5.2, 7.1, 5.9, 7.1, 6.0])
    monkeypatch.setattr(scans, "series_ceiling", lambda dec, fidelity_class: math.inf)
    assert threshold_field(request, range(7, 12)) == got


def test_a_cap_every_field_below_is_certified_at_is_scanned_in_full(monkeypatch):
    """When the ceiling decides every field up to the cap, the row is still
    the cap's full scan."""
    made = _record_scans(monkeypatch)
    res = threshold_field(_omega1_template(1.3e4), (7,), h_cap=4.0)
    *decisions, (cap, reach, full) = made
    assert [h for h, _, _ in decisions] == [0.0, 1.0, 2.0, 4.0]
    assert all(result.t_star == 0.0 for _, _, result in decisions)
    assert (cap, reach) == (4.0, None)
    assert full == max_over_time(dataclasses.replace(
        _omega1_template(1.3e4), chain=build_chain(7, 2, 4.0)))
    assert res == [ThresholdResult(7, None, full.t_star, full.fbar_max)]


def test_threshold_leaves_no_worker_threads(monkeypatch):
    """A search runs at most `threads` lengths at once, on a pool it shuts
    down before it returns."""
    from spinbus import scans

    before = threading.active_count()
    live = []
    scan = scans.max_over_time

    def counted(request, reach=None):
        result = scan(request, reach)
        live.append(threading.active_count())
        return result

    monkeypatch.setattr(scans, "max_over_time", counted)
    threshold_field(_omega1_template(8000.0, threads=2), (7, 8, 9), target=0.9,
                    h_resolution=0.5, h_cap=12.0)
    assert live and before < max(live) <= before + 2
    assert threading.active_count() == before


def test_request_validation():
    chain = build_chain(7, 2, 5.0)
    with pytest.raises(ValueError):
        ScanRequest(chain, fidelity_class="bogus")
    with pytest.raises(ValueError):
        ScanRequest(chain, t_max=0.0)
    for threads in (0, -1, 2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="threads"):
            ScanRequest(chain, threads=threads)
    assert ScanRequest(chain, threads=np.int64(2)).threads == 2
    # t_max is a real number: True would scan [0, 1] and "5" fail in np.isfinite
    for t_max in (True, "5", None, math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="t_max"):
            ScanRequest(chain, t_max=t_max)
    request = ScanRequest(chain, fidelity_class="omega1", t_max=np.float32(20.0))
    assert type(request.t_max) is float and request.t_max == 20.0
    # so is a decision scan's reach: a NaN one would return the coarse best unsearched
    for reach in (math.nan, True, "0.9"):
        with pytest.raises(ValueError, match="reach"):
            max_over_time(request, reach=reach)


@pytest.mark.parametrize("name, value", [
    ("h_cap", math.inf), ("h_cap", math.nan), ("h_cap", 0.0),
    ("h_resolution", math.nan), ("h_resolution", math.inf), ("h_resolution", -0.1),
    ("h_resolution", 1e-320),  # h_cap / h_resolution overflows
])
def test_threshold_field_bounds_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        threshold_field(_omega1_template(100.0), (7,), **{name: value})


@pytest.mark.parametrize("name, value", [
    ("target", True), ("target", "0.9"), ("target", None),
    ("h_resolution", True), ("h_resolution", "0.1"), ("h_cap", True), ("h_cap", "60"),
])
def test_threshold_arguments_are_real_numbers(name, value):
    """True would run as 1.0, and a string fail in a comparison."""
    with pytest.raises(ValueError, match=f"{name} must be a real number"):
        threshold_field(_omega1_template(100.0), (7,), **{name: value})


def test_threshold_ladder_start_must_not_overflow():
    """h_cap / h_resolution = 1e20 is finite; the ladder's first index 1 / h_resolution is not."""
    with pytest.raises(ValueError, match="h_cap=1e-300, h_resolution=1e-320"):
        threshold_field(_omega1_template(100.0), (7,), h_cap=1e-300, h_resolution=1e-320)


@pytest.mark.parametrize("cls", CLASSES)
def test_a_one_field_sweep_is_the_single_scan(cls):
    request = ScanRequest(build_chain(8, 2), cls, 300.0)
    chain = dataclasses.replace(request.chain, field=6.0)
    single = max_over_time(dataclasses.replace(request, chain=chain))
    assert field_sweep(request, [6.0])[0] == single


@pytest.mark.parametrize("reach", [None, 0.9])
def test_a_window_of_2_53_coarse_points_or_more_is_refused(reach):
    """Past 2**53 points a grid index is not exact as a float: refused before
    the series ceiling is asked or any chunk is evaluated."""
    request = ScanRequest(build_chain(7, 2, 5.0), "omega1", 1e300)
    k = interval_bound(decompose_chain(request.chain), "omega1")
    step = f"{math.sqrt(8.0 * _COARSE_MARGIN / k):.3g}"
    with pytest.raises(ValueError, match=rf"t_max = 1e\+300: its coarse grid, of step {step},"):
        max_over_time(request, reach)


def test_the_longest_window_the_gate_scans_still_scans():
    """N = 8 at h = 200 over 6.2e5: about 1.2e6 coarse points, far below 2**53."""
    result = max_over_time(ScanRequest(build_chain(8, 2, 200.0), "general", 6.2e5))
    assert 1e6 < 6.2e5 / result.grid_step < 2e6
    assert 0.0 < result.fbar_max <= 1.0
