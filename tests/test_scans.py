"""Time-window maximization, field sweeps, and threshold searches."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from spinbus import (
    ScanRequest,
    SeededSampler,
    avg_fidelity_mc,
    build_chain,
    decompose_chain,
    default_t_max,
    field_sweep,
    max_over_time,
    omega1_values,
    sample_haar_2q,
    threshold_field,
)
from spinbus.fidelity import _sample_fidelities
from spinbus.scans import _CHUNK
from spinbus.spectral import UniformGrid


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


def test_grid_step_honours_spectral_range():
    req = ScanRequest(build_chain(7, 2, 20.0), fidelity_class="omega1", t_max=100.0)
    res = max_over_time(req)
    dec_range = 0.0
    from spinbus import decompose_chain
    dec_range = decompose_chain(req.chain).spectral_range
    assert res.grid_step <= np.pi / (4.0 * dec_range) + 1e-15


def test_thread_count_does_not_change_result():
    # five grid chunks, the last one partial, and t_max between grid points
    req = ScanRequest(build_chain(8, 2, 9.0), fidelity_class="general", t_max=6000.0)
    r1 = max_over_time(req)
    n_pts = math.floor(req.t_max / r1.grid_step) + 1
    assert n_pts > 4 * _CHUNK and (n_pts - 1) * r1.grid_step < req.t_max
    for threads in (2, 3, 8):
        rn = max_over_time(dataclasses.replace(req, threads=threads))
        assert (rn.t_star, rn.fbar_max) == (r1.t_star, r1.fbar_max)


def test_scan_memory_does_not_grow_with_the_window():
    """Chunks are reduced as they arrive: a scan never holds its whole grid."""
    def peak_bytes(t_max):
        req = ScanRequest(build_chain(8, 2, 9.0), fidelity_class="general", t_max=t_max)
        tracemalloc.start()
        try:
            max_over_time(req)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(100.0)  # first-call allocations of numpy and of the scan path
    short = peak_bytes(6000.0)  # five chunks
    assert peak_bytes(12000.0) <= 1.1 * short


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


def test_ties_resolve_to_earliest_time():
    from spinbus.scans import _chunk_best

    idx, v = _chunk_best(np.array([0.2, 0.7, 0.7 + 1e-14, 0.1]))
    assert idx == 1 and v == pytest.approx(0.7)
    idx, _ = _chunk_best(np.array([0.5, 0.5, 0.5, 0.5]))
    assert idx == 0


def test_refinement_never_loses_to_grid():
    req = ScanRequest(build_chain(7, 2, 12.0), fidelity_class="omega1",
                      t_max=2500.0)
    refined = max_over_time(req)
    n_pts = math.floor(req.t_max / refined.grid_step) + 1
    grid = omega1_values(decompose_chain(req.chain), UniformGrid(refined.grid_step, 0, n_pts))
    assert refined.fbar_max >= grid.max()


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


def test_threshold_scans_each_field_once(monkeypatch):
    from spinbus import scans

    fields = []
    scan = scans.max_over_time

    def counted(request):
        fields.append(request.chain.field)
        return scan(request)

    monkeypatch.setattr(scans, "max_over_time", counted)
    for target in (0.0, 0.8):
        fields.clear()
        res = threshold_field(_omega1_template(1000.0), (7,), target=target, h_cap=20.0)
        assert res[0].field is not None
        assert len(fields) == len(set(fields)), fields


@pytest.mark.parametrize("h_cap, h_resolution, top", [
    (0.16, 0.1, 1), (0.3, 0.1, 3), (0.25, 0.05, 5), (0.05, 0.1, 0),
])
def test_threshold_scans_no_field_above_the_cap(monkeypatch, h_cap, h_resolution, top):
    """The cap is the largest grid field at or below h_cap, never a rounded-up one."""
    from spinbus import scans

    fields = []
    scan = scans.max_over_time

    def recorded(request):
        fields.append(request.chain.field)
        return scan(request)

    monkeypatch.setattr(scans, "max_over_time", recorded)
    res = threshold_field(_omega1_template(100.0), (7,), target=1.0,
                          h_resolution=h_resolution, h_cap=h_cap)
    assert res[0].field is None
    assert max(fields) == top * h_resolution
    assert sorted(set(fields)) == sorted(fields) and max(fields) <= h_cap * (1 + 1e-9)


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


@pytest.mark.parametrize("name, value", [
    ("h_cap", math.inf), ("h_cap", math.nan), ("h_cap", 0.0),
    ("h_resolution", math.nan), ("h_resolution", math.inf), ("h_resolution", -0.1),
    ("h_resolution", 1e-320),  # h_cap / h_resolution overflows
])
def test_threshold_field_bounds_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        threshold_field(_omega1_template(100.0), (7,), **{name: value})


def test_threshold_ladder_start_must_not_overflow():
    """h_cap / h_resolution = 1e20 is finite; the ladder's first index 1 / h_resolution is not."""
    with pytest.raises(ValueError, match="h_cap=1e-300, h_resolution=1e-320"):
        threshold_field(_omega1_template(100.0), (7,), h_cap=1e-300, h_resolution=1e-320)
