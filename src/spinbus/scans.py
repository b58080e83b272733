"""Transfer-time and field scans: grid search, refinement, thresholds.

A scan evaluates an average-fidelity curve on a uniform time grid whose
spacing respects the fastest frequency in the dynamics (the spectral range of
the chain), takes the grid maximum with a smallest-time tie-break, and
refines the peak by golden-section search.  Every class is a
closed form in the propagator, so a scan holds no randomness.

The grid is cut into chunks of _CHUNK points anchored on the point index,
step * (k * _CHUNK + j), and no array of times is ever built: each chunk is
evaluated as a spectral.UniformGrid.  Chunks run `threads` at a time, each
is reduced to its best point where it is evaluated, and the bests are
combined in chunk order, so a scan holds at most one chunk of values per
thread (memory bounded by the chunk size, not by the window) and its result
is independent of the worker count.  An off-grid t_max is evaluated
as one extra point after the last chunk.

A scan given a value to reach is a decision scan: it stops at the first
chunk whose running best reaches that value, and a later scan can resume it
from the next chunk.  A threshold search only asks each field whether its
scan reaches the target, so its scans stop at their first hit; only the
field found is resumed to the end, so every row is the one a full scan gives.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .chain import ChainSpec, whole_number
from .fidelity import CLASSES, GRID_VALUES
from .spectral import UniformGrid, decompose_chain

_TIE_EPS = 1e-12
_CHUNK = 32768
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_REL_TOL = 1e-6
_CAP_SLACK = 1e-9


def default_t_max(n_sites: int, fidelity_class: str) -> float:
    """Scan windows: 1.3e4 for omega classes, else 2e4 (N odd) or 6e4 (N even)."""
    if fidelity_class in ("omega1", "omega2"):
        return 1.3e4
    return 2.0e4 if n_sites % 2 else 6.0e4


@dataclass(frozen=True)
class ScanRequest:
    """One maximum-fidelity search over a time window."""

    chain: ChainSpec
    fidelity_class: str = "general"
    t_max: float = 2.0e4
    threads: int = 1

    def __post_init__(self):
        if self.fidelity_class not in CLASSES:
            raise ValueError(f"unknown fidelity class {self.fidelity_class!r}")
        if not np.isfinite(self.t_max) or self.t_max <= 0:
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")
        # a float would reach range() in the thread pool; True would run as 1
        whole_number("threads", self.threads, 1)


@dataclass(frozen=True)
class ScanResult:
    """Maximum found by a scan."""

    field: float
    t_star: float
    fbar_max: float
    fidelity_class: str
    grid_step: float


def _chunk_best(vals):
    # smallest index wins among values within _TIE_EPS of the chunk maximum
    top = vals.max()
    idx = int(np.flatnonzero(vals >= top - _TIE_EPS)[0])
    return idx, float(vals[idx])


def _in_waves(run, items, threads):
    """run(item) for each item, yielded in order, at most `threads` held at once."""
    if threads == 1 or len(items) == 1:
        yield from map(run, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for w in range(0, len(items), threads):
            yield from pool.map(run, items[w:w + threads])


def _golden_refine(evaluate, lo, hi, tol):
    a, b = lo, hi
    while b - a > tol:
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = evaluate(np.array([c, d]))
        if fc >= fd:
            b = d
        else:
            a = c
    mid = 0.5 * (a + b)
    return mid, float(evaluate(np.array([mid]))[0])


def max_over_time(request: ScanRequest, reach: float | None = None,
                  resume: ScanResult | None = None) -> ScanResult:
    """Maximize the requested average fidelity over t in [0, t_max].

    With reach given, this is a decision scan: it stops at the first chunk
    whose running best is at least reach and returns that running best,
    skipping the rest of the grid, the end point and the refinement, which
    could only raise it.  Its fbar_max therefore reaches reach exactly when a
    full scan's does; a scan that never reaches it is the full scan.

    resume is such a stopped decision scan of the same request.  Its best
    point lies in the chunk where it stopped, so the scan goes on from the
    next chunk with that running best and returns the full scan's result.
    """
    dec = decompose_chain(request.chain)
    evaluate = partial(GRID_VALUES[request.fidelity_class], dec)

    spread = max(dec.spectral_range, 1e-9)
    step = math.pi / (4.0 * spread)
    n_pts = int(math.floor(request.t_max / step)) + 1

    def run_chunk(start):
        # reduced where it is evaluated: a wave holds bests, not chunk values
        return _chunk_best(evaluate(UniformGrid(step, start, min(_CHUNK, n_pts - start))))

    def result():
        return ScanResult(request.chain.field, best_t, best_f, request.fidelity_class, step)

    best_t, best_f, first = 0.0, -math.inf, 0
    if resume is not None:
        best_t, best_f = resume.t_star, resume.fbar_max
        first = (round(best_t / step) // _CHUNK + 1) * _CHUNK
    starts = range(first, n_pts, _CHUNK)
    # closing: a decision scan that stops early shuts its thread pool down here
    with closing(_in_waves(run_chunk, starts, request.threads)) as bests:
        for start, (idx, f_c) in zip(starts, bests):
            if f_c > best_f + _TIE_EPS:
                best_t, best_f = step * (start + idx), f_c
                if reach is not None and best_f >= reach:
                    return result()
    if step * (n_pts - 1) < request.t_max:
        f_end = float(evaluate(np.array([request.t_max]))[0])
        if f_end > best_f + _TIE_EPS:
            best_t, best_f = request.t_max, f_end

    tol = _REFINE_REL_TOL * max(best_t, 1.0)
    lo = max(best_t - step, 0.0)
    hi = min(best_t + step, request.t_max)
    t_ref, f_ref = _golden_refine(evaluate, lo, hi, tol)
    if f_ref > best_f:
        best_t, best_f = t_ref, f_ref
    return result()


def field_sweep(request: ScanRequest, fields) -> list[ScanResult]:
    """max_over_time at each barrier field value, same chain otherwise."""
    return [max_over_time(replace(request, chain=replace(request.chain, field=float(h))))
            for h in fields]


@dataclass(frozen=True)
class ThresholdResult:
    """Smallest field reaching a target fidelity for one chain length.

    field is None when the target is unreachable below the cap; fbar_max and
    t_star then describe the best scan at the cap.
    """

    n_sites: int
    field: float | None
    t_star: float
    fbar_max: float


def threshold_field(request: ScanRequest, n_sites_values, target: float = 0.95,
                    h_resolution: float = 0.1, h_cap: float = 60.0) -> list[ThresholdResult]:
    """Smallest barrier field whose max-over-time fidelity reaches the target.

    request is the template of every scan: its chain's block, profile and
    ballistic prefactor, its class, window and threads; the chain length runs
    over n_sites_values and the field over the grid h = k*h_resolution up to
    h_cap.  The search brackets on a doubling ladder plus bisection, assuming
    the reachable side is monotone: the field returned is the first grid point
    above one already known to miss the target.

    Each field is decided once per chain length, by a decision scan
    (max_over_time with reach=target) that stops at its first hit; a miss is
    the full scan.  The field found is then resumed from the chunk after its
    hit, so every decision and row equals the one full scans give and each
    field's grid is walked at most once.
    """
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target must lie in [0, 1], got {target}")
    for name, value in (("h_resolution", h_resolution), ("h_cap", h_cap)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")

    # the largest grid index whose field is at most h_cap, with a relative
    # slack so that 0.3 / 0.1 = 2.9999999999999996 still reaches 3
    top = h_cap / h_resolution * (1.0 + _CAP_SLACK)
    if not math.isfinite(top + 1.0 / h_resolution):  # the ladder starts at 1 / h_resolution
        raise ValueError("h_resolution must be finite and positive and large enough that "
                         "h_cap / h_resolution and 1 / h_resolution are finite, got "
                         f"h_cap={h_cap}, h_resolution={h_resolution}")
    k_cap = math.floor(top)
    results = []
    for n_sites in n_sites_values:
        decided: dict[int, ScanResult] = {}

        def scan_at(k: int, **how) -> ScanResult:
            chain = replace(request.chain, n_sites=n_sites, field=k * h_resolution)
            return max_over_time(replace(request, chain=chain), **how)

        def reaches(k: int) -> bool:
            if k not in decided:
                decided[k] = scan_at(k, reach=target)
            return decided[k].fbar_max >= target

        found = None
        if reaches(0):
            found = 0
        else:
            # bracket on a doubling ladder, then bisect on the grid
            ladder = []
            k = max(int(round(1.0 / h_resolution)), 1)
            while k < k_cap:
                ladder.append(k)
                k *= 2
            ladder.append(k_cap)
            lo, hi = 0, None
            for k in ladder:
                if reaches(k):
                    hi = k
                    break
                lo = k
            if hi is not None:
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if reaches(mid):
                        hi = mid
                    else:
                        lo = mid
                found = hi

        # the cap's decision missed, so it is a full scan; a hit stopped early
        best = decided[k_cap] if found is None else scan_at(found, resume=decided[found])
        field = None if found is None else found * h_resolution
        results.append(ThresholdResult(n_sites, field, best.t_star, best.fbar_max))
    return results
