"""Transfer-time and field scans: certified maxima, field sweeps, thresholds.

A scan finds the maximum of an average-fidelity curve over a time window to
within _GAP, and proves it: no time in the window does better by more.  It
is a Piyavskii-Shubert branch and bound (Piyavskii 1972; Shubert, SIAM J.
Numer. Anal. 9, 379, 1972) on the average itself.  bounds.interval_bound
gives a K >= -Fbar'' from the chain's modes, a bound on how fast the average
can bend down, so on an interval [a, b] the average never rises above its
chord plus K (t - a)(b - t)/2: that envelope less the average is concave
and 0 at both ends, so never negative.  The top of the envelope is the
interval's ceiling: with d the difference of its end values and w its
width, the mean of the ends plus K w^2/8 + d^2/(2 K w^2) while
|d| < K w^2/2, and the higher end otherwise, never above the higher end
plus K w^2/8.  K is read off the average's series, merged
(bounds.series): for the general class on uniform chains 3 to 5.5 at every
length and field tried (N = 7 to 40, h up to 200), less at h = 0, where
frequencies coincide (3.7 at N = 7), and 16 to 72 on engineered chains.
The coarse grid cuts the window into the fewest equal steps no longer than
sqrt(8 _COARSE_MARGIN / K), so its last point is t_max, and its step does
not shrink as the barrier field grows, as a step set by the spectral range
would.  The coarse points are evaluated, and the intervals whose ceiling
lies above the best value are cut level by level, each step's new points
evaluated as one array of times, and pruned again, until no interval's
ceiling lies more than _GAP above the best value.  The best evaluated value
is the scan's.  Every class is a closed form in the propagator, so a scan
holds no randomness.

Near t = 0 an interval's ceiling uses bounds.onset_curvature, a bound on
-Fbar'' over [0, hi] that falls off as a power of hi set by the
sender-receiver distance, instead of K: before the arrival time the curve stays within
rounding of its t = 0 value, and K alone would have it sampled at about
1e-7 all along.  Elsewhere a stretch where the curve stays just below its
best, as a window shorter than the transfer time across a strong barrier
has, is sampled that finely still.  So a scan's search has a budget,
_SEARCH_POINTS points plus one per coarse point, set by the window and not
by how it is cut into chunks: the chunks' searches draw on it in turn, and
once it is spent what they left is certified only to its ceilings, which
the result reports as capped.

Values within _TIE_EPS of the maximum are ties, and t_star is the earliest
time found among them.  A full scan holds what may hold a tie in one list:
the intervals its chunks' searches prune with a ceiling within _TIE_EPS
below the chunk's best (and at most _GAP above it), and each chunk's best
point, as an interval of width 0.  After each chunk the list drops what
lies more than _TIE_EPS below the running best.  Once the maximum is known,
_earliest takes the earliest held end within _TIE_EPS of it, and cuts in
two the held intervals before that end that may hold an earlier tie but
have no end that is one, until none is left.

The coarse grid is cut into chunks of _CHUNK points anchored on the point
index, step * (k * _CHUNK + j), each evaluated as a spectral.UniformGrid
with one more point, the next chunk's first, so that the chunks' intervals
tile the window; the last chunk ends on the grid's last point, t_max.
Chunks are evaluated in time order on the calling thread, and each is
reduced as it is evaluated to its best point and the cells whose ceiling
lies above it or within _TIE_EPS below it, made into intervals and pruned a
batch at a time, so that they are never held beside their pruned copy, and
then searched.  A chunk's search prunes against the chunk's own best alone,
so the points it evaluates depend on the chunk and nothing else, level by
level; the running best of earlier chunks only stops it early, once no
interval left can come within _TIE_EPS of that best.  So a scan holds one
chunk of values (8 bytes a point: the evaluators reduce their phase tables
a row block at a time, see spectral.py) while it is reduced, 40 bytes per
live cell of it (its ends, their averages and its ceiling), the few batches
its search stacks and the intervals held for ties: memory bounded by the
chunk size, not by the window, save where near-ties recur all along it, as
an engineered chain's revivals do, and a search holds at most the
scan's budget's worth.  A scan starts no thread: ScanRequest.threads is how
many of a sweep's fields or a threshold search's lengths run at once.

A scan given a value to reach is a decision scan.  Before it evaluates any
grid it asks bounds.series_ceiling, a bound on the average at every time
read off the coefficients of its trigonometric series: when that ceiling,
plus the rounding of any phase the scan could evaluate, lies below the
value, the scan is a miss, and it returns its one point, t = 0, without a
plan or a chunk.  Otherwise it stops as soon as a
point it evaluates reaches that value (a hit), and stops searching a
chunk once no interval's ceiling reaches it, so a miss is certified: the
window maximum is below the value, or within _GAP above it with no point of
the full scan reaching it.  Either way the decision is the one a full scan's
value gives.  A threshold search only asks each field whether its scan
reaches the target, and then scans in full the field it found, or the cap
when it found none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .chain import ChainSpec, real_number, whole_number
from .bounds import interval_bound, onset_curvature, onset_horizon, series, series_ceiling
from .fidelity import CLASSES, GRID_VALUES
from .spectral import UniformGrid, decompose_chain

# the coarse points a chunk evaluates and searches at once.  Each chunk's
# search pays a fixed cost per step, so fewer, larger chunks cost less; the
# chunk's memory is its values (8 bytes a point) and 40 bytes per live cell.
# In-process CPU time of the benchmark's two scan workloads, medians of 8
# interleaved rounds (one BLAS thread, Fig. 4b at two threads, 2-vCPU VM),
# at 32768, 65536, 131072 and 262144 points: Fig. 4b sweep 0.044, 0.038,
# 0.035, 0.034 s; Fig. 5 search 0.050, 0.044, 0.044, 0.044 s
_CHUNK = 131072
# the coarse grid's ceiling margin K step^2/8, which sets its step; chosen on
# the Fig. 5 threshold search and the Fig. 4b sweep, where a finer grid costs
# coarse points and a coarser one costs search points.  In-process scan CPU
# time with one search budget per scan, medians of 15 interleaved rounds,
# twice (one BLAS thread, one Fig. 4b field at a time, 2-vCPU VM whose speed
# changed between the two): Fig. 4b 28.0/42.7 ms at 0.1, 22.8/34.5 ms at
# 0.15, 21.9/33.3 ms at 0.2; Fig. 5 32.3/54.5 ms, 33.1/55.4 ms,
# 34.6/58.2 ms.  A wider margin trades Fig. 5 time for Fig. 4b time, and
# costs search points on curves that stay near their best, such as the bare
# N = 7 chain's (see _SEARCH_POINTS)
_COARSE_MARGIN = 0.15
# the certified gap: an interval is searched only while its ceiling lies more
# than this above the best value.  A peak of curvature c is then placed to
# within about sqrt(2 _GAP / c) in time, 1e-6 at c = 2.
_GAP = 1e-12
# values within this of the maximum are ties: the earliest time among them is reported
_TIE_EPS = 1e-12
_ROUNDING = 1e-13
# each phase lam t a scan evaluates is rounded to within about eps |lam| t,
# and a value moves by less than this many such units (measured on 300 random
# single-time queries against an independent solver: at most 2.8)
_PHASE_ROUNDOFF = 16.0 * np.finfo(float).eps
# the new points a search step aims at, and the most intervals it cuts; see _refine.
# Against plain bisection (2), in-process scan CPU time under the chord
# ceiling, one BLAS thread, Fig. 4b at two threads, medians of 15 interleaved
# rounds: Fig. 4b 0.031 s in 61 evaluator calls against 0.038 s in 149,
# Fig. 5 0.035 s in 109 against 0.040 s in 179
_LEVEL_POINTS = 64
_BATCH = 4096
# a scan's search budget is this plus one point per coarse point, drawn on
# by all its chunks (_Bound.budget), so that it grows with the window and
# not with _CHUNK; the search for the earliest tie has its own
# _SEARCH_POINTS.  Measured with no budget: the figures' scans need at most
# 38381 (Fig. 4a, N = 7, h = 0, of a budget of 166027), the same chain
# 382909 over 2e5 (budget 480613) and 573857 over 3e5 (budget 655383), about
# 1.1 per coarse point as the window grows, so that over 1e6 it is capped;
# the general scan of the engineered N = 7 chain over 2e4, with a perfect
# revival every pi/2, needs about 769000 (budget 204541).  A stretch where
# the curve stays within about 1e-8 below its best for long, such as a
# window shorter than the transfer time across a strong barrier, needs
# more: the search stops there, the points it left are certified only to
# the ceilings left, and ScanResult.capped says so.
_SEARCH_POINTS = 131072
_CAP_SLACK = 1e-9


def default_t_max(n_sites: int, fidelity_class: str) -> float:
    """Scan windows: 1.3e4 for omega classes, else 2e4 (N odd) or 6e4 (N even).

    n_sites must be a whole number >= 2 and fidelity_class one of CLASSES.
    """
    n_sites = whole_number("n_sites", n_sites, 2)
    if fidelity_class not in CLASSES:
        raise ValueError(f"unknown fidelity class {fidelity_class!r}")
    if fidelity_class in ("omega1", "omega2"):
        return 1.3e4
    return 2.0e4 if n_sites % 2 else 6.0e4


@dataclass(frozen=True)
class ScanRequest:
    """One maximum-fidelity search over a time window; threads is how many
    scans field_sweep and threshold_field run at once (max_over_time runs one)."""

    chain: ChainSpec
    fidelity_class: str = "general"
    t_max: float = 2.0e4
    threads: int = 1

    def __post_init__(self):
        if self.fidelity_class not in CLASSES:
            raise ValueError(f"unknown fidelity class {self.fidelity_class!r}")
        t_max = real_number("t_max", self.t_max)
        if not math.isfinite(t_max) or t_max <= 0:
            raise ValueError(f"t_max must be finite and positive, got {self.t_max!r}")
        object.__setattr__(self, "t_max", t_max)
        # a float would reach the thread pool's size; True would run as 1
        whole_number("threads", self.threads, 1)


@dataclass(frozen=True)
class ScanResult:
    """Maximum found by a scan; grid_step is the step of its coarse grid.

    For a full scan, fbar_max is the window maximum of the class's average,
    to within _GAP; t_star is the earliest time the scan found whose value
    lies within _TIE_EPS of it: the earliest end of an interval it held that
    does, or an earlier point that cutting the held intervals before that
    end found.  A decision scan (max_over_time given reach) returns the best
    point of the grid or search step where it first reached reach, or on a
    miss the best point it evaluated, (0.0, Fbar(0)) when the series ceiling
    certified the miss: its fbar_max reaches reach exactly when a full
    scan's does, but need not be the window maximum.  capped is True
    when the chunks' searches spent the scan's budget (_SEARCH_POINTS plus
    one point per coarse point), or the search for the earliest tie its own
    _SEARCH_POINTS, with intervals left: fbar_max is then certified only to
    the ceilings of those intervals, and t_star may not be the earliest tie.
    """

    field: float
    t_star: float
    fbar_max: float
    fidelity_class: str
    grid_step: float
    capped: bool = False


class _Bound:
    """The ceilings of one scan's intervals.

    An interval [lo, hi] with averages fs at its ends has as ceiling the top
    of its chord plus K(hi) (t - lo)(hi - t)/2 (_chord_ceilings), where
    K(hi) >= -Fbar'' on [0, hi]: at most max(fs) + K(hi) (hi - lo)^2/8, and
    max(fs) itself once |fs[1] - fs[0]| >= K(hi) (hi - lo)^2/2.  Below
    bounds.onset_horizon, K(hi) is bounds.onset_curvature's bound at the
    coarse point (k + 1) step just past hi, and past it K; the table stops
    at the horizon or at the window's last coarse point, whichever comes
    first.  The horizon is found at the first ceiling asked for, so a
    decision miss that bounds.series_ceiling certifies never finds it, and
    the table is built once, the first time an interval below the horizon
    needs it, so a scan whose search stays away from the start never builds
    it; its values do not depend on when, so neither do the ceilings.

    K is bounds.interval_bound's, which sets the coarse step, plus what the
    spread of the merged series allows the average evaluated: a term a moved
    by d in frequency moves Fbar'' by at most |a| d (2 W + W^2 t), with
    W = 4 max |lam| above every frequency of the series, its square expanded.
    """

    def __init__(self, dec, fidelity_class, t_max):
        self.lam_max = float(np.abs(dec.eigenvalues).max())
        # a huge field, or a window near the float range, overflows K to inf or
        # nan, which max_over_time rejects
        with np.errstate(over="ignore", invalid="ignore"):
            k = interval_bound(dec, fidelity_class)
            self.spread = 0.0 if fidelity_class == "one-qubit" else series(dec, fidelity_class).spread
            top = 4.0 * self.lam_max
            self._allowance = self.spread * top * (2.0 + top * t_max)  # 0 with nothing merged
            self.curvature = k + self._allowance
        self._k, self._dec, self._class, self._t_max = k, dec, fidelity_class, t_max
        self._table = None
        # set by a search of the scan that stops at its budget with intervals left
        self.capped = False

    @cached_property
    def budget(self):
        """The search points the scan's chunks may still evaluate: at first
        _SEARCH_POINTS plus one per coarse point, whatever the chunks; each
        chunk's search (_refine) takes from it what it evaluates."""
        return _SEARCH_POINTS + self.n_pts

    @cached_property
    def n_pts(self):
        """The coarse grid's points, at step * (0 ... n_pts - 1): the fewest
        whose step is at most sqrt(8 _COARSE_MARGIN / K) and whose last
        lies on t_max.  Read once K is known to be finite.  A window that
        needs 2**53 points or more is refused: past that a point's index is
        no longer exact as a float, and the chunks could never all be walked."""
        # two, the window's ends, for an average with no time dependence (K = 0)
        if self._k * self._t_max * self._t_max <= 8.0 * _COARSE_MARGIN:
            return 2
        most = math.sqrt(8.0 * _COARSE_MARGIN / self._k)
        steps = self._t_max / most  # inf for the longest windows
        if steps > 2.0**53 - 2:  # math.ceil(steps) + 1 >= 2**53
            raise ValueError(f"cannot scan t_max = {self._t_max:g}: its coarse grid, of step "
                             f"{most:.3g}, would need 2**53 points or more")
        return math.ceil(steps) + 1

    @cached_property
    def step(self):
        """The coarse grid's step, t_max / (n_pts - 1)."""
        return self._t_max / (self.n_pts - 1)

    @cached_property
    def _cells(self):
        horizon = onset_horizon(self._dec, self._class)
        # not horizon / step first, which a tiny window's step overflows
        return self.n_pts if horizon >= self.n_pts * self.step else math.ceil(horizon / self.step)

    def ceilings(self, ts, fs):
        """The ceiling of each interval: row j of ts holds its ends (lo, hi),
        row j of fs the averages there."""
        if not ts.size or ts[:, 1].min() >= self._cells * self.step:
            return _chord_ceilings(ts, fs, self.curvature)
        if self._table is None:
            onset = onset_curvature(self._dec, self._class,
                                    self.step * np.arange(1, self._cells + 1))
            self._table = np.append(onset + self._allowance, self.curvature)
        cell = np.minimum(ts[:, 1] // self.step, self._cells).astype(np.intp)
        return _chord_ceilings(ts, fs, self._table[cell])


def _chord_ceilings(ts, fs, k):
    """The top of each interval's Piyavskii-Shubert envelope, the chord plus
    k (t - lo)(hi - t)/2, where k >= -Fbar'' on it (a number, or one per row).

    With d = |f_hi - f_lo| and c = k (hi - lo)^2, that is the higher end when
    d >= c/2, where the envelope peaks, and otherwise
    max(fs) + c/8 - (d/2)(1 - d/c), the mean of the ends plus c/8 + d^2/(2c),
    never above max(fs) + c/8, rounding included.  Only rows with c > 2d >= 0
    are divided, so a zero width or k = 0 gives the higher end.
    """
    # not fs.max(axis=1), which took 70 times as long on a (20000, 2) array
    top = np.maximum(fs[:, 0], fs[:, 1])
    d = np.abs(fs[:, 1] - fs[:, 0])
    c = k * (ts[:, 1] - ts[:, 0]) ** 2
    inner = d < c / 2.0
    d, c = d[inner], c[inner]
    top[inner] = (top[inner] + c / 8.0) - d / 2.0 * (1.0 - d / c)
    return top


def _prune(ts, fs, top, f, held):
    """The intervals whose ceiling lies more than _GAP above f, to search.
    held is a full scan's list of held intervals, or None: the others whose
    ceiling lies within _TIE_EPS below f, which may hold a tie, go to it."""
    live = top > f + _GAP
    if held is not None:
        tie = ~live & (top >= f - _TIE_EPS)
        if tie.any():
            held.append((ts[tie], fs[tie], top[tie]))
    return ts[live], fs[live], top[live]


def _cut(evaluate, ts, fs, parts):
    """Each interval cut into equal parts: the new points (n, parts - 1), their
    averages, and the parts' ends and averages, in time order."""
    n = ts.shape[0]
    inner = ts[:, :1] + (ts[:, 1:] - ts[:, :1]) * (np.arange(1, parts) / parts)
    f_inner = evaluate(inner.ravel()).reshape(n, parts - 1)
    edges_t = np.concatenate((ts[:, :1], inner, ts[:, 1:]), axis=1)
    edges_f = np.concatenate((fs[:, :1], f_inner, fs[:, 1:]), axis=1)
    return (inner, f_inner,
            np.stack((edges_t[:, :-1], edges_t[:, 1:]), axis=2).reshape(-1, 2),
            np.stack((edges_f[:, :-1], edges_f[:, 1:]), axis=2).reshape(-1, 2))


def _refine(evaluate, bound, chunk, floor, goal, held):
    """A chunk's best point (t, f) once its intervals are searched.

    chunk is the chunk's best point and its intervals, as batches
    (ts, fs, top) of at most _BATCH each, pruned against that best as they
    come, so that they are never all held beside their pruned copy.  Each
    step cuts a batch of at most _BATCH live intervals into equal parts,
    evaluates all the new points in one array, and prunes the parts against
    the chunk's best so far (_prune, which adds to held).  A batch is cut
    into 2 parts each while it holds many intervals and into up to 16 when
    it holds few, where a step's cost, not its points', dominates.  Batches
    are searched depth first, the earliest first, so the stack holds a few
    batches per level, not a whole level, even where the curve is flat.  The
    search stops early once no interval's ceiling reaches floor, or once its
    best reaches goal.  It spends bound.budget, the scan's, and sets
    bound.capped when it stops with that spent before either.
    """
    t, f, batches = chunk
    # batches (ts, fs, top, max(top)), the earliest on top of the stack
    stack = []
    for ts, fs, top in batches:
        ts, fs, top = _prune(ts, fs, top, f, held)
        if top.size:
            stack.append((ts, fs, top, top.max()))
    stack.reverse()
    while stack and f < goal and max(b[3] for b in stack) >= floor:
        if bound.budget <= 0:
            bound.capped = True
            break
        ts, fs, top, _ = stack.pop()
        if top.size > _BATCH:
            rest = slice(_BATCH, None)
            stack.append((ts[rest], fs[rest], top[rest], top[rest].max()))
            ts, fs, top = ts[:_BATCH], fs[:_BATCH], top[:_BATCH]
        # the best may have risen since the batch was made
        ts, fs, _ = _prune(ts, fs, top, f, held)
        if not ts.size:
            continue
        parts = min(16, max(2, _LEVEL_POINTS // ts.shape[0]))
        inner, f_inner, ts, fs = _cut(evaluate, ts, fs, parts)
        bound.budget -= inner.size
        # row by row, the new points are in time order
        k = np.unravel_index(np.argmax(f_inner), f_inner.shape)
        if f_inner[k] > f or (f_inner[k] == f and inner[k] < t):
            t, f = float(inner[k]), float(f_inner[k])
        live = _prune(ts, fs, bound.ceilings(ts, fs), f, held)
        if live[2].size:
            stack.append(live + (live[2].max(),))
    return t, f


def _earliest(evaluate, bound, held, reach):
    """The earliest time found whose average reaches reach.

    held is a list of (ts, fs, top) arrays of intervals.  The earliest end
    of one that reaches reach is taken, and the intervals before it that may
    hold a point reaching reach, none of whose ends reaches it, are cut in
    two, all in one array per step, until none is left.  A point reaching
    reach lies on a peak within reach's distance of its top, about
    sqrt(2 _TIE_EPS / c) in time on a peak of curvature c.  The search stops
    after _SEARCH_POINTS points, and sets bound.capped if it then has
    intervals left.
    """
    ts, fs, top = (np.concatenate(x) for x in zip(*held))
    t, points = math.inf, 0
    while True:
        hit = fs >= reach
        t = float(np.where(hit, ts, t).min(initial=t))
        keep = (top >= reach) & (ts[:, 0] < t) & ~hit.any(axis=1) \
            & (ts[:, 1] - ts[:, 0] > _ROUNDING * ts[:, 1])  # not as narrow as rounding
        ts, fs = ts[keep], fs[keep]
        if not ts.size:
            return t
        if points >= _SEARCH_POINTS:
            bound.capped = True
            return t
        _, _, ts, fs = _cut(evaluate, ts, fs, 2)
        points += ts.shape[0] // 2
        top = bound.ceilings(ts, fs)


def max_over_time(request: ScanRequest, reach: float | None = None) -> ScanResult:
    """Maximize the requested average fidelity over t in [0, t_max].

    fbar_max is within _GAP of the window maximum, and t_star the earliest
    time found whose value is within _TIE_EPS of fbar_max.  With reach given,
    this is a decision scan: it stops at the first chunk grid or search step
    that holds a point reaching reach and returns the best point of that grid
    or step, which need not be the earliest hit (with reach = -inf, the best
    point of the first chunk, not t = 0); otherwise it returns the best point
    it evaluated, whose value is then below reach.  A miss certified by the
    average's all-time ceiling (bounds.series_ceiling) evaluates one point,
    t = 0, and returns (t_star, fbar_max) = (0.0, Fbar(0)).  Its fbar_max
    reaches reach exactly when a full scan's does.
    """
    if reach is not None:
        reach = real_number("reach", reach)
        if math.isnan(reach):  # no point would reach it, and no interval would be cut
            raise ValueError("reach must be a number, got nan")
    dec = decompose_chain(request.chain)
    evaluate = partial(GRID_VALUES[request.fidelity_class], dec)
    t_max = request.t_max
    bound = _Bound(dec, request.fidelity_class, t_max)
    if not math.isfinite(bound.curvature):
        raise ValueError(f"cannot scan the field h = {request.chain.field:g} up to t_max = "
                         f"{t_max:g}: its curvature bound overflows (largest |lambda| = "
                         f"{bound.lam_max:g})")
    step = bound.step  # refuses a window of 2**53 coarse points or more
    if reach is not None:
        # no value the scan could evaluate reaches reach, with the rounding of its
        # phases and, in _ROUNDING, of its sums, and the spread of its series
        slack = _ROUNDING + (_PHASE_ROUNDOFF * bound.lam_max + bound.spread) * t_max
        if series_ceiling(dec, request.fidelity_class) + slack < reach:
            return ScanResult(request.chain.field, 0.0, float(evaluate(np.zeros(1))[0]),
                              request.fidelity_class, step)
    margin = bound.curvature / 8.0 * step * step
    n_pts = bound.n_pts

    def run_chunk(start):
        # the chunk's points and the first of the next chunk, if any
        count = min(_CHUNK, n_pts - start)
        vals = evaluate(UniformGrid(step, start, count + (start + count < n_pts)))
        i = int(np.argmax(vals[:count]))
        # reduced where it is evaluated: the scan holds intervals, not values.
        # A cell whose ends lie more than margin below the best (below the
        # ties, in a full scan) can neither beat it nor hold a tie.
        low = vals[i] if reach is not None else vals[i] - _TIE_EPS
        hot = vals >= low - margin
        cells = np.flatnonzero(hot[:-1] | hot[1:])

        def batches():
            for c in np.split(cells, range(_BATCH, cells.size, _BATCH)):
                ts = step * (start + np.stack((c, c + 1), axis=1))
                fs = np.stack((vals[c], vals[c + 1]), axis=1)
                yield ts, fs, bound.ceilings(ts, fs)

        return step * (start + i), float(vals[i]), batches()

    best_t, best_f = 0.0, -math.inf
    goal = math.inf if reach is None else reach
    # a full scan's held intervals, which may hold its earliest tie, and each
    # chunk's best point as an interval of width 0
    held = [] if reach is None else None
    # lazily, so a decision scan that stops at a hit evaluates no later chunk
    for chunk in map(run_chunk, range(0, n_pts, _CHUNK)):
        # a chunk that cannot come within _TIE_EPS of the best is cut short
        floor = best_f - _TIE_EPS if reach is None else max(best_f, reach)
        t, f = _refine(evaluate, bound, chunk, floor, goal, held)
        if f > best_f or (f == best_f and t < best_t):
            best_t, best_f = t, f
        if best_f >= goal:
            break
        if held is not None:
            held.append((np.array([[t, t]]), np.array([[f, f]]), np.array([f])))
            # entry by entry, so the list is never held twice over
            for j, (ts, fs, top) in enumerate(held):
                keep = top >= best_f - _TIE_EPS
                held[j] = ts[keep], fs[keep], top[keep]
            held = [h for h in held if h[2].size]
    if held is not None:
        best_t = _earliest(evaluate, bound, held, best_f - _TIE_EPS)
    return ScanResult(request.chain.field, best_t, best_f, request.fidelity_class, step,
                      bound.capped)


def _at_once(run, items, threads):
    """[run(x) for x in items], at most `threads` of them running at once."""
    items = list(items)
    if threads == 1 or len(items) <= 1:
        return [run(x) for x in items]
    # here, not at the top: it loads logging and queue, which no single scan needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(threads, len(items))) as pool:
        return list(pool.map(run, items))


def field_sweep(request: ScanRequest, fields) -> list[ScanResult]:
    """max_over_time at each barrier field value, same chain otherwise;
    request.threads fields are scanned at once."""
    requests = [replace(request, chain=replace(request.chain, field=h)) for h in fields]
    return _at_once(max_over_time, requests, request.threads)


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
    ballistic prefactor, its class and window; the chain length runs over
    n_sites_values and the field over the grid h = k*h_resolution up to
    h_cap.  request.threads chain lengths are searched at once, each one's
    scans in turn.  The search brackets on a doubling ladder plus bisection,
    assuming the reachable side is monotone: the field returned is the first
    grid point above one already known to miss the target.

    Each field is decided once per chain length, by a decision scan
    (max_over_time with reach=target) that stops at its first hit and
    certifies a miss without refining what cannot reach the target.  The
    row is a full scan of the field found, or of the cap when no field
    reaches the target.  So every decision and row equals the one full
    scans give.
    """
    # True would run as 1.0 and "0.9" fail in a comparison
    target = real_number("target", target)
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target must lie in [0, 1], got {target}")
    h_resolution = real_number("h_resolution", h_resolution)
    h_cap = real_number("h_cap", h_cap)
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
    # the doubling ladder [0, k0, 2 k0, ..., k_cap], each grid index once
    ladder = [0]
    k = max(int(round(1.0 / h_resolution)), 1)
    while k < k_cap:
        ladder.append(k)
        k *= 2
    if k_cap > 0:
        ladder.append(k_cap)

    def search(n_sites) -> ThresholdResult:
        def scan_at(k: int, reach=None) -> ScanResult:
            chain = replace(request.chain, n_sites=n_sites, field=k * h_resolution)
            return max_over_time(replace(request, chain=chain), reach)

        # bracket on the ladder, then bisect on the grid strictly between the
        # last miss and the first hit, where no field has been decided
        lo, hi = 0, None
        for k in ladder:
            if scan_at(k, target).fbar_max >= target:
                hi = k
                break
            lo = k
        while hi is not None and hi - lo > 1:
            mid = (lo + hi) // 2
            if scan_at(mid, target).fbar_max >= target:
                hi = mid
            else:
                lo = mid
        best = scan_at(k_cap if hi is None else hi)
        field = None if hi is None else hi * h_resolution
        return ThresholdResult(n_sites, field, best.t_star, best.fbar_max)

    return _at_once(search, n_sites_values, request.threads)
