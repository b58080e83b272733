"""Spans around spinbus's public functions, recorded from outside the package.

A Tracer replaces each function named in TRACE_POINTS, wherever a spinbus
module holds a reference to it (module globals and dicts such as the
sampler table in fidelity.py), with a wrapper that records one span:
(id, name, start, end, parent id, size).  size is the number of time points
or samples the call was given, or 0.  Spans stay in memory until the run ends.

Parents come from a per-thread stack.  A call on a worker thread with an
empty stack is attributed to the innermost open span on the main thread,
which is the scan that started the thread pool.

layer_metrics() turns a run's spans into the per-layer metrics listed in
PER_LAYER.  A layer's self time is its span minus the union of its
children's intervals.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

# (layer, module, attribute, (position, name) of the argument whose length is
# the call's size in points or samples, or None)
TRACE_POINTS = (
    ("cli", "spinbus.cli", "parse_and_dispatch", None),
    ("scans", "spinbus.scans", "field_sweep", None),
    ("scans", "spinbus.scans", "threshold_field", None),
    ("scans", "spinbus.scans", "max_over_time", None),
    ("spectral", "spinbus.spectral", "decompose_chain", None),
    ("spectral", "spinbus.spectral", "propagator_minor_grid", (3, "ts")),
    ("reduced", "spinbus.reduced", "pair_amplitude_grid", (1, "ts")),
    ("reduced", "spinbus.reduced", "fidelity_via_rdm_batch", (1, "states")),
    ("reduced", "spinbus.reduced", "evolve_receiver_pair", None),
    ("fidelity", "spinbus.fidelity", "HaarAverageEvaluator.__init__", None),
    ("fidelity", "spinbus.fidelity", "HaarAverageEvaluator.values", (1, "ts")),
    ("fidelity", "spinbus.fidelity", "omega1_values", (1, "ts")),
    ("fidelity", "spinbus.fidelity", "omega2_values", (1, "ts")),
    ("fidelity", "spinbus.fidelity", "one_qubit_values", (1, "ts")),
    ("fidelity", "spinbus.fidelity", "avg_fidelity_mc", None),
    ("fidelity", "spinbus.fidelity", "avg_fidelity_omega1", None),
    ("fidelity", "spinbus.fidelity", "avg_fidelity_omega2", None),
    ("states", "spinbus.states", "sample_haar_2q", (1, "size")),
    ("amplitudes", "spinbus.amplitudes", "amplitude_rp", None),
)

# the evaluator a scan calls on each chunk of its time grid
_SCAN_EVALUATORS = ("fidelity.HaarAverageEvaluator.values", "fidelity.omega1_values",
                    "fidelity.omega2_values", "fidelity.one_qubit_values")
# golden-section refinement evaluates two points, then one; grid chunks are larger
_REFINE_MAX_POINTS = 2
_BYTES_PER_POINT = 16  # one complex128 value per grid point

QUERY_KINDS = ("amp2", "amp3", "rdm", "1q", "omega1", "omega2", "general")

# name -> (unit, better, what it should move); every entry is printed by a traced run
PER_LAYER = {
    "scans.scan_count": ("count", "lower", "ref_cpu_s on threshold-omega1"),
    "scans.grid_points": ("count", "lower", "ref_cpu_s on sweep-general and threshold-omega1"),
    "scans.refine_points": ("count", "lower", "ref_cpu_s on sweep-general and threshold-omega1"),
    "scans.self_s": ("s", "lower", "ref_cpu_s on sweep-general"),
    "scans.resident_grid_mb": ("MB", "lower", "peak_rss_mb on sweep-general"),
    "spectral.minor_grid_us_per_point": ("us/pt", "lower", "ref_cpu_s on threshold-omega1"),
    "spectral.decompose_us": ("us", "lower", "ref_cpu_s on point-queries"),
    "reduced.pair_grid_us_per_point": ("us/pt", "lower", "ref_cpu_s on sweep-general"),
    "reduced.rdm_batch_us_per_sample": ("us/sample", "lower", "ref_op_p99_ms on point-queries"),
    "reduced.evolve_receiver_pair_us": ("us", "lower", "ref_cpu_s on point-queries"),
    "fidelity.haar_values_self_us_per_point": ("us/pt", "lower", "ref_cpu_s on sweep-general"),
    "fidelity.haar_init_s": ("s", "lower", "ref_cpu_s on sweep-general"),
    "fidelity.omega1_self_us_per_point": ("us/pt", "lower", "ref_cpu_s on threshold-omega1"),
    "states.haar_2q_us_per_sample": ("us/sample", "lower", "ref_op_p99_ms on point-queries"),
    "amplitudes.amplitude_rp_us": ("us", "lower", "ref_cpu_s on point-queries"),
    "cli.self_s": ("s", "lower", "ref_cpu_s on sweep-general and threshold-omega1"),
}
PER_LAYER["query.p50_ms"] = ("ms", "lower", "ref_cpu_s on point-queries")
for _kind in QUERY_KINDS:
    PER_LAYER[f"query.{_kind}.p50_ms"] = ("ms", "lower", "ref_cpu_s on point-queries")
    PER_LAYER[f"query.{_kind}.p99_ms"] = ("ms", "lower", "ref_op_p99_ms on point-queries")
PER_LAYER["trace.overhead_frac"] = ("frac", "lower", "none: cost of tracing itself")


def _size_of(value) -> int:
    if value is None:  # sample_haar_2q(sampler) draws one state
        return 1
    if isinstance(value, int):
        return value
    return len(value)


class Tracer:
    """Installs span-recording wrappers into spinbus and removes them again."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, sized):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            size = 0
            if sized is not None:
                position, keyword = sized
                size = _size_of(args[position] if len(args) > position
                                else kwargs.get(keyword))
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, size))

        return traced

    def install(self) -> None:
        """Wrap every trace point that exists in the imported spinbus modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "spinbus" or n.startswith("spinbus."))]
        for layer, module_name, attr, sized in TRACE_POINTS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = None if owner is None else owner.__dict__.get(method)
                if original is None:
                    continue
                setattr(owner, method, self._wrap(f"{layer}.{attr}", original, sized))
                self._undo.append((owner, method, original, setattr))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{layer}.{attr}", original, sized)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original, setattr))
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper
                                self._undo.append((value, dkey, original, dict.__setitem__))

    def uninstall(self) -> None:
        for target, key, original, setter in reversed(self._undo):
            setter(target, key, original)
        self._undo.clear()


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans, reps: int) -> dict[str, float]:
    """Per-layer metrics (all of PER_LAYER except query.* and trace.*) from spans.

    Counts and seconds are per repetition of the workload's fixed work;
    per-point and per-call figures are totals over all calls divided by the
    points or calls.  A layer the workload never reaches reads 0.
    """
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
        children.setdefault(span[4], []).append(span)

    def self_time(span):
        kids = [(c[2], c[3]) for c in children.get(span[0], ())]
        return (span[3] - span[2]) - _covered(kids, span[2], span[3])

    def named(name):
        return by_name.get(name, [])

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call_us(name):
        calls = named(name)
        return ratio(sum(s[3] - s[2] for s in calls) * 1e6, len(calls))

    def per_size_us(name, own_only=False):
        calls = named(name)
        busy = sum(self_time(s) if own_only else s[3] - s[2] for s in calls)
        return ratio(busy * 1e6, sum(s[5] for s in calls))

    scans = named("scans.max_over_time")
    grid = refine = 0
    largest = 0
    for scan in scans:
        points = 0
        for kid in children.get(scan[0], ()):
            if kid[1] not in _SCAN_EVALUATORS:
                continue
            if kid[5] > _REFINE_MAX_POINTS:
                points += kid[5]
            else:
                refine += kid[5]
        grid += points
        largest = max(largest, points)

    return {
        "scans.scan_count": ratio(len(scans), reps),
        "scans.grid_points": ratio(grid, reps),
        "scans.refine_points": ratio(refine, reps),
        "scans.self_s": ratio(sum(self_time(s) for s in scans), reps),
        "scans.resident_grid_mb": largest * _BYTES_PER_POINT / 1e6,
        "spectral.minor_grid_us_per_point": per_size_us("spectral.propagator_minor_grid"),
        "spectral.decompose_us": per_call_us("spectral.decompose_chain"),
        "reduced.pair_grid_us_per_point": per_size_us("reduced.pair_amplitude_grid"),
        "reduced.rdm_batch_us_per_sample": per_size_us("reduced.fidelity_via_rdm_batch"),
        "reduced.evolve_receiver_pair_us": per_call_us("reduced.evolve_receiver_pair"),
        "fidelity.haar_values_self_us_per_point":
            per_size_us("fidelity.HaarAverageEvaluator.values", own_only=True),
        "fidelity.haar_init_s": per_call_us("fidelity.HaarAverageEvaluator.__init__") / 1e6,
        "fidelity.omega1_self_us_per_point":
            per_size_us("fidelity.omega1_values", own_only=True),
        "states.haar_2q_us_per_sample": per_size_us("states.sample_haar_2q"),
        "amplitudes.amplitude_rp_us": per_call_us("amplitudes.amplitude_rp"),
        "cli.self_s": ratio(sum(self_time(s) for s in named("cli.parse_and_dispatch")), reps),
    }
