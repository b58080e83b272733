"""The benchmark's three workloads, run in a fresh process of their own.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S [--traced]

Prints one JSON object: the timed repetitions (wall time, the CPU time and
output of every operation), the CPU times of the host speed probes run
between operations, the process's peak RSS and, with --traced, the recorded
spans.  An operation's CPU time is the process's user plus system time
over the call, on all of its threads; unlike wall time it leaves out the
time a shared host takes the CPU away.  spinbus must be importable (run.py
puts the checkout's src/ on PYTHONPATH).  Nothing here checks outputs;
run.py does that after this process has exited.

Each repetition performs the workload's fixed work.  Repetitions continue
while another one of the same length still fits in --seconds; at least one
always runs.

sweep-general     spinbus reproduce --figure 4b --threads 2, one CLI call per
                  field value (an operation is one call, i.e. one CSV row).
threshold-omega1  spinbus reproduce --figure 5 at one thread, one CLI call per
                  chain length.
point-queries     a closed loop with one client over QUERIES_PER_REP queries
                  from generate_queries(seed); an operation is one query.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import shutil
import tempfile
import time

import numpy as np

import spinbus
import spinbus.cli
from tracing import QUERY_KINDS, Tracer

SWEEP_FIELDS = (0, 2, 5, 10, 15, 20)
THRESHOLD_SITES = (7, 8, 9, 10, 11)
QUERIES_PER_REP = 200 * len(QUERY_KINDS)  # p99 then has 14 queries beyond it
GENERAL_SAMPLES = 10000  # the `spinbus fidelity` default
PROBE_EVERY_QUERIES = 100
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       ".perfbench_out")


def generate_queries(seed: int, count: int) -> list[dict]:
    """Seeded point queries; the kinds follow QUERY_KINDS in a fixed rotation.

    Each query is a chain (N in 7..16, h in [0, 30]), a time t in [0, 2e4] and
    whatever its kind needs: a Haar-random sender state for rdm and a sampler
    seed for general.  The same seed gives the same list.
    """
    rng = np.random.default_rng([seed, 0x5B05])
    queries = []
    for k in range(count):
        kind = QUERY_KINDS[k % len(QUERY_KINDS)]
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z /= np.linalg.norm(z)
        queries.append({
            "kind": kind,
            "N": int(rng.integers(7, 17)),
            "h": float(rng.uniform(0.0, 30.0)),
            "t": float(rng.uniform(0.0, 2.0e4)),
            "state": [float(x) for x in np.column_stack([z.real, z.imag]).ravel()],
            "mc_seed": int(rng.integers(0, 2 ** 32)),
        })
    return queries


# The host speed probe: a fixed amount of work that never calls spinbus, of
# the kind every workload makes: many eigh calls on small chain matrices
# from Python.  Its CPU time tracks how fast the shared host runs right now.
_PROBE_RNG = np.random.default_rng(2014)
_PROBE_MATRICES = []
for _n in range(7, 17):
    _off = _PROBE_RNG.uniform(0.5, 1.5, _n - 1)
    _PROBE_MATRICES.append(np.diag(_off, 1) + np.diag(_off, -1)
                           + np.diag(_PROBE_RNG.uniform(-5.0, 5.0, _n)))
_PROBE_ROUNDS = 130


def host_probe_s() -> float:
    """CPU time of one run of the host speed probe (about 20 ms)."""
    start = time.process_time()
    for _ in range(_PROBE_ROUNDS):
        for matrix in _PROBE_MATRICES:
            np.linalg.eigh(matrix)
    return time.process_time() - start


def query_chain(query: dict):
    """Chain a query runs on: block 1 for one-qubit transfer, else 2."""
    return spinbus.build_chain(query["N"], 1 if query["kind"] == "1q" else 2, query["h"])


def query_state(query: dict):
    s = query["state"]
    return spinbus.TwoQubitState(*(complex(s[2 * k], s[2 * k + 1]) for k in range(4)))


def answer(query: dict) -> list[float]:
    """Build and decompose the query's chain and answer its one question."""
    dec = spinbus.decompose_chain(query_chain(query))
    kind, n, t = query["kind"], query["N"], query["t"]
    if kind in ("amp2", "amp3"):
        r = 2 if kind == "amp2" else 3
        amp = spinbus.amplitude_rp(dec, tuple(range(n - r + 1, n + 1)),
                                   tuple(range(1, r + 1)), t)
        return [amp.real, amp.imag]
    if kind == "rdm":
        rho = spinbus.evolve_receiver_pair(dec, query_state(query), t)
        return rho.real.ravel().tolist() + rho.imag.ravel().tolist()
    if kind == "1q":
        return [spinbus.avg_fidelity_1q(spinbus.one_qubit_amplitude(dec, t)).value]
    if kind == "omega1":
        return [spinbus.avg_fidelity_omega1(dec, t).value]
    if kind == "omega2":
        return [spinbus.avg_fidelity_omega2(dec, t).value]
    result = spinbus.avg_fidelity_mc(dec, t, GENERAL_SAMPLES,
                                     spinbus.SeededSampler(query["mc_seed"]))
    return [result.value, result.stderr]


def _cli_rows(calls, probes=None):
    """Run each (argv, csv path) through the CLI; one CPU time and one CSV row per call.

    With a list as probes, a host speed probe runs before each call.
    """
    cpu, codes = [], []
    for argv, _ in calls:
        if probes is not None:
            probes.append(host_probe_s())
        start = time.process_time()
        try:
            code = spinbus.cli.parse_and_dispatch(argv)
        except Exception as exc:  # a failed operation, counted by the checker
            code = f"{type(exc).__name__}: {exc}"
        cpu.append(time.process_time() - start)
        codes.append(code)
    outputs = []
    for (_, path), code in zip(calls, codes):
        row = None
        if code == 0:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            row = rows[0] if len(rows) == 1 else None
        outputs.append({"code": code, "row": row})
    return cpu, outputs


def _call(args, out_dir, name):
    path = os.path.join(out_dir, name)
    return ["reproduce", *args, "--out", path], path


def sweep_calls(seed: int, out_dir: str):
    return [_call(["--figure", "4b", "--threads", "2", "--n", "2", "--h-list", str(h),
                   "--seed", str(seed)], out_dir, f"4b_h{h}.csv") for h in SWEEP_FIELDS]


def threshold_calls(seed: int, out_dir: str):
    return [_call(["--figure", "5", "--threads", "1", "--N-list", str(n),
                   "--seed", str(seed)], out_dir, f"5_N{n}.csv") for n in THRESHOLD_SITES]


def _run_queries(queries, probes=None):
    cpu, outputs = [], []
    for k, query in enumerate(queries):
        if probes is not None and k % PROBE_EVERY_QUERIES == 0:
            probes.append(host_probe_s())
        start = time.process_time()
        try:
            out = answer(query)
        except Exception as exc:  # a failed operation, counted by the checker
            out = {"error": f"{type(exc).__name__}: {exc}"}
        cpu.append(time.process_time() - start)
        outputs.append(out)
    return cpu, outputs


def run(workload: str, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    out_dir, probes = None, []
    if workload == "point-queries":
        queries = generate_queries(seed, QUERIES_PER_REP)
        once = lambda: _run_queries(queries, probes)  # noqa: E731
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        out_dir = tempfile.mkdtemp(dir=OUT_DIR)
        make = {"sweep-general": sweep_calls, "threshold-omega1": threshold_calls}[workload]
        calls = make(seed, out_dir)
        once = lambda: _cli_rows(calls, probes)  # noqa: E731
    if tracer is not None:
        tracer.install()
    reps = []
    begin = time.perf_counter()
    try:
        while True:
            start = time.perf_counter()
            cpu, outputs = once()
            end = time.perf_counter()
            reps.append({"wall_s": end - start, "cpu_s": cpu, "outputs": outputs})
            if end - begin + (end - start) > seconds:  # another repetition would overrun
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"reps": reps, "probes_s": probes, "peak_rss_mb": peak_kb / 1024.0,
            "spans": tracer.spans if tracer is not None else []}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-general", "threshold-omega1", "point-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, Tracer() if args.traced else None)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
