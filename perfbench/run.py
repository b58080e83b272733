"""spinbus benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
NAME is sweep-general, threshold-omega1 or point-queries (see workload.py
and README.md).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it record the
provenance of the run, the per-operation failures and, with --trace 1, what
each per-layer metric should move.

--trace 0  end-to-end metrics of an untraced run.  Times are CPU times
           (user plus system, on all threads of the process): on a shared
           host the wall clock also counts the time the host takes the CPU
           away.  CPU time still drifts with the host's load for minutes, so
           every time is scaled by PROBE_REF_S / (median CPU time of the host
           speed probes run between the operations of the same run); see
           README.md.  Every operation of the fixed work is timed in each
           repetition, and its median over the repetitions is its latency.
             setup_s        median CPU time of SETUP_PROBES fresh
                            interpreters that import spinbus and return a
                            first one-point value
             ref_cpu_s      the fixed work: sum of the operation latencies
             peak_rss_mb    peak RSS of the workload's own process
             ref_op_p99_ms  99th percentile of the operation latencies
           The unscaled CPU times, the scale factor and the wall time of
           each repetition are printed on the `# run` line.
--trace 1  per-layer metrics: an untraced run, then a traced run of the
           same work in a fresh process, each for half of --seconds.  Spans
           are written to .perfbench_out/ when the run ends.

Failed or wrong operations are reported as `failed` out of `attempted`
(fail_frac = failed / attempted); outputs are checked after the timed
process has exited.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# scan threads x BLAS threads must not exceed the cores; sweep-general uses
# two scan threads, so BLAS stays single-threaded everywhere
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = ("sweep-general", "threshold-omega1", "point-queries")
HOLDOUT_SEED = 7919  # kept out of tuning; a claimed gain must also hold here
SETUP_PROBES = 9
SETUP_HOST_PROBES = 3  # host speed probes before each setup probe
# CPU time of workload.host_probe_s on the reference host; every end-to-end
# time is scaled by PROBE_REF_S / (median probe time of its own run)
PROBE_REF_S = 0.020
SETUP_PROBE = ("import spinbus; "
               "dec = spinbus.decompose_chain(spinbus.build_chain(8, 2, 20.0)); "
               "print(repr(spinbus.avg_fidelity_omega1(dec, 50.0).value))")
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "ref_cpu_s": "s", "peak_rss_mb": "MB", "ref_op_p99_ms": "ms"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def _run(cmd, deadline):
    try:
        return subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {cmd}") from None


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(deadline) -> tuple[float, list[str], list[float]]:
    """Median CPU time of fresh interpreters answering one point query.

    Host speed probes run in this process before each interpreter; their
    CPU times are returned too.
    """
    from workload import host_probe_s

    times, outputs, probes = [], [], []
    for _ in range(SETUP_PROBES):
        probes += [host_probe_s() for _ in range(SETUP_HOST_PROBES)]
        start = _children_cpu_s()
        proc = _run([sys.executable, "-c", SETUP_PROBE], deadline)
        times.append(_children_cpu_s() - start)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        outputs.append(proc.stdout.strip())
    return statistics.median(times), outputs, probes


def run_workload(workload, seed, seconds, traced, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        cmd.append("--traced")
    proc = _run(cmd, deadline)
    if proc.returncode != 0:
        raise BenchError(f"workload process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "git_commit": _git_commit(),
        "holdout_seed": HOLDOUT_SEED,
    }


def _quantile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(values, dtype=float), q))


def op_medians_ms(reps) -> list[float]:
    """Each operation's median CPU time over the repetitions, in ms."""
    return [1e3 * statistics.median(cpu) for cpu in zip(*(r["cpu_s"] for r in reps))]


def host_factor(probes) -> float:
    """PROBE_REF_S over the median probe time: below 1 when the host runs slow."""
    return PROBE_REF_S / statistics.median(probes)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S
    # before numpy is imported here or in any child; the CLI's thread default
    # comes from QST_THREADS, so it must not leak in from the caller
    os.environ.update(PINNED_ENV)
    os.environ.pop("QST_THREADS", None)

    if not os.path.isfile(os.path.join(SRC, "spinbus", "__init__.py")):
        print(f"perfbench: no spinbus package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import check
    import spinbus
    from tracing import PER_LAYER, QUERY_KINDS, layer_metrics
    from workload import OUT_DIR

    try:
        setup = None if args.trace else measure_setup(deadline)
        # a traced run splits --seconds between its untraced and traced halves
        seconds = args.seconds / 2 if args.trace else args.seconds
        base = run_workload(args.workload, args.seed, seconds, False, deadline)
        traced = run_workload(args.workload, args.seed, seconds, True, deadline) \
            if args.trace else None
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    first = base["reps"][0]["outputs"]
    first_verdicts = check.verdicts(args.workload, args.seed, first)
    failures = check.failures(base["reps"], first, first_verdicts)
    attempted = sum(len(rep["outputs"]) for rep in base["reps"])
    if traced is not None:
        failures += [f"traced {f}" for f in check.failures(traced["reps"], first,
                                                            first_verdicts)]
        attempted += sum(len(rep["outputs"]) for rep in traced["reps"])
    correct = not failures
    if setup is not None:
        dec = spinbus.decompose_chain(spinbus.build_chain(8, 2, 20.0))
        want = spinbus.avg_fidelity_omega1(dec, 50.0).value
        if any(abs(float(out) - want) > check.CLOSED_FORM_TOL for out in setup[1]):
            correct = False
            print(f"# failed: setup probe printed {setup[1]}, expected {want!r}")

    op_ms = op_medians_ms(base["reps"])
    if args.trace:
        metrics = {name: _metric(value, PER_LAYER[name][0]) for name, value in
                   layer_metrics(traced["spans"], len(traced["reps"])).items()}
        by_kind = {}
        metrics["query.p50_ms"] = _metric(_quantile(op_ms, 50) if args.workload
                                          == "point-queries" else 0.0, "ms")
        if args.workload == "point-queries":
            queries = check.generate_queries(args.seed, check.QUERIES_PER_REP)
            for query, ms in zip(queries, op_ms):
                by_kind.setdefault(query["kind"], []).append(ms)
        for kind in QUERY_KINDS:
            lat = by_kind.get(kind)
            metrics[f"query.{kind}.p50_ms"] = _metric(_quantile(lat, 50) if lat else 0.0, "ms")
            metrics[f"query.{kind}.p99_ms"] = _metric(_quantile(lat, 99) if lat else 0.0, "ms")
        overhead = (sum(op_medians_ms(traced["reps"])) * host_factor(traced["probes_s"])
                    / (sum(op_ms) * host_factor(base["probes_s"])) - 1)
        metrics["trace.overhead_frac"] = _metric(overhead, "frac")
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "size"],
                       "spans": traced["spans"]}, fh)
    else:
        raw = {"setup_cpu_s": setup[0], "cpu_s": sum(op_ms) / 1e3,
               "op_cpu_p99_ms": _quantile(op_ms, 99)}
        factor = host_factor(base["probes_s"])
        values = {"setup_s": raw["setup_cpu_s"] * host_factor(setup[2]),
                  "ref_cpu_s": raw["cpu_s"] * factor,
                  "peak_rss_mb": base["peak_rss_mb"],
                  "ref_op_p99_ms": raw["op_cpu_p99_ms"] * factor}
        metrics = {name: _metric(values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "repetition_wall_s": [rep["wall_s"] for rep in base["reps"]],
              "repetition_cpu_s": [sum(rep["cpu_s"]) for rep in base["reps"]],
              "host_probes": len(base["probes_s"]),
              "host_factor": host_factor(base["probes_s"]),
              "operations": attempted,
              "fail_frac": len(failures) / attempted, "provenance": provenance()}
    if not args.trace:
        report["setup_host_factor"] = host_factor(setup[2])
        report["unscaled"] = raw
    print("# run " + json.dumps(report))
    for failure in failures[:20]:
        print(f"# failed: {failure}")
    for name, metric in metrics.items():
        moves = f"  (moves {PER_LAYER[name][2]})" if args.trace else ""
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}{moves}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
