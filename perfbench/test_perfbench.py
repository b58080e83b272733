"""Tests of the benchmark itself: generator, checker, tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import spinbus  # noqa: E402
import workload  # noqa: E402
from tracing import PER_LAYER, QUERY_KINDS, Tracer, layer_metrics  # noqa: E402


def _first_of(kind, queries, limit=None):
    return next(i for i, q in enumerate(queries)
                if q["kind"] == kind and (limit is None or q["N"] <= limit))


def test_generator_is_a_function_of_the_seed():
    a = workload.generate_queries(11, 70)
    assert a == workload.generate_queries(11, 70)
    assert a != workload.generate_queries(12, 70)
    assert [q["kind"] for q in a[:7]] == list(QUERY_KINDS)
    assert all(7 <= q["N"] <= 16 and 0 <= q["h"] <= 30 and 0 <= q["t"] <= 2e4 for q in a)


def _threshold_outputs(seed, shift=None):
    outputs = []
    for n in workload.THRESHOLD_SITES:
        h = check.REFERENCE["threshold-omega1"][str(n)]
        if n == shift:
            h += 0.1
        row = {"N": str(n), "n": "2", "h": repr(h), "t_star": "500.0",
               "fbar_max": "0.96", "class": "omega1", "seed": str(seed)}
        outputs.append({"code": 0, "row": row})
    return outputs


def test_checker_rejects_threshold_off_by_one_step():
    assert check.verdicts("threshold-omega1", 3, _threshold_outputs(3)) == [None] * 5
    bad = check.verdicts("threshold-omega1", 3, _threshold_outputs(3, shift=9))
    assert [v is None for v in bad] == [True, True, False, True, True]


def test_checker_rejects_sweep_row_off_reference():
    outputs = []
    for h in workload.SWEEP_FIELDS:
        row = {"N": "8", "n": "2", "h": str(h), "t_star": "1000.0", "class": "general",
               "seed": "0", "fbar_max": repr(check.REFERENCE["sweep-general"][str(h)])}
        outputs.append({"code": 0, "row": row})
    assert check.verdicts("sweep-general", 0, outputs) == [None] * 6
    outputs[2]["row"]["fbar_max"] = repr(float(outputs[2]["row"]["fbar_max"]) + 0.02)
    outputs[4] = {"code": 1, "row": None}
    assert [v is None for v in check.verdicts("sweep-general", 0, outputs)] == \
        [True, True, False, True, False, True]


@pytest.mark.parametrize("kind", ["rdm", "amp2", "amp3", "omega1", "general"])
def test_checker_rejects_perturbed_query_output(kind):
    queries = workload.generate_queries(5, workload.QUERIES_PER_REP)
    query = queries[_first_of(kind, queries, limit=check.ORACLE_MAX_SITES)]
    out = workload.answer(query)
    assert check._check_query(query, out) is None
    bad = list(out)
    bad[0] += 10 * out[1] if kind == "general" else 1e-6
    assert check._check_query(query, bad) is not None


def test_failures_flag_repetitions_that_differ():
    first = [[1.0], [2.0]]
    reps = [{"outputs": first}, {"outputs": [[1.0], [2.5]]}]
    assert check.failures(reps, first, [None, None]) == \
        ["rep 1 op 1: output differs from the first repetition"]
    assert len(check.failures(reps, first, ["wrong", None])) == 3


def test_exact_general_average_matches_large_monte_carlo():
    dec = spinbus.decompose_chain(spinbus.build_chain(9, 2, 6.5))
    mc = spinbus.avg_fidelity_mc(dec, 321.0, 100000, spinbus.SeededSampler(1))
    assert abs(check.exact_general_average(dec, 321.0) - mc.value) < 4 * mc.stderr


def test_traced_and_untraced_runs_give_identical_outputs(tmp_path):
    queries = workload.generate_queries(2, 70)
    plain = [workload.answer(q) for q in queries]
    calls = workload.threshold_calls(2, str(tmp_path))[:1]
    plain_rows = workload._cli_rows(calls)[1]
    original = spinbus.amplitude_rp
    tracer = Tracer()
    tracer.install()
    try:
        traced = [workload.answer(q) for q in queries]
        traced_rows = workload._cli_rows(calls)[1]
    finally:
        tracer.uninstall()
    assert traced == plain and traced_rows == plain_rows
    assert spinbus.amplitude_rp is original
    names = {span[1] for span in tracer.spans}
    assert {"amplitudes.amplitude_rp", "scans.max_over_time", "cli.parse_and_dispatch",
            "spectral.propagator_minor_grid", "states.sample_haar_2q"} <= names
    metrics = layer_metrics(tracer.spans, reps=1)
    assert metrics["scans.scan_count"] > 0 and metrics["scans.grid_points"] > 0
    assert set(metrics) | {f"query.{k}.{p}" for k in QUERY_KINDS for p in ("p50_ms", "p99_ms")} \
        | {"query.p50_ms", "trace.overhead_frac"} == set(PER_LAYER)


def test_self_time_subtracts_the_union_of_children():
    # a scan of 10 s whose two evaluator calls overlap on worker threads
    spans = [(1, "scans.max_over_time", 0.0, 10.0, 0, 0),
             (2, "fidelity.omega1_values", 1.0, 6.0, 1, 1000),
             (3, "fidelity.omega1_values", 4.0, 8.0, 1, 1000),
             (4, "fidelity.omega1_values", 8.5, 9.0, 1, 2)]
    metrics = layer_metrics(spans, reps=1)
    assert metrics["scans.self_s"] == pytest.approx(10.0 - 7.5)
    assert metrics["scans.grid_points"] == 2000 and metrics["scans.refine_points"] == 2
    assert metrics["fidelity.omega1_self_us_per_point"] == pytest.approx(9.5e6 / 2002)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "point-queries",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_the_metrics_the_code_prints():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_host_factor_scales_to_the_reference_probe_time():
    import run

    ref = run.PROBE_REF_S
    assert run.host_factor([ref, 3 * ref, 0.5 * ref]) == pytest.approx(1.0)
    assert run.host_factor([2 * ref] * 4) == pytest.approx(0.5)
    assert workload.host_probe_s() > 0
