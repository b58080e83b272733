"""Correctness of a workload's outputs, judged after the timed process exits.

Each operation of the first repetition is checked against a reference that
does not come from the code path being timed; every later repetition, and
the traced run, must then repeat the first repetition's outputs exactly.

sweep-general     fbar_max per field within SWEEP_FBAR_TOL of the rows in
                  reference.json (recorded with seed 0; another seed changes
                  the Monte Carlo sample set by far less than the tolerance).
threshold-omega1  h* exactly as in reference.json, reaching the 0.95 target.
point-queries     amplitudes and the receiver-pair matrix against the sector
                  oracle for N <= 14 (physical sanity above that), closed forms
                  against the grid evaluators at the same t, and the general
                  Monte Carlo average within MC_STDERRS standard errors of the
                  exact Haar average.
"""

from __future__ import annotations

import json
import os

import numpy as np

import spinbus
from spinbus.oracle import SectorEvolver, field_constant, oracle_rdm
from workload import SWEEP_FIELDS, THRESHOLD_SITES, QUERIES_PER_REP, generate_queries, \
    query_chain, query_state

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as _fh:
    REFERENCE = json.load(_fh)

SWEEP_FBAR_TOL = 1e-2
THRESHOLD_TARGET = 0.95
ORACLE_MAX_SITES = 14
ORACLE_TOL = 1e-10
# Both the program and the oracle round each phase lambda*t to within
# eps*|lambda|*t; at t = 2e4 and h = 30 that is ~3e-10, above ORACLE_TOL.
# Deviations measured on 300 random queries stayed below 2.8 of this unit.
PHASE_ROUNDOFF_FACTOR = 16.0
CLOSED_FORM_TOL = 1e-12
MC_STDERRS = 5.0


def oracle_tolerance(dec, t: float) -> float:
    """ORACLE_TOL plus the floating-point phase roundoff at time t."""
    scale = float(np.abs(dec.eigenvalues).max()) * abs(t)
    return ORACLE_TOL + PHASE_ROUNDOFF_FACTOR * np.finfo(float).eps * scale


def exact_general_average(dec, t: float) -> float:
    """Haar average of <psi|rho(t)|psi> over all two-qubit sender states.

    With the 4-design identity E[p_a p_c* p_b* p_d] = (d_ab d_cd + d_ad d_bc)/20
    the average is (sum_b Tr Phi(|b><b|) + sum_{a,c} Phi(|a><c|)[a', c'])/20,
    where Phi maps a sender operator to the receiver-pair matrix and a' is
    the receiver slot of sender basis state a.  Phi(|a><c|) follows from
    evolve_receiver_pair on four pure states by polarization.
    """
    def phi(vec):
        vec = np.asarray(vec, dtype=complex)
        norm2 = float(np.vdot(vec, vec).real)
        state = spinbus.TwoQubitState.from_vector(vec, normalize=True)
        return norm2 * spinbus.evolve_receiver_pair(dec, state, t)

    basis = np.eye(4, dtype=complex)
    diag = [phi(basis[b]) for b in range(4)]
    slot = [3, 2, 1, 0]  # sender [a00, a01, a10, a11] -> receiver (11, 10, 01, 00)
    total = sum(np.trace(m).real for m in diag)
    for a in range(4):
        total += diag[a][slot[a], slot[a]].real
        for c in range(4):
            if c == a:
                continue
            op = (phi(basis[a] + basis[c]) + 1j * phi(basis[a] + 1j * basis[c])
                  - (1 + 1j) * (diag[a] + diag[c])) / 2
            total += op[slot[a], slot[c]].real
    return total / 20.0


def _check_query(query: dict, out) -> str | None:
    if isinstance(out, dict):
        return out["error"]
    kind, n, t = query["kind"], query["N"], query["t"]
    spec = query_chain(query)
    dec = spinbus.decompose_chain(spec)
    if kind in ("amp2", "amp3"):
        amp = complex(out[0], out[1])
        if n > ORACLE_MAX_SITES:
            return None if abs(amp) <= 1 + 1e-12 else f"|amplitude| = {abs(amp)} > 1"
        r = 2 if kind == "amp2" else 3
        ref = SectorEvolver(spec, r).amplitude(tuple(range(n - r + 1, n + 1)),
                                               tuple(range(1, r + 1)), t)
        dev = abs(amp - ref * np.exp(1j * field_constant(spec) * t))
        tol = oracle_tolerance(dec, t)
        return None if dev <= tol else f"amplitude off the oracle by {dev:.3e} > {tol:.1e}"
    if kind == "rdm":
        rho = np.array(out[:16]).reshape(4, 4) + 1j * np.array(out[16:]).reshape(4, 4)
        if n > ORACLE_MAX_SITES:
            dev = max(float(np.abs(rho - rho.conj().T).max()),
                      abs(float(np.trace(rho).real) - 1.0),
                      max(0.0, -float(np.linalg.eigvalsh(rho).min())))
            return None if dev <= ORACLE_TOL else f"rho not a density matrix ({dev:.3e})"
        dev = float(np.abs(rho - oracle_rdm(spec, query_state(query), t)).max())
        tol = oracle_tolerance(dec, t)
        return None if dev <= tol else f"rho off the oracle by {dev:.3e} > {tol:.1e}"
    if kind == "general":
        value, stderr = out
        ref = exact_general_average(dec, t)
        if not stderr > 0 or abs(value - ref) > MC_STDERRS * stderr:
            return f"MC {value} +- {stderr} vs exact {ref}"
        return None
    grid = {"1q": spinbus.one_qubit_values, "omega1": spinbus.omega1_values,
            "omega2": spinbus.omega2_values}[kind]
    ref = float(grid(dec, np.array([t]))[0])
    dev = abs(out[0] - ref)
    return None if dev <= CLOSED_FORM_TOL else f"closed form off the grid by {dev:.3e}"


def _check_row(workload: str, key, seed: int, out) -> str | None:
    if out["code"] != 0 or out["row"] is None:
        return f"CLI exit code {out['code']}"  # or the exception it raised
    row = out["row"]
    fbar, h, t_star = float(row["fbar_max"]), float(row["h"]), float(row["t_star"])
    if int(row["seed"]) != seed or int(row["n"]) != 2:
        return f"row echoes the wrong request: {row}"
    if workload == "sweep-general":
        want = REFERENCE["sweep-general"][str(key)]
        if int(row["N"]) != 8 or h != key or row["class"] != "general" \
                or not 0 <= t_star <= 6.0e4:
            return f"row echoes the wrong request: {row}"
        if abs(fbar - want) > SWEEP_FBAR_TOL:
            return f"fbar_max {fbar} vs reference {want}"
        return None
    want = REFERENCE["threshold-omega1"][str(key)]
    if int(row["N"]) != key or row["class"] != "omega1" or not 0 <= t_star <= 1.3e4:
        return f"row echoes the wrong request: {row}"
    if abs(h - want) > 1e-9 or fbar < THRESHOLD_TARGET:
        return f"h* = {h} (fbar {fbar}) vs reference {want}"
    return None


def verdicts(workload: str, seed: int, outputs) -> list[str | None]:
    """One verdict per operation: None when correct, else the reason."""
    if workload == "point-queries":
        queries = generate_queries(seed, QUERIES_PER_REP)
        return [_check_query(q, out) for q, out in zip(queries, outputs)]
    keys = SWEEP_FIELDS if workload == "sweep-general" else THRESHOLD_SITES
    return [_check_row(workload, key, seed, out) for key, out in zip(keys, outputs)]


def failures(reps, first, first_verdicts) -> list[str]:
    """Failed operations of a run, given the first repetition's outputs and verdicts."""
    found = []
    for r, rep in enumerate(reps):
        for i, (out, verdict) in enumerate(zip(rep["outputs"], first_verdicts)):
            if verdict is not None:
                found.append(f"rep {r} op {i}: {verdict}")
            elif out != first[i]:
                found.append(f"rep {r} op {i}: output differs from the first repetition")
    return found
