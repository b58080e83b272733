"""Acceptance gate: end-to-end checks the package must pass before release.

Each test prints exactly one PASS/FAIL line so the gate can be audited from
the pytest log.  Tolerances are pinned here on purpose; loosening them is a
release decision, not a test fix.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import spinbus as sb
from spinbus.oracle import SectorEvolver, field_constant, haar_average, oracle_rdm


def _report(tag, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {tag}: {status}{suffix}")
    assert ok, f"{tag} failed: {detail}"


def test_01_determinants_match_sector_oracle():
    """Determinant amplitudes against brute-force sector evolution, r = 1 and 2."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = ((5, 1), (6, 1), (7, 2), (8, 2), (9, 2))
    for n_sites, block in cases:
        for _ in range(50):
            h = rng.uniform(0.0, 50.0)
            t = rng.uniform(0.0, 100.0)
            spec = sb.build_chain(n_sites, block, h)
            dec = sb.decompose_chain(spec)
            phase = np.exp(1j * field_constant(spec) * t)

            src = int(rng.integers(1, n_sites + 1))
            dst = int(rng.integers(1, n_sites + 1))
            det1 = sb.amplitude_rp(dec, (dst,), (src,), t)
            orc1 = SectorEvolver(spec, 1).amplitude((dst,), (src,), t) * phase
            worst = max(worst, abs(det1 - orc1))

            sites = np.arange(1, n_sites + 1)
            s_pair = tuple(sorted(rng.choice(sites, 2, replace=False)))
            d_pair = tuple(sorted(rng.choice(sites, 2, replace=False)))
            det2 = sb.amplitude_rp(dec, d_pair, s_pair, t)
            orc2 = SectorEvolver(spec, 2).amplitude(d_pair, s_pair, t) * phase
            worst = max(worst, abs(det2 - orc2))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed <= 60.0
    _report("1 determinant-vs-oracle", ok,
            f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_02_reduced_state_equivalence():
    """Receiver-pair density matrix from minors equals the sector construction."""
    rng = np.random.default_rng(77)
    worst = 0.0
    physical = True
    for n_sites in (7, 8):
        for _ in range(20):
            h = rng.uniform(0.0, 50.0)
            t = rng.uniform(0.0, 100.0)
            spec = sb.build_chain(n_sites, 2, h)
            dec = sb.decompose_chain(spec)
            state = sb.sample_haar_2q(sb.SeededSampler(int(rng.integers(1 << 32))))
            rho = sb.evolve_receiver_pair(dec, state, t)
            rho_oracle = oracle_rdm(spec, state, t)
            worst = max(worst, float(np.abs(rho - rho_oracle).max()))
            physical &= bool(np.allclose(rho, rho.conj().T, atol=1e-12))
            physical &= abs(float(np.trace(rho).real) - 1.0) < 1e-10
            physical &= float(np.linalg.eigvalsh(rho).min()) > -1e-12
    ok = worst <= 1e-10 and physical
    _report("2 reduced-state-equivalence", ok,
            f"max dev {worst:.2e}, physicality {physical}")


def test_03_one_qubit_monte_carlo():
    """Closed-form one-qubit average against Bloch-sphere Monte Carlo, 3 sigma."""
    rng = np.random.default_rng(303)
    worst_z = 0.0
    for k in range(10):
        n_sites = int(rng.integers(5, 11))
        h = rng.uniform(0.0, 30.0)
        t = rng.uniform(0.0, 500.0)
        dec = sb.decompose_chain(sb.build_chain(n_sites, 1, h))
        closed = sb.avg_fidelity_1q(sb.one_qubit_amplitude(dec, t))
        mc = sb.avg_fidelity_1q_mc(dec, t, 100000, sb.SeededSampler(k))
        z = abs(closed.value - mc.value) / mc.stderr
        worst_z = max(worst_z, z)
    ok = worst_z <= 3.0
    _report("3 one-qubit-monte-carlo", ok, f"worst z {worst_z:.2f}")


def test_04_restricted_class_closed_forms():
    """Both restricted-slice closed forms against density-matrix Monte Carlo."""
    rng = np.random.default_rng(44)
    worst_z = 0.0
    for h in (5.0, 20.0):
        dec = sb.decompose_chain(sb.build_chain(7, 2, h))
        for cls, closed in (("omega1", sb.avg_fidelity_omega1),
                            ("omega2", sb.avg_fidelity_omega2)):
            for k in range(5):
                t = rng.uniform(0.0, 1000.0)
                cf = closed(dec, t)
                mc = sb.avg_fidelity_mc(dec, t, 100000,
                                        sb.SeededSampler(1000 + k),
                                        state_class=cls)
                z = abs(cf.value - mc.value) / mc.stderr
                worst_z = max(worst_z, z)
    ok = worst_z <= 3.0
    _report("4 restricted-class-closed-forms", ok, f"worst z {worst_z:.2f}")


def test_05_engineered_chain_is_perfect():
    """Fully engineered couplings give one-qubit transfer indistinguishable from 1."""
    req = sb.ScanRequest(sb.build_chain(7, profile=sb.ENGINEERED),
                         fidelity_class="one-qubit", t_max=10.0)
    res = sb.max_over_time(req)
    ok = res.fbar_max >= 1.0 - 1e-8
    _report("5 engineered-perfect-transfer", ok,
            f"fbar {res.fbar_max:.12f} at t {res.t_star:.6f}")


def test_06_barrier_field_trends():
    """Stronger barriers lift the general-state average; shorter chains win.

    Part (a) requires the largest swept field to remove at least 90 % of the
    bare chain's infidelity on BOTH chains: (F_h - F_0) / (1 - F_0) >= 0.9.
    It replaced an absolute gain F_h - F_0 >= 0.2, which no correct program
    can meet at N = 8: at t = 5287.291 the exact Haar average built from the
    sector oracle alone is 0.80105 (pinned in tests/test_oracle.py), so the
    bare N = 8 scan below reads at least that and unitarity caps any gain at
    1 - 0.80105 = 0.19895.  The normalized form still fails a weak barrier
    (N = 8 reads 0.20 at h = 2 and 0.88 at h = 10) and asks N = 7 for a gain
    of at least 0.596 rather than 0.2.  The detail line prints F_0, F_h, the
    gain, the normalized gain and the cap 1 - F_0 for each chain.
    """
    start = time.monotonic()
    fields = [0.0, 2.0, 5.0, 10.0, 15.0, 20.0]
    sweeps = {}
    for n_sites, t_max in ((7, 2.0e4), (8, 6.0e4)):
        chain = sb.build_chain(n_sites, 2, fields[-1])
        req = sb.ScanRequest(chain, fidelity_class="general", t_max=t_max,
                             threads=8)
        sweeps[n_sites] = sb.field_sweep(req, fields)
    elapsed = time.monotonic() - start

    # (a) share of the bare chain's infidelity 1 - F_0 that the largest
    # swept field removes
    ends = {}
    for n_sites, rows in sweeps.items():
        by_field = {r.field: r for r in rows}
        ends[n_sites] = (by_field[0.0].fbar_max, by_field[fields[-1]].fbar_max)
    lifts = {n_sites: (f_h - f_0) / (1.0 - f_0)
             for n_sites, (f_0, f_h) in ends.items()}

    # (b) matched level: the best value both chains reach; the shorter chain
    # must get there with a weaker field and an earlier optimal time
    level = min(max(r.fbar_max for r in rows) for rows in sweeps.values())
    achieve = {}
    for n_sites, rows in sweeps.items():
        reaching = min((r for r in rows if r.fbar_max >= level),
                       key=lambda r: r.field)
        achieve[n_sites] = reaching
    ok_a = lifts[7] >= 0.9 and lifts[8] >= 0.9
    ok_b = (achieve[7].field < achieve[8].field
            and achieve[7].t_star < achieve[8].t_star)
    ok = ok_a and ok_b and elapsed <= 600.0
    chains = "; ".join(
        f"N={n_sites}: F0 {f_0:.4f}, Fh {f_h:.4f}, gain {f_h - f_0:.4f}, "
        f"normalized {lifts[n_sites]:.3f}, cap {1.0 - f_0:.4f}"
        for n_sites, (f_0, f_h) in ends.items())
    _report("6 barrier-field-trends", ok,
            f"{chains}; "
            f"level {level:.4f} reached at h {achieve[7].field:g} vs "
            f"{achieve[8].field:g}, t* {achieve[7].t_star:.0f} vs "
            f"{achieve[8].t_star:.0f}, {elapsed:.0f}s")


def test_07_threshold_fields_finite():
    """Minimal barrier fields for the 0.95 single-excitation-slice target."""
    golden = {7: 5.2, 8: 7.1, 9: 5.9}
    template = sb.ScanRequest(sb.build_chain(7, 2), fidelity_class="omega1",
                              t_max=1.3e4, threads=8)
    results = sb.threshold_field(template, (7, 8, 9), target=0.95,
                                 h_resolution=0.1, h_cap=60.0)
    detail = []
    ok = True
    for res in results:
        want = golden[res.n_sites]
        finite = res.field is not None
        close = finite and abs(res.field - want) <= 0.2
        reaches = finite and res.fbar_max >= 0.95 and res.t_star <= 1.3e4
        ok &= finite and close and reaches
        shown = "unreached" if res.field is None else f"{res.field:.1f}"
        detail.append(f"N={res.n_sites}: h*={shown}")
    _report("7 threshold-fields", ok, ", ".join(detail))


def test_08_invariant_suite():
    """Named structural invariants: unitarity, group property, mirror
    symmetry, sector-norm conservation, Haar distribution, plus consistency
    of the vectorized evaluators."""
    import itertools

    from scipy import stats

    start = time.monotonic()
    rng = np.random.default_rng(888)
    ok = True
    notes = []

    # propagator unitarity and time reversal
    for _ in range(8):
        n_sites = int(rng.integers(5, 12))
        h = rng.uniform(0.0, 40.0)
        block = int(rng.integers(1, (n_sites - 3) // 2 + 1))
        dec = sb.decompose_chain(sb.build_chain(n_sites, block, h))
        t = rng.uniform(0.0, 100.0)
        sites = range(1, n_sites + 1)
        u = sb.propagator_minor(dec, sites, sites, t)
        ok &= bool(np.allclose(u @ u.conj().T, np.eye(n_sites), atol=1e-11))
        ok &= bool(np.allclose(sb.propagator_minor(dec, sites, sites, -t),
                               u.conj().T, atol=1e-11))
    notes.append("unitarity")

    # group property: composing minors over intermediate pairs equals G(t+s)
    dec = sb.decompose_chain(sb.build_chain(7, 2, rng.uniform(0.0, 30.0)))
    pairs = list(itertools.combinations(range(1, 8), 2))
    for _ in range(3):
        t, s = rng.uniform(0.0, 40.0, 2)
        direct = sb.amplitude_rp(dec, (6, 7), (1, 2), t + s)
        summed = sum(sb.amplitude_rp(dec, (6, 7), mid, s)
                     * sb.amplitude_rp(dec, mid, (1, 2), t) for mid in pairs)
        ok &= abs(direct - summed) < 1e-11
    notes.append("group")

    # mirror symmetry: barrier layouts are reflection symmetric, so the
    # crossed end-to-end amplitudes coincide
    for _ in range(4):
        n_sites = int(rng.integers(5, 11))
        dec_m = sb.decompose_chain(sb.build_chain(n_sites, 1, rng.uniform(0.0, 25.0)))
        t = rng.uniform(0.0, 80.0)
        a = sb.amplitude_1p(dec_m, n_sites, 2, t)
        b = sb.amplitude_1p(dec_m, n_sites - 1, 1, t)
        ok &= abs(a - b) < 1e-11
    notes.append("mirror")

    # sector-norm conservation in the brute-force evolver
    for r in (1, 2, 3):
        spec = sb.build_chain(8, 2, rng.uniform(0.0, 20.0))
        ev = SectorEvolver(spec, r)
        dim = len(ev.basis)
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        out = ev.evolve(vec, rng.uniform(0.0, 200.0))
        ok &= abs(np.linalg.norm(out) - 1.0) < 1e-12
    notes.append("sector-norm")

    # Haar distribution: squared overlap with a basis state is Beta(1, 3)
    mat_h = sb.sample_haar_2q(sb.SeededSampler(1234), size=40000)
    ks = stats.kstest(np.abs(mat_h[:, 0]) ** 2, stats.beta(1, 3).cdf)
    ok &= ks.pvalue > 1e-3
    notes.append("haar-ks")

    # pair-transfer probability conservation
    dec = sb.decompose_chain(sb.build_chain(8, 2, rng.uniform(0.0, 30.0)))
    for _ in range(3):
        t = rng.uniform(0.0, 60.0)
        total = sum(abs(sb.amplitude_rp(dec, pair, (1, 2), t)) ** 2
                    for pair in itertools.combinations(range(1, 9), 2))
        ok &= abs(total - 1.0) < 1e-11
    notes.append("pair-norm")

    # density matrices stay physical and fidelities stay in [0, 1]
    sampler = sb.SeededSampler(5150)
    for _ in range(10):
        state = sb.sample_haar_2q(sampler)
        t = rng.uniform(0.0, 300.0)
        rho = sb.evolve_receiver_pair(dec, state, t)
        eigs = np.linalg.eigvalsh(rho)
        ok &= eigs.min() > -1e-12 and abs(eigs.sum() - 1.0) < 1e-10
        fid = sb.fidelity_against(rho, state)
        ok &= -1e-12 <= fid <= 1.0 + 1e-12
    notes.append("rdm-physical")

    # closed-form grids stay in [0, 1] and match scalar evaluation
    ts = np.linspace(0.0, 2000.0, 400)
    for values, scalar in ((sb.omega1_values, sb.avg_fidelity_omega1),
                           (sb.omega2_values, sb.avg_fidelity_omega2)):
        grid = values(dec, ts)
        ok &= bool(np.all(grid >= -1e-12) and np.all(grid <= 1.0 + 1e-12))
        k = int(rng.integers(0, ts.size))
        ok &= abs(grid[k] - scalar(dec, float(ts[k])).value) < 1e-12
    notes.append("closed-form-grids")

    # closed-form general average equals the Haar average, exact on a
    # 2-design, in dimension 4, of the receiver state
    probe = np.array([3.0, 170.0, 990.0])
    vals = sb.general_values(dec, probe)
    for k, t in enumerate(probe):
        exact = haar_average(lambda state: sb.evolve_receiver_pair(dec, state, t))
        ok &= abs(vals[k] - exact) < 1e-12
    notes.append("evaluator")

    # samplers emit unit-norm states
    mat = sb.sample_haar_2q(sb.SeededSampler(606), size=4096)
    ok &= bool(np.allclose(np.sum(np.abs(mat) ** 2, axis=1), 1.0, atol=1e-12))
    notes.append("sampler-norm")

    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 300.0
    _report("8 invariant-suite", ok, f"{'+'.join(notes)}, {elapsed:.0f}s")


def test_09_cli_thread_determinism(tmp_path):
    """The scan CLI writes byte-identical CSVs regardless of thread count."""
    # the child imports spinbus from this checkout's src/, installed or not
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    digests = []
    for threads in (1, 8):
        out = tmp_path / f"scan_{threads}.csv"
        cmd = [sys.executable, "-m", "spinbus.cli", "scan-field",
               "--N", "7", "--class", "general", "--h-list", "5,12",
               "--t-max", "2000", "--seed", "0",
               "--threads", str(threads), "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        manifest = json.loads((tmp_path / f"scan_{threads}.csv.manifest.json").read_text())
        assert manifest["outputs"][f"scan_{threads}.csv"]["sha256"] == digests[-1]
    ok = digests[0] == digests[1]
    _report("9 cli-thread-determinism", ok, f"sha256 {digests[0][:12]}")
