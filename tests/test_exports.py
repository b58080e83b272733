"""The package's public names and what importing it loads."""

import os
import subprocess
import sys

import spinbus


def test_every_exported_name_resolves():
    missing = [name for name in spinbus.__all__ if not hasattr(spinbus, name)]
    assert not missing, missing


def test_exports_have_no_duplicates():
    assert len(spinbus.__all__) == len(set(spinbus.__all__))


def _fresh_python(code):
    """What a fresh interpreter that imports spinbus from this checkout prints."""
    src = os.path.dirname(os.path.dirname(spinbus.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: the package and its CLI load no scipy."""
    code = ("import sys, spinbus, spinbus.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == "[]"


_LAZY_SURFACE = """
import sys
import spinbus

deferred = ("spinbus.bounds", "spinbus.scans", "spinbus.oracle", "spinbus.amplitudes",
            "concurrent.futures")
# one closed-form query of each kind
dec = spinbus.decompose_chain(spinbus.build_chain(8, 2, 20.0))
spinbus.avg_fidelity_omega1(dec, 50.0)
spinbus.avg_fidelity_omega2(dec, 50.0)
spinbus.general_values(dec, (50.0,))
spinbus.avg_fidelity_1q(spinbus.one_qubit_amplitude(dec, 50.0))
spinbus.evolve_receiver_pair(dec, spinbus.TwoQubitState(0.6, 0.0, 0.8, 0.0), 50.0)
spinbus.amplitude_1p(dec, 8, 1, 50.0)
print(sorted(m for m in deferred if m in sys.modules))

namespace = {}
exec("from spinbus import *", namespace)
assert set(spinbus.__all__) <= set(namespace), set(spinbus.__all__) - set(namespace)

# each name is its defining module's own object: a function's or class's
# module, or for a constant one of the modules every call path loads
eager = [spinbus.chain, spinbus.fidelity, spinbus.reduced, spinbus.spectral, spinbus.states]
for name in spinbus.__all__:
    value = getattr(spinbus, name)
    home = getattr(value, "__module__", None)
    homes = [sys.modules[home]] if home in sys.modules and home != "builtins" else eager
    assert any(vars(m).get(name) is value for m in homes), name
    assert namespace[name] is value, name
assert set(spinbus.__all__) <= set(vars(spinbus))  # each resolved once, then cached
assert set(spinbus.__all__) <= set(dir(spinbus))
try:
    spinbus.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("spinbus.no_such_name resolved")
print("ok")
"""


def test_a_point_query_loads_no_scan_oracle_or_amplitudes():
    """import spinbus loads what a point query needs: a closed-form query of
    any kind loads neither the scans nor their bounds.  The names of scans,
    oracle and amplitudes load their module on first access, each cached as
    its module's own object, and every other name raises AttributeError."""
    assert _fresh_python(_LAZY_SURFACE).splitlines() == ["[]", "ok"]


def test_scans_load_their_bounds():
    """bounds is the scans' module: importing scans loads it."""
    code = "import sys, spinbus.scans; print('spinbus.bounds' in sys.modules)"
    assert _fresh_python(code) == "True"



def test_a_closed_form_cli_query_loads_no_hashlib():
    """The CLI loads hashlib (and OpenSSL's libcrypto) only to write a
    manifest: closed-form queries to stdout leave it unloaded."""
    code = """
import contextlib, io, sys
from spinbus.cli import parse_and_dispatch

chain = ["--N", "7", "--n", "2", "--h", "5"]
queries = [["fidelity", *chain, "--t", "41.2", "--class", "general"],
           ["fidelity", *chain, "--t", "41.2", "--class", "one-qubit"],
           ["amplitude", *chain, "--sources", "1,2", "--targets", "6,7", "--t", "41.2"],
           ["rdm", *chain, "--state", "1,0,0,0,0,0,0,0", "--t", "41.2"],
           ["spectrum", *chain]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [parse_and_dispatch(argv) for argv in queries]
print(codes, sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules))
"""
    assert _fresh_python(code) == "[0, 0, 0, 0, 0] []"
