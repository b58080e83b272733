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

deferred = ("spinbus.scans", "spinbus.oracle", "spinbus.amplitudes", "concurrent.futures")
dec = spinbus.decompose_chain(spinbus.build_chain(8, 2, 20.0))
spinbus.avg_fidelity_omega1(dec, 50.0)
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
    """import spinbus loads what a point query needs; the names of scans,
    oracle and amplitudes load their module on first access, each cached as
    its module's own object, and every other name raises AttributeError."""
    assert _fresh_python(_LAZY_SURFACE).splitlines() == ["[]", "ok"]

