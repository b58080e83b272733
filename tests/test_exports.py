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


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: the package and its CLI load no scipy."""
    src = os.path.dirname(os.path.dirname(spinbus.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, spinbus, spinbus.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
