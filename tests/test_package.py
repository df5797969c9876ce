import os
import subprocess
import sys
import types

import qchan


def test_all_lists_the_documented_submodules():
    listing = qchan.__doc__.split("Submodules:")[1].strip().splitlines()
    named = [line.split()[0] for line in listing]
    assert qchan.__all__ == named
    namespace = {}
    exec("from qchan import *", namespace)
    for name in named:
        assert isinstance(namespace[name], types.ModuleType)


def test_cli_runs_as_a_module_without_warnings():
    src = os.path.dirname(os.path.dirname(qchan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qchan.cli",
         "--help"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: qchan" in proc.stdout
