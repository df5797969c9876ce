import ast
import glob
import json
import os
import subprocess
import sys
import types

import pytest

import qchan


def run_python(*args, timeout=120):
    src = os.path.dirname(os.path.dirname(qchan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_all_lists_the_documented_submodules():
    listing = qchan.__doc__.split("Submodules:")[1].strip().splitlines()
    named = [line.split()[0] for line in listing]
    assert qchan.__all__ == named
    namespace = {}
    exec("from qchan import *", namespace)
    for name in named:
        assert isinstance(namespace[name], types.ModuleType)


def test_cli_runs_as_a_module_without_warnings():
    proc = run_python("-W", "error::RuntimeWarning", "-m", "qchan.cli",
                      "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: qchan" in proc.stdout


SCIPY_PROBE = """
import contextlib, io, json, os, sys
import numpy as np

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import qchan
seen = {"import": scipy_loaded()}
from qchan import capacity, cli
workdir = sys.argv[1]
path = os.path.join(workdir, "ad.json")
with open(path, "w") as fh:
    json.dump({"builder": "amplitude_damping", "gamma": 0.5}, fh)
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["analyze", path, "--all"], ["decompose", path],
                 ["ellipsoid", path, os.path.join(workdir, "e.csv")]):
        codes.append(cli.main(argv))
        seen[argv[0]] = scipy_loaded()
phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
rho = 0.8 * np.outer(phi, phi) + 0.05 * np.eye(4)
capacity.classical_correlations(rho)
seen["classical_correlations"] = scipy_loaded()
capacity.fidelity_optimize_one_side(rho)
seen["fidelity_optimize_one_side"] = scipy_loaded()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_no_route_loads_scipy(tmp_path):
    """import qchan, the CLI commands and both bipartite optimizers load
    numpy only; analyze --all runs holevo_chi.

    Run in a fresh process: the test session itself has scipy loaded
    (its LinAlgWarning filter imports scipy.linalg).
    """
    proc = run_python("-c", SCIPY_PROBE, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0, 0]
    assert out["seen"] == dict.fromkeys(
        ["import", "analyze", "decompose", "ellipsoid",
         "classical_correlations", "fidelity_optimize_one_side"], [])


DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs_clean(demo):
    proc = run_python("-W", "error::RuntimeWarning", demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return set()


def test_every_private_module_name_is_used():
    """Each module-level _name in qchan is read somewhere in qchan other
    than in its own definition: a helper whose last caller went is
    deleted with it."""
    package = os.path.dirname(qchan.__file__)
    defined, used = {}, set()
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            own = _defined_names(top)
            for name in own:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = os.path.basename(path)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                else:
                    continue
                if ref not in own:
                    used.add(ref)
    assert len(defined) > 50
    assert {n: m for n, m in defined.items() if n not in used} == {}
