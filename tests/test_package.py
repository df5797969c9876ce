import ast
import glob
import json
import os
import subprocess
import sys
import types

import pytest

import qchan
from qchan import numkit, qubit


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


BLAS_PROBE = """
import contextlib, glob, io, json, os, sys, time
import numpy as np
from qchan import channel, cli, extremal

def worker_cpu():
    # user + system CPU seconds of every thread but the main one
    ticks = 0
    for stat in glob.glob("/proc/self/task/*/stat"):
        if stat.split(os.sep)[-2] == str(os.getpid()):
            continue
        with open(stat) as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")

rng = np.random.default_rng(5)

def random_kraus(n, rank):
    g = rng.normal(size=(n * rank, n)) + 1j * rng.normal(size=(n * rank, n))
    q = np.linalg.qr(g)[0]
    return [q[n * k:n * k + n] for k in range(rank)]

kraus = [random_kraus(3, rank) for rank in (7, 8, 9) for _ in range(3)]
kraus += [random_kraus(4, rank) for rank in (12, 16)]
path = os.path.join(sys.argv[1], "qutrit.json")
with open(path, "w") as fh:
    json.dump({"kraus": [[[[z.real, z.imag] for z in row] for row in k]
                         for k in kraus[6]]}, fh)

def work():
    for ks in kraus:
        extremal.decompose_into_extremals(channel.Channel(ks))
    with contextlib.redirect_stdout(io.StringIO()):
        return [cli.main(["analyze", path, "--all"]),
                cli.main(["decompose", path])]

work()
time.sleep(0.5)
before = worker_cpu()
codes = work()
print(json.dumps({"threads": len(glob.glob("/proc/self/task/*")),
                  "codes": codes, "gain": worker_cpu() - before}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads thread CPU times from /proc")
def test_qutrit_routes_leave_the_blas_pool_idle(tmp_path):
    """Decompositions of qutrit channels of rank 7 to 9 and of n = 4
    channels of rank 12 and 16, analyze --all and decompose run on the
    calling thread: the BLAS worker threads that numpy's import starts
    gain less than 30 ms of CPU time.

    Run in a fresh process, after a warm-up and a pause that lets the
    workers fall asleep."""
    proc = run_python("-c", BLAS_PROBE, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    if out["threads"] == 1:
        pytest.skip("numpy runs without worker threads")
    assert out["codes"] == [0, 0]
    assert out["gain"] < 0.03


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


# the only tolerance parameters: --tol reaches the first two, and callers
# pass the other two a threshold other than the default
TOLERANCE_PARAMETERS = {"channel.rank", "qubit.is_entanglement_breaking",
                        "numkit.psd_factor", "extremal._perturbation"}


def _functions(body, prefix):
    """(qualified name, node) of every function and method under body."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, prefix + node.name + ".")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node.body, prefix + node.name + ".")


def test_one_tolerance_policy():
    """A tolerance is the constant of the module that owns the decision,
    not a parameter, but for the four functions whose callers vary it;
    and the Pauli matrices have one home."""
    package = os.path.dirname(qchan.__file__)
    found = set()
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for name, node in _functions(tree.body, module + "."):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args
                     + args.kwonlyargs}
            if names & {"tol", "atol"}:
                found.add(name)
    assert found == TOLERANCE_PARAMETERS
    assert qubit.PAULIS is numkit.PAULIS


# the calls that factor a matrix or read its spectrum
FACTORIZATIONS = {"eigh", "eigvalsh", "sqrt_psd", "kraus_from_choi"}


def _dual_state(node):
    """Whether an expression is a .choi or .jam, or arithmetic on one."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("choi", "jam")
    if isinstance(node, ast.BinOp):
        return _dual_state(node.left) or _dual_state(node.right)
    if isinstance(node, ast.UnaryOp):
        return _dual_state(node.operand)
    return False


def test_only_channel_factors_the_dual_state():
    """No module but channel.py hands a .choi or .jam to an eigensolver,
    sqrt_psd or kraus_from_choi: every other reader of the dual state's
    spectrum takes Channel.choi_eigh, so there is one route."""
    package = os.path.dirname(qchan.__file__)
    found = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        module = os.path.basename(path)
        if module == "channel.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                getattr(func, "id", None))
            args = node.args + [k.value for k in node.keywords]
            if name in FACTORIZATIONS and any(map(_dual_state, args)):
                found.append("%s:%d" % (module, node.lineno))
    assert found == []


# the module-level tolerance constants; a new cut of its own needs an
# entry here, and a row in README's "Tolerances" table
TOLERANCE_CONSTANTS = {"numkit.HERM_TOL", "numkit.PSD_TOL", "channel.TP_TOL",
                       "extremal._NULL_TOL", "qubit._FILTER_TOL",
                       "qubit._TIE_TOL", "qubit._REBUILD_TOL"}


def test_tolerance_constants_are_pinned():
    """Every module-level *_TOL constant in qchan is one of the seven."""
    package = os.path.dirname(qchan.__file__)
    found = set()
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            found |= {module + "." + name for name in _defined_names(top)
                      if name.endswith("_TOL")}
    assert found == TOLERANCE_CONSTANTS
