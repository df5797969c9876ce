"""Tests of the benchmark itself, not of qchan.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
run.use_checkout_src()
import workloads  # noqa: E402
from qchan import channel, cli, numkit, qubit  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def test_tiny_run_prints_every_metric():
    proc = bench("--workload", "structure", "--seed", "1", "--seconds", "0.2",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in BENCH["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    table = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert set(names) | {"fail_frac"} <= table


def test_tail_percentile_needs_100_samples():
    records = [{"index": i, "kind": "k", "status": "ok",
                "wall_s": 0.01 * (1 + i % 10), "cpu_s": 0.01}
               for i in range(120)]
    _, extra = run.end_to_end(records, [0.5])
    assert extra["op_p90_samples"] == 120
    assert extra["op_p90_s"] == pytest.approx(0.091)
    _, extra = run.end_to_end(records[:99], [0.5])
    assert "op_p90_s" not in extra


def test_wrong_answer_counts_as_failure(tmp_path, monkeypatch):
    wl = workloads.AnalyzeAll(1, str(tmp_path))
    case = wl.prepare(0)
    code, text = wl.run(case)
    assert wl.check(case, (code, text)).status() == "ok"
    report = json.loads(text)
    report["results"]["capacities"]["holevo_chi"]["value"] += 1e-4
    bad = (code, json.dumps(report))
    assert wl.check(case, bad).status() == "wrong"

    monkeypatch.setattr(wl, "run", lambda c: bad)
    records = run.measure(wl, 1e-9)
    metrics, extra = run.end_to_end(records, [1.0])
    assert len(records) == wl.round_size
    assert {r["status"] for r in records} == {"wrong"}
    assert extra["fail_frac"] == 1.0 and metrics["ok_ops_per_s"] == 0.0
    line = run.result_line(records, BENCH["end_to_end"], metrics)
    assert line["correct"] is False and line["failed"] == wl.round_size
    # a non-finite answer also makes the run incorrect
    nan = [dict(records[0], status="nan")]
    assert run.result_line(nan, BENCH["end_to_end"], metrics)["correct"] \
        is False


def test_deadline_fails_the_operation_and_the_run_goes_on(tmp_path,
                                                         monkeypatch):
    original = qubit.lu_normal_form

    def spin(ch):
        # cli._run_analysis catches ValueError and RuntimeError around
        # this call; the deadline must get past that handler
        while ch.dim == 2:
            pass
        return original(ch)

    monkeypatch.setattr(qubit, "lu_normal_form", spin)
    wl = workloads.Structure(3, str(tmp_path))
    wl.deadline_s = 0.2
    records = run.measure(wl, 1.5)
    qubit_ops = [r for r in records if wl.case(r["index"]).dim == 2]
    qutrit_ops = [r for r in records if wl.case(r["index"]).dim == 3]
    assert qubit_ops and all(r["status"] == "deadline" for r in qubit_ops)
    assert all(0.2 <= r["wall_s"] < 1.0 for r in qubit_ops)
    assert any(r["status"] == "ok" for r in qutrit_ops)
    # the cut operations' seconds count against the rate
    metrics, extra = run.end_to_end(records, [1.0])
    ok = sum(r["status"] == "ok" for r in records)
    assert extra["deadline_s"] >= 0.2 * len(qubit_ops)
    assert metrics["ok_ops_per_s"] == pytest.approx(ok / extra["timed_s"])


def test_a_run_measures_whole_rounds_whatever_the_speed(tmp_path,
                                                        monkeypatch):
    wl = workloads.AnalyzeAll(1, str(tmp_path))
    monkeypatch.setattr(wl, "run", lambda c: None)
    monkeypatch.setattr(wl, "check", lambda c, out: workloads.Issues())
    for seconds in (1e-9, 0.05):
        records = run.measure(wl, seconds)
        assert len(records) % wl.round_size == 0
        kinds = [r["kind"] for r in records]
        assert kinds == kinds[:wl.round_size] * (len(kinds) // wl.round_size)
    assert len(records) > wl.round_size


def test_deadline_escapes_the_skipped_handler(monkeypatch):
    def spin(ch):
        while True:
            pass

    monkeypatch.setattr(qubit, "lu_normal_form", spin)
    ch = channel.Channel(workloads.roadmap_cases(0)[0].kraus)
    with pytest.raises(run.OpDeadline):
        with run.deadline(0.1):
            cli._run_analysis("normal_forms", ch, 0, 1e-9)


def test_traced_counts_repeat_and_wrappers_come_off(tmp_path):
    eigh = numkit.eigh
    runs = [run.traced_run(workloads.Structure(5, str(tmp_path)), n_ops=12,
                           repeats=2) for _ in range(2)]
    assert numkit.eigh is eigh
    (_, m1, _, _), (_, m2, _, _) = runs
    counts = [k for k in m1 if k.endswith((".calls", ".nfev"))]
    assert m1["numkit.eigh.calls"] > 0 and m1["cli.main.calls"] > 0
    assert all(m1[k] == m2[k] for k in counts)
    assert all(m["name"] in m1 for m in BENCH["per_layer"])


def test_inputs_follow_the_seed(tmp_path):
    a, b, c = (workloads.Structure(s, str(tmp_path)) for s in (1, 1, 2))
    n = 2 * a.round_size
    same = [np.array_equal(a.case(i).choi, b.case(i).choi) for i in range(n)]
    other = [a.case(i).kind == c.case(i).kind
             and np.array_equal(a.case(i).choi, c.case(i).choi)
             for i in range(n) if i % a.round_size]
    assert all(same) and not any(other)
    # every round opens with the roadmap qutrit, then holds every kind once
    for r in range(2):
        first = r * a.round_size
        assert a.case(first).kind == "kraus3.3"
        kinds = {a.case(i).kind for i in range(first + 1, first + a.round_size)}
        assert len(kinds) == len(a.KINDS)
    # analyze_all repeats one list of three: two roadmap files shared by
    # every seed, then one seeded channel
    x, y = workloads.AnalyzeAll(1, "."), workloads.AnalyzeAll(2, ".")
    for i in range(2):
        assert np.array_equal(x.case(i).choi, y.case(i).choi)
    assert not np.array_equal(x.case(2).choi, y.case(2).choi)
    for i in range(3 * x.round_size):
        assert np.array_equal(x.case(i).choi, x.case(i % x.round_size).choi)
    # structure leaves out the kinds that hit known defects;
    # structure_full keeps them
    full = workloads.StructureFull(1, ".")
    assert not set(workloads.KNOWN_FAILING) & set(a.KINDS)
    assert set(full.KINDS) == set(a.KINDS) | set(workloads.KNOWN_FAILING)
    # optimizers repeats four inputs; its states change with the seed
    # only by local unitaries, which keep their spectra
    opt, other = (workloads.Optimizers(s, ".") for s in (1, 2))
    assert [opt.case(i).kind for i in range(opt.round_size)] == [
        "depolarizing", "werner", "amplitude_damping", "noisy_pure"]
    assert np.array_equal(opt.case(2).choi, x.case(1).choi)
    for i in range(2 * opt.round_size):
        assert opt.case(i).index == i
    for i in (1, 3):
        r1, r2 = opt.case(i).rho, other.case(i).rho
        assert np.array_equal(r1, opt.case(i + opt.round_size).rho)
        assert not np.allclose(r1, r2)
        assert np.allclose(np.linalg.eigvalsh(r1), np.linalg.eigvalsh(r2))

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "structure", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
