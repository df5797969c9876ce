"""qchan benchmark: seeded closed-loop workloads, checked answers, metrics.

    python3 perfbench/run.py --workload structure --seed 1 --seconds 45 --trace 0

One client runs one operation at a time (closed loop, nothing contends).
--trace 0 measures the end-to-end metrics: whole rounds of the
workload's operation list run while their timed seconds fit in
--seconds, and set-up is timed in five fresh child processes. --trace 1
runs a fixed head of the operation list plain and with per-layer spans,
three times over, and reports the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the metric
names and units come from BENCHMARK.json. Above it a table prints every
metric, including fail_frac and (on structure) op_p90_s with its sample
count. Channel files, per-operation records and spans go under
.bench_build/perfbench/ in the checkout.
"""

import argparse
import collections
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_SAMPLES = 5
TRACE_REPEATS = 3


def use_checkout_src():
    """Import qchan from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qchan", "__init__.py")):
        raise SystemExit("perfbench: no qchan sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import qchan
    if not os.path.abspath(qchan.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: qchan imported from %s, not %s"
                         % (qchan.__file__, SRC))


class OpDeadline(BaseException):
    """An operation overran its deadline.

    A BaseException, so that handlers for ValueError or RuntimeError
    inside qchan (cli._run_analysis turns those into "skipped") cannot
    swallow it.
    """


@contextlib.contextmanager
def deadline(seconds):
    def fire(signum, frame):
        raise OpDeadline()
    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def run_op(wl, case, limit_s):
    """One timed operation, then its (untimed) checks.

    Returns a record: index, kind, status ('ok' or a failure class),
    wall and CPU seconds, and what failed.
    """
    out, detail = None, ""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with deadline(limit_s):
            out = wl.run(case)
        status = "ok"
    except OpDeadline:
        status, detail = "deadline", "over %.1f s" % limit_s
    except Exception as exc:
        status, detail = "exception", "%s: %s" % (type(exc).__name__, exc)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if status == "ok":
        try:
            issues = wl.check(case, out)
            status = issues.status()
            detail = "; ".join(msg for _, msg in issues.items)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            status, detail = "wrong", "malformed answer: %r" % (exc,)
    return {"index": case.index, "kind": case.kind, "status": status,
            "wall_s": wall, "cpu_s": cpu, "detail": detail[:300]}


def set_up(wl):
    """Build the first input and run the untimed warm-up operation."""
    case = wl.prepare(0)
    try:
        with deadline(wl.deadline_s):
            wl.warm_up(case)
    except (OpDeadline, Exception) as exc:
        # the timed operations count failures; warm-up only warms
        print("perfbench: warm-up failed: %r" % (exc,), file=sys.stderr)
    return case


def setup_sample(workload, seed):
    """Seconds from starting a fresh process to its first timed operation."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0",
         "--setup-only", repr(t0)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    if proc.returncode != 0:
        raise SystemExit("perfbench: set-up process failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl, seconds):
    """Closed loop over whole rounds of the workload's operation list.

    Every round holds the same inputs (analyze_all, bipartite_opt) or
    the same mix of kinds (structure), so what a run measures does not
    depend on the program's speed; a faster program runs more rounds.
    At least one round runs, and another starts only while the timed
    seconds plus one more round of the mean length so far fit in
    `seconds`.
    """
    records, timed, rounds = [], 0.0, 0
    while rounds == 0 or timed * (rounds + 1) / rounds <= seconds:
        for pos in range(wl.round_size):
            rec = run_op(wl, wl.prepare(rounds * wl.round_size + pos),
                         wl.deadline_s)
            records.append(rec)
            timed += rec["wall_s"]
        rounds += 1
    return records


def end_to_end(records, setup):
    """The end-to-end metrics of one timed run, plus table-only extras.

    The time of an operation that the deadline cut counts in the rate
    and in the CPU per operation like any other, so that pushing slow
    operations past the deadline can only make both worse.
    """
    walls = [r["wall_s"] for r in records]
    ok = sum(r["status"] == "ok" for r in records)
    metrics = {
        "setup_s": statistics.median(setup),
        "ok_ops_per_s": ok / sum(walls),
        "op_p50_s": float(np.percentile(walls, 50)),
        "cpu_s_per_op": sum(r["cpu_s"] for r in records) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    extra = {"fail_frac": (len(records) - ok) / len(records),
             "timed_s": sum(walls),
             "deadline_s": sum(r["wall_s"] for r in records
                               if r["status"] == "deadline"),
             "setup_samples_s": setup}
    if len(records) >= 100:
        extra["op_p90_s"] = float(np.percentile(walls, 90))
        extra["op_p90_samples"] = len(records)
    return metrics, extra


def traced_op(wl, case, tracer, limit_s):
    tracer.op = case.index
    tracer.install()
    try:
        return run_op(wl, case, limit_s)
    finally:
        tracer.uninstall()
        tracer.end_op()


def traced_run(wl, n_ops=None, repeats=TRACE_REPEATS):
    """Per-layer metrics over a fixed head of the operation list.

    Each operation runs plain and traced, one right after the other and
    in an order that flips every repeat, so that a slow spell of the
    machine hits both sides of trace.overhead_frac alike; the overhead
    is the median over the repeats. Counts come from the first repeat.
    An operation that a deadline cut in the first repeat did a
    timing-dependent amount of work, so it is left out of the counts and
    of the later repeats. The deadline is four times the timed one,
    for the wrappers' cost.
    """
    import tracing
    n_ops = wl.trace_ops if n_ops is None else n_ops
    limit = 4 * wl.deadline_s
    set_up(wl)
    cases = [wl.prepare(i) for i in range(n_ops)]
    tracers = [tracing.Tracer() for _ in range(repeats)]
    overheads = []
    for rep, tracer in enumerate(tracers):
        plain, traced = [], []
        for c in cases:
            if rep % 2:
                traced.append(traced_op(wl, c, tracer, limit))
                plain.append(run_op(wl, c, limit))
            else:
                plain.append(run_op(wl, c, limit))
                traced.append(traced_op(wl, c, tracer, limit))
        if rep == 0:
            records = traced
            done = [i for i, (p, t) in enumerate(zip(plain, traced))
                    if "deadline" not in (p["status"], t["status"])]
            cases = [cases[i] for i in done]
            plain = [plain[i] for i in done]
            traced = [traced[i] for i in done]
        t_traced = sum(r["wall_s"] for r in traced)
        overheads.append(1 - sum(r["wall_s"] for r in plain) / t_traced
                         if t_traced else 0.0)
    metrics = tracers[0].summary({c.index for c in cases})
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    extra = {"traced_ops": len(cases), "cut_ops": n_ops - len(cases),
             "fail_frac": sum(r["status"] != "ok" for r in records)
             / len(records), "overhead_by_repeat": overheads}
    return records, metrics, extra, tracers[0]


def environment(args):
    import scipy
    import qchan
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "qchan": qchan.__version__,
            "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def print_table(title, specs, metrics, extra, records):
    print("== %s" % title)
    for spec in specs:
        print("  %-42s %14.6g %s" % (spec["name"],
                                     metrics.get(spec["name"], 0.0),
                                     spec["unit"]))
    for key, val in extra.items():
        if isinstance(val, list):
            print("  %-42s %s" % (key, " ".join("%.4g" % v for v in val)))
        else:
            print("  %-42s %14.6g" % (key, val))
    counts = collections.Counter(r["status"] for r in records)
    print("  operations: %d attempted, by status %s"
          % (len(records), dict(counts)))
    for r in records:
        if r["status"] != "ok":
            print("    op %d (%s) %s: %s" % (r["index"], r["kind"],
                                           r["status"], r["detail"]))


def result_line(records, specs, metrics):
    """The closing JSON object.

    correct is False when any answer was wrong or not finite.
    """
    return {"correct": not any(r["status"] in ("wrong", "nan")
                               for r in records),
            "attempted": len(records),
            "failed": sum(r["status"] != "ok" for r in records),
            "metrics": {s["name"]: {"value": float(metrics.get(s["name"], 0.0)),
                                    "unit": s["unit"]} for s in specs}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", type=float, default=None,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    use_checkout_src()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("perfbench: unknown workload %r (known: %s)"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only is not None:
            set_up(wl)
            print(json.dumps({"setup_s": time.monotonic() - args.setup_only}))
            return 0
        if args.trace:
            specs = bench["per_layer"]
            records, metrics, extra, tracer = traced_run(wl)
        else:
            specs = bench["end_to_end"]
            setup = [setup_sample(wl.name, wl.seed)
                     for _ in range(SETUP_SAMPLES)]
            set_up(wl)
            records = measure(wl, args.seconds)
            metrics, extra = end_to_end(records, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                    args.trace))
    if args.trace:
        np.savez(stem + "-spans.npz", **tracer.spans())
    with open(stem + ".json", "w") as fh:
        json.dump({"environment": env, "metrics": metrics, "extra": extra,
                   "operations": records}, fh, indent=1)
    print("environment: " + json.dumps(env))
    print_table("%s, seed %d, %s" % (args.workload, args.seed,
                                     "per-layer (traced)" if args.trace
                                     else "end to end"),
                specs, metrics, extra, records)
    print(json.dumps(result_line(records, specs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
