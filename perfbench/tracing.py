"""Per-layer spans, recorded by wrapping qchan's public functions.

install() replaces module attributes from outside qchan: every public
function of numkit, channel, extremal, qubit, capacity and cli,
Channel.__init__, and scipy.optimize.minimize / least_squares. qchan
calls across modules through module attributes (numkit.eigh(...)), so
the wrappers see those calls; uninstall() puts the originals back.

A span holds name, start, end, parent span and operation index. Spans
stay in compact arrays until the run ends. A span's self time is its
duration minus the durations of its direct child spans.
"""

import array
import collections
import functools
import inspect
import time

import numpy as np
import scipy.optimize

from qchan import capacity, channel, cli, extremal, numkit, qubit

LAYERS = {"numkit": numkit, "channel": channel, "extremal": extremal,
          "qubit": qubit, "capacity": capacity, "cli": cli}
# solver evaluations are counted under the nearest of these spans
SOLVER_PARENTS = ("capacity.holevo_chi", "capacity.fidelity_optimize_one_side",
                  "capacity.classical_correlations", "qubit.slocc_normal_form")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("q")
        self.span_op = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.extra = {}
        self.stack = [-1]
        self.op = -1
        self.saved = []

    def _wrap(self, fn, name, record=None):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if record is not None:
                tracer.extra[idx] = record(result)
            return result
        return wrapper

    def _replace(self, owner, attr, name, record=None):
        original = vars(owner)[attr]
        self.saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, record))

    def install(self):
        for short, mod in LAYERS.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    record = None
                    if short == "qubit" and attr == "slocc_normal_form":
                        record = lambda form: {"kind": form.kind}
                    self._replace(mod, attr, "%s.%s" % (short, attr), record)
        self._replace(channel.Channel, "__init__", "channel.Channel")
        self._replace(scipy.optimize, "minimize", "solver.minimize",
                      lambda res: {"nfev": int(res.nfev),
                                   "fun": float(res.fun)})
        self._replace(scipy.optimize, "least_squares", "solver.least_squares",
                      lambda res: {"nfev": int(res.nfev)})

    def uninstall(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def end_op(self):
        """Realign the span arrays after an operation.

        A deadline can interrupt a wrapper between its appends, leaving
        the arrays of unequal length and the stack with a dead entry.
        Only the interrupted operation's spans can be damaged, and those
        are left out of summary().
        """
        arrays = (self.span_name, self.span_parent, self.span_op,
                  self.span_start, self.span_end)
        n = min(len(a) for a in arrays)
        for a in arrays:
            del a[n:]
        for idx in [i for i in self.extra if i >= n]:
            del self.extra[idx]
        self.stack[1:] = []

    def spans(self):
        """The spans as numpy arrays, for saving and for summary()."""
        return {"name": np.frombuffer(self.span_name, dtype=np.int32),
                "parent": np.frombuffer(self.span_parent, dtype=np.int64),
                "op": np.frombuffer(self.span_op, dtype=np.int64),
                "start": np.frombuffer(self.span_start, dtype=np.float64),
                "end": np.frombuffer(self.span_end, dtype=np.float64),
                "names": np.array(self.names)}

    def summary(self, ops):
        """Per-operation calls, self seconds and solver counts.

        Only spans of the given operations count; keys are the metric
        names of the benchmark's per-layer table.
        """
        s = self.spans()
        n_ops = max(len(ops), 1)
        dur = s["end"] - s["start"]
        child = np.zeros_like(dur)
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        keep = np.isin(s["op"], list(ops))
        calls = np.bincount(s["name"][keep], minlength=len(self.names))
        selfs = np.bincount(s["name"][keep], weights=self_t[keep],
                            minlength=len(self.names))
        out = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = calls[nid] / n_ops
            out[name + ".self_s"] = selfs[nid] / n_ops

        nfev = dict.fromkeys(SOLVER_PARENTS + ("solver.least_squares",), 0)
        restarts = collections.defaultdict(list)  # holevo span -> -fun
        fits = collections.Counter()  # slocc span -> least_squares calls
        kinds = {}  # slocc span -> normal-form kind
        parent_of = s["parent"]

        def name_of(idx):
            return self.names[s["name"][idx]]

        for idx, info in self.extra.items():
            if not keep[idx]:
                continue
            if "kind" in info:
                kinds[idx] = info["kind"]
                continue
            solver = name_of(idx)
            if solver == "solver.least_squares":
                nfev[solver] += info["nfev"]
            anc = parent_of[idx]
            while anc >= 0 and name_of(anc) not in SOLVER_PARENTS:
                anc = parent_of[anc]
            if anc < 0:
                continue
            nfev[name_of(anc)] += info["nfev"]
            if name_of(anc) == "capacity.holevo_chi":
                restarts[anc].append(-info["fun"])
            elif solver == "solver.least_squares":
                fits[anc] += 1
        for key, val in nfev.items():
            if key != "qubit.slocc_normal_form":
                out[key + ".nfev"] = val / n_ops
        # a restart counts when it ends within 1e-9 of its search's best
        ran = sum(len(v) for v in restarts.values())
        hit = sum(sum(v >= max(vals) - 1e-9 for v in vals)
                  for vals in restarts.values())
        out["capacity.holevo_chi.restart_yield"] = hit / ran if ran else 0.0
        # _slocc_nongeneric returns on its first accepted fit
        ls_calls = sum(fits.values())
        accepted = sum(kinds.get(idx) == "NonGeneric" for idx in fits)
        out["qubit.slocc_normal_form.fit_yield"] = (accepted / ls_calls
                                                    if ls_calls else 0.0)
        return out
