"""Command-line front end: read channel files, run analyses, emit reports.

A channel file is a JSON document with an optional "dim" field and exactly
one of:

    "kraus"   list of square matrices
    "choi"    one n^2 x n^2 matrix
    "builder" a builder name, with its parameters as sibling keys,
              e.g. {"builder": "amplitude_damping", "gamma": 0.5}

Matrix entries are written row-major as [re, im] pairs; plain numbers are
accepted on input and read as reals; NaN, Infinity and numbers beyond
the float range are refused. Reports come out either as aligned text or
as one line of JSON mirroring the report dict; the ellipsoid
command emits a one-row CSV with the Bloch image geometry.

Exit status is 0 when every requested analysis completed (an analysis
that reports its own hypothesis failure, like the rank-2 capacity
formula on a non-unital channel, still counts as completed), 1 when a
computation failed its own check (an optimizer whose bound is not
certified, a decomposition part off the trace condition), 2 for file
or usage errors. When standard output closes before the report is out
(qchan analyze f --all | head -1), qchan exits 1 without a traceback.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import capacity, channel, extremal, qubit


class ChannelFileError(Exception):
    """A channel file that cannot be turned into a CP map."""


# --- value encoding ---------------------------------------------------------

def _encode_matrix(m):
    """Rows of [re, im] pairs, as plain Python floats."""
    m = np.ascontiguousarray(m, dtype=complex)
    # a complex array's memory is its entries' (re, im) float pairs
    return m.view(float).reshape(m.shape + (2,)).tolist()


def _decode_matrix(rows, where):
    """A complex matrix from rows of numbers and [re, im] pairs: one pass
    over the rows checks widths and entry types, one np.array call builds
    it, and entries are walked only to name a field that fails a check."""
    if not isinstance(rows, list) or not rows:
        raise ChannelFileError("%s: expected a non-empty list of rows" % where)
    pairs = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ChannelFileError("%s: row %d is not a list" % (where, i))
        if len(row) != len(rows[0]):
            raise ChannelFileError("%s: row %d has length %d, expected %d"
                                   % (where, i, len(row), len(rows[0])))
        pairs.append([v if type(v) is list and len(v) == 2 else [v, 0]
                      for v in row])
        if not {type(x) for pair in pairs[-1] for x in pair} <= {int, float}:
            j = next(j for j, pair in enumerate(pairs[-1])
                     if not {type(x) for x in pair} <= {int, float})
            raise ChannelFileError("%s[%d][%d]: expected a number or [re, im] "
                                   "pair, got %r" % (where, i, j, row[j]))
    try:
        mat = np.array(pairs, dtype=float).reshape(len(rows), -1, 2)
    except OverflowError:  # float() refuses integers from 2^1024 - 2^970
        mat = np.array([[[x if abs(x) < 2 ** 1024 - 2 ** 970 else np.inf
                          for x in pair] for pair in row] for row in pairs])
    finite = np.isfinite(mat).all(axis=2)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ChannelFileError("%s[%d][%d]: not a finite number"
                               % (where, i, j))
    return mat.view(complex)[..., 0]


# --- channel files ----------------------------------------------------------

BUILDERS = {
    "identity": channel.identity,
    "unitary": channel.unitary,
    "depolarizing": channel.depolarizing,
    "amplitude_damping": channel.amplitude_damping,
    "phase_flip": channel.phase_flip,
    "bit_flip": channel.bit_flip,
    "completely_depolarizing": channel.completely_depolarizing,
    "replacer": channel.replacer,
}
# transpose_map is deliberately absent: it is not completely positive, so
# it cannot be loaded as a channel.


def load_channel_file(path):
    """Parse a channel file; returns (Channel, source description dict)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ChannelFileError("%s: %s" % (path, exc.strerror or exc))
    except json.JSONDecodeError as exc:
        raise ChannelFileError("%s: line %d column %d: %s"
                               % (path, exc.lineno, exc.colno, exc.msg))
    if not isinstance(doc, dict):
        raise ChannelFileError("%s: top level must be an object" % path)

    forms = [k for k in ("kraus", "choi", "builder") if k in doc]
    if len(forms) != 1:
        raise ChannelFileError(
            "%s: need exactly one of 'kraus', 'choi', 'builder' (found %s)"
            % (path, forms or "none"))
    form = forms[0]
    dim = doc.get("dim")
    if dim is not None and (isinstance(dim, bool)
                            or not isinstance(dim, int) or dim < 1):
        raise ChannelFileError("%s: field 'dim' must be a positive integer"
                               % path)

    if form == "kraus":
        ops = doc["kraus"]
        if not isinstance(ops, list) or not ops:
            raise ChannelFileError("%s: field 'kraus' must be a non-empty "
                                   "list of matrices" % path)
        mats = [_decode_matrix(op, "kraus[%d]" % k)
                for k, op in enumerate(ops)]
        try:
            ch = channel.Channel(mats)
        except ValueError as exc:
            raise ChannelFileError("%s: %s" % (path, exc))
        source = {"form": "kraus"}
    elif form == "choi":
        mat = _decode_matrix(doc["choi"], "choi")
        try:
            ch = channel.Channel(channel.kraus_from_choi(mat))
        except ValueError as exc:
            raise ChannelFileError("%s: %s" % (path, exc))
        source = {"form": "choi"}
    else:
        name = doc["builder"]
        if name not in BUILDERS:
            raise ChannelFileError(
                "%s: unknown builder %r (known: %s)"
                % (path, name, ", ".join(sorted(BUILDERS))))
        params = {}
        for key, val in doc.items():
            if key in ("builder", "dim"):
                continue
            if isinstance(val, list):
                params[key] = _decode_matrix(val, key)
            elif isinstance(val, (int, float)) and not isinstance(val, bool):
                if isinstance(val, float) and not math.isfinite(val):
                    raise ChannelFileError("%s: %s: not a finite number"
                                           % (path, key))
                params[key] = val
            else:
                raise ChannelFileError(
                    "%s: builder parameter %r must be a number or a matrix"
                    % (path, key))
        try:
            ch = BUILDERS[name](**params)
        except (TypeError, ValueError) as exc:
            raise ChannelFileError("%s: builder %r: %s" % (path, name, exc))
        source = {"form": "builder", "builder": name,
                  "params": {k: (v if not isinstance(v, np.ndarray)
                                 else _encode_matrix(v))
                             for k, v in params.items()}}

    if dim is not None and ch.dim != dim:
        raise ChannelFileError("%s: declared dim %d but matrices give dim %d"
                               % (path, dim, ch.dim))
    return ch, source


def _write_doc(path, doc):
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def write_choi_file(path, ch):
    """Emit a channel as a choi-format file (the round-trip form)."""
    _write_doc(path, {"dim": ch.dim, "choi": _encode_matrix(ch.choi)})


def write_kraus_file(path, ch):
    _write_doc(path, {"dim": ch.dim,
                      "kraus": [_encode_matrix(a) for a in ch.kraus]})


# --- reports ----------------------------------------------------------------

def _yn(b):
    return "yes" if b else "no"


def _fixed(x, places=6, pad=""):
    """x rounded to places, as format(x, pad + ".<places>f"); a value that
    rounds to zero prints without its sign."""
    return format(round(x, places) + 0.0, "%s.%df" % (pad, places))


def _fmt_vec(v):
    return " ".join(_fixed(x) for x in np.asarray(v).real)


def _matrix_lines(rows, indent):
    """Text lines of an encoded matrix, entries rounded to 6 places."""
    return [indent + "  ".join(_fixed(re, pad="9") + _fixed(im, pad="+9")
                               + "j" for re, im in row) for row in rows]


def _result_lines(name, res):
    if "skipped" in res:
        return ["%s: skipped (%s)" % (name, res["skipped"])]
    if name == "choi":
        return (["choi: jam eigenvalues: " + _fmt_vec(res["jam_eigenvalues"])]
                + _matrix_lines(res["matrix"], "  "))
    if name == "rank":
        return ["rank: %d" % res["value"]]
    if name == "extremality":
        return ["extremality: extremal=%s (%s)"
                % (_yn(res["extremal"]), res["method"])]
    if name == "eb":
        return ["eb: breaking=%s can_distribute=%s (%s)"
                % (_yn(res["entanglement_breaking"]),
                   _yn(res["can_distribute"]), res["method"])]
    if name == "normal_forms":
        return ["normal_forms: lu lambdas: %s  shift: %s"
                % (_fmt_vec(res["lu"]["lambdas"]), _fmt_vec(res["lu"]["shift"])),
                "  slocc: %s%s" % (res["slocc"]["kind"],
                                   _slocc_extras(res["slocc"]))]
    if name == "fidelity":
        return ["fidelity: f_max=%s (%s)" % (_fixed(res["f_max"], 9),
                                             res["method"])]
    if name == "capacities":
        lines = []
        for key in ("holevo_chi", "quantum_capacity"):
            sub = res[key]
            if "skipped" in sub:
                lines.append("capacities: %s: skipped (%s)"
                             % (key, sub["skipped"]))
            elif key == "holevo_chi":
                lines.append("capacities: holevo_chi=%s (%s, gap %.1e)"
                             % (_fixed(sub["value"], 9), sub["method"],
                                sub["upper_bound"] - sub["value"]))
                lines.append("  ensemble weights: "
                             + _fmt_vec(sub["ensemble"]["weights"]))
            else:
                lines.append("capacities: quantum_capacity=%s (%s)"
                             % (_fixed(sub["value"], 9), sub["method"]))
        return lines
    return ["%s: %r" % (name, res)]


def _slocc_extras(sub):
    parts = []
    if sub.get("s") is not None:
        parts.append("s=(%s)" % _fmt_vec(sub["s"]))
    if sub.get("x") is not None:
        parts.append("x=" + _fixed(sub["x"]))
    parts.append("scale=" + _fixed(sub["scale"]))
    return " " + " ".join(parts)


# --- analyses ---------------------------------------------------------------

ANALYSES = ("choi", "rank", "extremality", "eb", "normal_forms",
            "fidelity", "capacities")


def _run_analysis(name, ch, flags):
    """One named analysis under the command-line flags; hypothesis
    failures (ValueError) become a 'skipped' entry, failed self-checks
    (RuntimeError) propagate."""
    try:
        if name == "choi":
            return {"matrix": _encode_matrix(ch.choi),
                    "jam_eigenvalues":
                        (ch.choi_eigh[0] / ch.choi_trace).tolist()}
        if name == "extremality":
            return {"extremal": bool(extremal.is_extremal_tp(ch)),
                    "method": "kraus-product rank test"}
        if name == "eb":
            breaking = qubit.is_entanglement_breaking(ch, flags.tol)
            return {"entanglement_breaking": breaking,
                    "can_distribute": not breaking,
                    "method": "dual-state top eigenvalue"}
        if name == "normal_forms":
            lu = qubit.lu_normal_form(ch)
            slocc = qubit.slocc_normal_form(ch)
            return {"lu": {"lambdas": list(lu.lambdas),
                           "shift": list(lu.shift)},
                    "slocc": {"kind": slocc.kind,
                              "scale": float(slocc.scale),
                              "s": (list(slocc.s)
                                    if slocc.s is not None else None),
                              "x": (float(slocc.x)
                                    if slocc.x is not None else None)}}
        if name == "fidelity":
            f, chi_vec = qubit.max_entanglement_fidelity(ch)
            return {"f_max": float(f),
                    "input_state": _encode_matrix(
                        np.outer(chi_vec, chi_vec.conj())),
                    "method": "dual-state top eigenvalue"}
        if name == "capacities":
            out = {}
            try:
                res = capacity.holevo_chi(ch)
                out["holevo_chi"] = {
                    "value": float(res.chi), "method": res.method,
                    "upper_bound": float(res.upper_bound),
                    "ensemble": {
                        "weights": [float(w) for w, _ in res.ensemble.items],
                        "states": [_encode_matrix(r)
                                   for _, r in res.ensemble.items]}}
            except ValueError as exc:
                out["holevo_chi"] = {"skipped": str(exc)}
            try:
                q = capacity.quantum_capacity_rank2_unital(ch)
                out["quantum_capacity"] = {
                    "value": float(q), "method": "rank-2 unital formula"}
            except ValueError as exc:
                out["quantum_capacity"] = {"skipped": str(exc)}
            return out
    except ValueError as exc:
        return {"skipped": str(exc)}
    raise ValueError("unknown analysis %r" % name)


def cmd_analyze(path, flags):
    """Run the selected analyses on a channel file; returns a report dict.

    Its summary describes the channel; results maps analysis names to
    dicts, where an analysis whose hypothesis the channel fails carries a
    'skipped' key with the reason instead of values. Every analysis is
    deterministic; provenance records the tolerance and the output format.
    """
    ch, source = load_channel_file(path)
    source["path"] = path
    selected = [name for name in ANALYSES if getattr(flags, name, False)]
    if getattr(flags, "all", False) or not selected:
        selected = list(ANALYSES)
    # one rank, at the requested tolerance, for the summary and the analysis
    rank = channel.rank(ch, tol=max(flags.tol, 1e-12))
    summary = {"dim": ch.dim,
               "rank": rank,
               "trace_preserving": bool(ch.trace_preserving),
               "unital": bool(channel.is_unital(ch)),
               "cp": True,
               "source": source}
    results = {}
    for name in selected:
        results[name] = ({"value": rank} if name == "rank"
                         else _run_analysis(name, ch, flags))
    if getattr(flags, "emit_choi", None):
        write_choi_file(flags.emit_choi, ch)
    return {"summary": summary, "results": results,
            "provenance": {"tol": flags.tol, "format": flags.format}}


def cmd_decompose(path, flags):
    """Split a channel into extremal components; returns a report dict."""
    ch, source = load_channel_file(path)
    source["path"] = path
    try:
        parts = extremal.decompose_into_extremals(ch)
    except extremal.AlreadyExtremalError:
        return {"source": source, "extremal": True,
                "message": "already extremal", "components": []}
    components = []
    for w, part in parts:
        rank = channel.rank(part)
        components.append({
            "weight": float(w),
            "rank": rank,
            "unitary": rank == 1,
            "kraus": [_encode_matrix(a) for a in part.kraus]})
    return {"source": source, "extremal": False, "components": components}


ELLIPSOID_HEADER = ["center_x", "center_y", "center_z",
                    "axis_1", "axis_2", "axis_3",
                    "o_11", "o_12", "o_13",
                    "o_21", "o_22", "o_23",
                    "o_31", "o_32", "o_33"]


def cmd_ellipsoid(path, out_csv):
    """Write the Bloch-image geometry of a qubit channel as one CSV row."""
    ch, _ = load_channel_file(path)
    center, axes, orient = qubit.ellipsoid(ch)
    row = center.tolist() + axes.tolist() + orient.reshape(-1).tolist()
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ELLIPSOID_HEADER)
        writer.writerow(["%.12g" % x for x in row])
    return row


# --- entry point ------------------------------------------------------------

def _analyze_text(report):
    s = report["summary"]
    lines = ["channel: dim=%d rank=%d tp=%s unital=%s cp=%s (%s)"
             % (s["dim"], s["rank"], _yn(s["trace_preserving"]),
                _yn(s["unital"]), _yn(s["cp"]), s["source"]["form"]
                + (":" + s["source"]["builder"]
                   if s["source"]["form"] == "builder" else "")),
             "settings: tol=%g" % report["provenance"]["tol"]]
    for name, res in report["results"].items():
        lines.extend(_result_lines(name, res))
    return lines


def _decompose_text(report):
    lines = ["source: %s" % report["source"]["path"]]
    if report["extremal"]:
        lines.append("already extremal")
        return lines
    lines.append("components: %d" % len(report["components"]))
    for k, comp in enumerate(report["components"]):
        kind = "unitary" if comp["unitary"] else "rank %d" % comp["rank"]
        lines.append("  %d: weight %s (%s)" % (k, _fixed(comp["weight"], 9),
                                               kind))
        for a in comp["kraus"]:
            lines.extend(_matrix_lines(a, "     "))
    return lines


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qchan",
        description="Analyze quantum channels given as JSON channel files.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run analyses on a channel file")
    pa.add_argument("path")
    pa.add_argument("--all", action="store_true",
                    help="run every analysis (default when none selected)")
    for name in ANALYSES:
        pa.add_argument("--" + name.replace("_", "-"), dest=name,
                        action="store_true")
    pa.add_argument("--emit-choi", metavar="PATH",
                    help="also write the channel as a choi-format file")
    pa.add_argument("--tol", type=float, default=1e-9)
    pa.add_argument("--format", choices=("text", "structured"),
                    default="text")

    pd = sub.add_parser("decompose",
                        help="split into extremal components")
    pd.add_argument("path")
    pd.add_argument("--format", choices=("text", "structured"),
                    default="text")

    pe = sub.add_parser("ellipsoid",
                        help="emit Bloch-image geometry as CSV")
    pe.add_argument("path")
    pe.add_argument("out_csv")
    return parser


@functools.cache
def _parser():
    # built on the first main call, not at import; parse_args keeps no
    # state between calls, so one parser serves a whole process
    return build_parser()


def _silence_stdout():
    """Python's recipe for a closed pipe: point the stdout descriptor at
    devnull, so that the flush at exit does not raise again. A stdout
    without a descriptor (a test's stand-in) is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "ellipsoid":
            cmd_ellipsoid(args.path, args.out_csv)
            return 0
        command, text_of = ((cmd_analyze, _analyze_text)
                            if args.command == "analyze"
                            else (cmd_decompose, _decompose_text))
        report = command(args.path, args)
        text = (json.dumps(report) if args.format == "structured"
                else "\n".join(text_of(report)))
    except (ChannelFileError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        _silence_stdout()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
