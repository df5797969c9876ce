"""Command-line front end: read channel files, run analyses, emit reports.

A channel file is a JSON document with an optional "dim" field and exactly
one of:

    "kraus"   list of square matrices
    "choi"    one n^2 x n^2 matrix
    "builder" a builder name, with its parameters as sibling keys,
              e.g. {"builder": "amplitude_damping", "gamma": 0.5}

Matrix entries are written row-major as [re, im] pairs; plain numbers are
accepted on input and read as reals. Reports come out either as aligned
text or as a JSON document mirroring the AnalysisReport fields; the
ellipsoid command emits a one-row CSV with the Bloch image geometry.

Exit status is 0 when every requested analysis completed (an analysis
that reports its own hypothesis failure, like the rank-2 capacity
formula on a non-unital channel, still counts as completed), 2 for file
or usage errors.
"""

import argparse
import csv
import json
import sys

import numpy as np

from . import capacity, channel, extremal, qubit


class ChannelFileError(Exception):
    """A channel file that cannot be turned into a CP map."""


# --- value encoding ---------------------------------------------------------

def _entry(z):
    """One complex entry as [re, im]."""
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _encode_matrix(m):
    return [[_entry(z) for z in row] for row in np.asarray(m)]


def _decode_entry(v, where):
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in v)):
        return complex(v[0], v[1])
    raise ChannelFileError("%s: expected a number or [re, im] pair, got %r"
                           % (where, v))


def _decode_matrix(rows, where):
    if not isinstance(rows, list) or not rows:
        raise ChannelFileError("%s: expected a non-empty list of rows" % where)
    out = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ChannelFileError("%s: row %d is not a list" % (where, i))
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ChannelFileError("%s: row %d has length %d, expected %d"
                                   % (where, i, len(row), width))
        out.append([_decode_entry(v, "%s[%d][%d]" % (where, i, j))
                    for j, v in enumerate(row)])
    return np.array(out, dtype=complex)


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
                params[key] = val
            else:
                raise ChannelFileError(
                    "%s: builder parameter %r must be a number or a matrix"
                    % (path, key))
        try:
            ch = BUILDERS[name](**params)
        except TypeError as exc:
            raise ChannelFileError("%s: builder %r: %s" % (path, name, exc))
        except ValueError as exc:
            raise ChannelFileError("%s: builder %r: %s" % (path, name, exc))
        source = {"form": "builder", "builder": name,
                  "params": {k: (v if not isinstance(v, np.ndarray)
                                 else _encode_matrix(v))
                             for k, v in params.items()}}

    if dim is not None and ch.dim != dim:
        raise ChannelFileError("%s: declared dim %d but matrices give dim %d"
                               % (path, dim, ch.dim))
    return ch, source


def write_choi_file(path, ch):
    """Emit a channel as a choi-format file (the round-trip form)."""
    doc = {"dim": ch.dim, "choi": _encode_matrix(ch.choi)}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def write_kraus_file(path, ch):
    doc = {"dim": ch.dim, "kraus": [_encode_matrix(a) for a in ch.kraus]}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


# --- reports ----------------------------------------------------------------

class AnalysisReport:
    """Channel summary plus the results of the requested analyses.

    results maps analysis names to dicts; an analysis whose hypothesis
    the channel fails carries a 'skipped' key with the reason instead of
    values. Every scalar is reproducible by re-running with the same
    seed, which is recorded in provenance together with the tolerance.
    """

    def __init__(self, summary, results, provenance):
        self.summary = summary
        self.results = results
        self.provenance = provenance

    def as_dict(self):
        return {"summary": self.summary, "results": self.results,
                "provenance": self.provenance}

    def text_lines(self):
        s = self.summary
        lines = ["channel: dim=%d rank=%d tp=%s unital=%s cp=%s (%s)"
                 % (s["dim"], s["rank"], _yn(s["trace_preserving"]),
                    _yn(s["unital"]), _yn(s["cp"]), s["source"]["form"]
                    + (":" + s["source"]["builder"]
                       if s["source"]["form"] == "builder" else ""))]
        p = self.provenance
        lines.append("settings: seed=%d tol=%g" % (p["seed"], p["tol"]))
        for name, res in self.results.items():
            lines.extend(_result_lines(name, res))
        return lines


def _yn(b):
    return "yes" if b else "no"


def _fmt_vec(v, prec=6):
    return " ".join("%.*f" % (prec, x) for x in np.asarray(v).real)


def _result_lines(name, res):
    if "skipped" in res:
        return ["%s: skipped (%s)" % (name, res["skipped"])]
    if name == "choi":
        lines = ["choi: jam eigenvalues: " + _fmt_vec(res["jam_eigenvalues"])]
        mat = np.array([[complex(a, b) for a, b in row]
                        for row in res["matrix"]])
        for row in np.round(mat, 6):
            lines.append("  " + "  ".join("%9.6f%+9.6fj" % (z.real, z.imag)
                                          for z in row))
        return lines
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
        return ["fidelity: f_max=%.9f (%s)" % (res["f_max"], res["method"])]
    if name == "capacities":
        lines = []
        for key in ("holevo_chi", "quantum_capacity"):
            sub = res[key]
            if "skipped" in sub:
                lines.append("capacities: %s: skipped (%s)"
                             % (key, sub["skipped"]))
            elif key == "holevo_chi":
                lines.append("capacities: holevo_chi=%.9f (%s, gap %.1e)"
                             % (sub["value"], sub["method"],
                                sub["upper_bound"] - sub["value"]))
                lines.append("  ensemble weights: "
                             + _fmt_vec(sub["ensemble"]["weights"]))
            else:
                lines.append("capacities: quantum_capacity=%.9f (%s)"
                             % (sub["value"], sub["method"]))
        return lines
    return ["%s: %r" % (name, res)]


def _slocc_extras(sub):
    parts = []
    if sub.get("s") is not None:
        parts.append("s=(%s)" % _fmt_vec(sub["s"]))
    if sub.get("x") is not None:
        parts.append("x=%.6f" % sub["x"])
    parts.append("scale=%.6f" % sub["scale"])
    return " " + " ".join(parts)


# --- analyses ---------------------------------------------------------------

ANALYSES = ("choi", "rank", "extremality", "eb", "normal_forms",
            "fidelity", "capacities")


def _run_analysis(name, ch, seed, tol):
    """One named analysis; hypothesis failures become a 'skipped' entry."""
    try:
        if name == "choi":
            jam_w = np.linalg.eigvalsh(ch.jam)
            return {"matrix": _encode_matrix(ch.choi),
                    "jam_eigenvalues": [float(x) for x in jam_w]}
        if name == "rank":
            return {"value": channel.rank(ch, tol=max(tol, 1e-12))}
        if name == "extremality":
            return {"extremal": bool(extremal.is_extremal_tp(ch)),
                    "method": "kraus-product rank test"}
        if name == "eb":
            return {"entanglement_breaking":
                        bool(qubit.is_entanglement_breaking(ch, tol=tol)),
                    "can_distribute":
                        bool(qubit.can_distribute_entanglement(ch)),
                    "method": "dual-state partial transpose"}
        if name == "normal_forms":
            lu = qubit.lu_normal_form(ch)
            slocc = qubit.slocc_normal_form(ch, seed=seed)
            out = {"lu": {"lambdas": [float(x) for x in lu.lambdas],
                          "shift": [float(x) for x in lu.shift]},
                   "slocc": {"kind": slocc.kind,
                             "scale": float(slocc.scale),
                             "s": ([float(x) for x in slocc.s]
                                   if slocc.s is not None else None),
                             "x": (float(slocc.x)
                                   if slocc.x is not None else None)}}
            return out
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
    except (ValueError, RuntimeError) as exc:
        return {"skipped": str(exc)}
    raise ValueError("unknown analysis %r" % name)


def cmd_analyze(path, flags):
    """Run the selected analyses on a channel file; returns the report."""
    ch, source = load_channel_file(path)
    source["path"] = path
    selected = [name for name in ANALYSES if getattr(flags, name, False)]
    if getattr(flags, "all", False) or not selected:
        selected = list(ANALYSES)
    summary = {"dim": ch.dim,
               "rank": channel.rank(ch),
               "trace_preserving": bool(ch.trace_preserving),
               "unital": bool(channel.is_unital(ch)),
               "cp": True,
               "source": source}
    results = {}
    for name in selected:
        results[name] = _run_analysis(name, ch, flags.seed, flags.tol)
    if getattr(flags, "emit_choi", None):
        write_choi_file(flags.emit_choi, ch)
    provenance = {"seed": flags.seed, "tol": flags.tol,
                  "format": flags.format}
    return AnalysisReport(summary, results, provenance)


def cmd_decompose(path, flags):
    """Split a channel into extremal components; returns a report dict."""
    ch, source = load_channel_file(path)
    source["path"] = path
    if extremal.is_extremal_tp(ch):
        return {"source": source, "extremal": True,
                "message": "already extremal", "components": []}
    parts = extremal.decompose_into_extremals(ch)
    components = []
    for w, part in parts:
        components.append({
            "weight": float(w),
            "rank": channel.rank(part),
            "unitary": bool(channel.rank(part) == 1
                            and part.trace_preserving),
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
    row = ([float(x) for x in center] + [float(x) for x in axes]
           + [float(x) for x in orient.reshape(-1)])
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ELLIPSOID_HEADER)
        writer.writerow(["%.12g" % x for x in row])
    return row


# --- entry point ------------------------------------------------------------

def _decompose_text(report):
    lines = ["source: %s" % report["source"]["path"]]
    if report["extremal"]:
        lines.append("already extremal")
        return lines
    lines.append("components: %d" % len(report["components"]))
    for k, comp in enumerate(report["components"]):
        kind = "unitary" if comp["unitary"] else "rank %d" % comp["rank"]
        lines.append("  %d: weight %.9f (%s)" % (k, comp["weight"], kind))
        for a in comp["kraus"]:
            mat = np.array([[complex(re, im) for re, im in row] for row in a])
            for row in np.round(mat, 6):
                lines.append("     "
                             + "  ".join("%9.6f%+9.6fj" % (z.real, z.imag)
                                         for z in row))
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
    pa.add_argument("--seed", type=int, default=0)
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            report = cmd_analyze(args.path, args)
            if args.format == "structured":
                print(json.dumps(report.as_dict(), indent=2))
            else:
                print("\n".join(report.text_lines()))
        elif args.command == "decompose":
            report = cmd_decompose(args.path, args)
            if args.format == "structured":
                print(json.dumps(report, indent=2))
            else:
                print("\n".join(_decompose_text(report)))
        else:
            cmd_ellipsoid(args.path, args.out_csv)
    except ChannelFileError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
