import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qchan import capacity, channel, cli, extremal
from conftest import count_choi_factorizations, filtered_tp, \
    random_density, random_sl2, random_tp_channel, random_unitary, \
    template_channel


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv):
    return cli.main(argv)


def test_load_builder_file(tmp_path):
    path = write_doc(tmp_path, "ad.json",
                     {"builder": "amplitude_damping", "gamma": 0.5})
    ch, source = cli.load_channel_file(path)
    assert source["form"] == "builder"
    assert np.abs(ch.choi - channel.amplitude_damping(0.5).choi).max() < 1e-12


def test_load_kraus_and_choi_files(tmp_path):
    src = channel.phase_flip(0.3)
    kpath = str(tmp_path / "k.json")
    cpath = str(tmp_path / "c.json")
    cli.write_kraus_file(kpath, src)
    cli.write_choi_file(cpath, src)
    for path in (kpath, cpath):
        back, _ = cli.load_channel_file(path)
        assert np.abs(back.choi - src.choi).max() < 1e-10


@pytest.mark.parametrize("d", [1e-10, 3e-10, 7e-10])
def test_choi_file_keeps_a_small_eigenvalue(tmp_path, d):
    """depolarizing(4/3 - d) has a least Choi eigenvalue of 3d / 2, under
    the 1e-9 rank cut; dropping it would miss the trace condition."""
    src = channel.depolarizing(4 / 3 - d)
    path = str(tmp_path / "c.json")
    cli.write_choi_file(path, src)
    back, _ = cli.load_channel_file(path)
    assert channel.is_tp(back)
    assert np.abs(back.choi - src.choi).max() < 1e-12


def test_qutrit_choi_file_near_full_rank_answers_every_analysis(tmp_path,
                                                                capsys):
    """(1 - eps) C_8 + eps I / 3, C_8 the Choi matrix of a rank-8 qutrit
    channel: its least eigenvalue, near eps / 3 = 8e-10, is under the rank
    cut, yet the file loads trace-preserving and nothing is skipped."""
    eps = 2.4e-9
    ks = random_tp_channel(np.random.default_rng(9), 3, 8).kraus
    mix = [np.sqrt(1 - eps) * k for k in ks] + [
        np.sqrt(eps) * k for k in channel.completely_depolarizing(3).kraus]
    path = str(tmp_path / "c.json")
    cli.write_choi_file(path, channel.Channel(mix))
    ch, _ = cli.load_channel_file(path)
    assert channel.is_tp(ch)
    assert run(["analyze", path, "--all", "--format", "structured"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["extremality"]["extremal"] is False
    assert "f_max" in results["fidelity"]
    assert run(["decompose", path]) == 0


def test_load_plain_real_entries(tmp_path):
    # plain numbers are accepted wherever [re, im] pairs are, also
    # mixed with them in one matrix
    for rows in ([[1, 0], [0, 1]], [[[1, 0], 0], [0, [1.0, 0]]]):
        path = write_doc(tmp_path, "id.json", {"kraus": [rows]})
        ch, _ = cli.load_channel_file(path)
        assert np.abs(ch.choi - channel.identity(2).choi).max() < 1e-12


# json.load reads NaN and Infinity; each file names its first bad field
NON_FINITE = [
    ('{"kraus": [[[1, 0], [0, NaN]]]}', "kraus[0][1][1]"),
    (json.dumps({"choi": [[math.inf if i == j == 0 else float(i == j)
                           for j in range(4)] for i in range(4)]}),
     "choi[0][0]"),
    ('{"builder": "depolarizing", "p": NaN}', "p"),
]


def test_load_rejects_malformed(tmp_path):
    cases = [
        "{not json",
        json.dumps({"dim": 2}),
        json.dumps({"kraus": [], "choi": [[1]]}),
        json.dumps({"builder": "transpose_map"}),
        json.dumps({"builder": "amplitude_damping", "gamma": 2.0}),
        json.dumps({"dim": 3, "builder": "phase_flip", "p": 0.1}),
        json.dumps({"kraus": [[[1, 0], [0]]]}),
    ] + [text for text, _ in NON_FINITE]
    for k, text in enumerate(cases):
        path = tmp_path / ("bad%d.json" % k)
        path.write_text(text)
        with pytest.raises(cli.ChannelFileError):
            cli.load_channel_file(str(path))


@pytest.mark.parametrize("text, field", NON_FINITE + [
    # an integer beyond the float range is as infinite as Infinity
    ('{"kraus": [[[1, 0], [0, 1%s]]]}' % ("0" * 400), "kraus[0][1][1]")],
    ids=["kraus-nan", "choi-inf", "builder-nan", "kraus-huge-int"])
def test_load_names_the_non_finite_field(tmp_path, capsys, text, field):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["analyze", str(path), "--rank"]) == 2
    assert _one_error_line(capsys).rstrip().endswith(
        field + ": not a finite number")


def _encode_per_entry(m):
    """The reference encoding: one [re, im] pair of floats per entry."""
    return [[[float(complex(z).real), float(complex(z).imag)] for z in row]
            for row in np.asarray(m)]


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308]


@st.composite
def _complex_matrices(draw):
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    parts = st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS),
                               st.floats(allow_nan=False,
                                         allow_infinity=False)),
                     min_size=rows * cols, max_size=rows * cols)
    m = np.empty((rows, cols), dtype=complex)
    # set the parts separately: re + 1j * im would drop the sign of -0.0
    m.real = np.reshape(draw(parts), (rows, cols))
    m.imag = np.reshape(draw(parts), (rows, cols))
    return m


@settings(max_examples=60, deadline=None)
@given(_complex_matrices())
def test_matrix_codec_round_trip(m):
    encoded = cli._encode_matrix(m)
    assert encoded == _encode_per_entry(m)
    assert json.dumps(encoded) == json.dumps(_encode_per_entry(m))
    assert (json.dumps(cli._encode_matrix(m.real))
            == json.dumps(_encode_per_entry(m.real)))
    back = cli._decode_matrix(json.loads(json.dumps(encoded)), "m")
    assert back.dtype == m.dtype and back.shape == m.shape
    assert back.tobytes() == m.tobytes()


def test_structured_output_uses_the_c_encoder(tmp_path, capsys, monkeypatch):
    """Reports and emitted files are one-shot json.dumps calls without
    indent, which json's C encoder serves; its pure-Python encoder (taken
    for any indent, and by json.dump) is never reached."""
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    path = write_doc(tmp_path, "dep.json",
                     {"builder": "depolarizing", "p": 0.5})
    emitted = str(tmp_path / "emitted.json")
    assert run(["analyze", path, "--all", "--format", "structured",
                "--emit-choi", emitted]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert set(json.loads(out)["results"]) == set(cli.ANALYSES)
    assert run(["decompose", path, "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert len(json.loads(out)["components"]) >= 2
    cli.write_kraus_file(str(tmp_path / "k.json"), channel.depolarizing(0.5))


def test_analyze_amplitude_damping_report(tmp_path, capsys):
    path = write_doc(tmp_path, "ad.json",
                     {"builder": "amplitude_damping", "gamma": 0.5})
    code = run(["analyze", path, "--all", "--format", "structured"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["dim"] == 2
    assert report["summary"]["rank"] == 2
    assert report["results"]["extremality"]["extremal"] is True
    assert report["results"]["eb"]["entanglement_breaking"] is False
    assert abs(report["results"]["fidelity"]["f_max"] - 0.75) < 1e-9
    chi = report["results"]["capacities"]["holevo_chi"]
    assert 0 <= chi["upper_bound"] - chi["value"] <= 1e-8
    assert report["provenance"] == {"tol": 1e-9, "format": "structured"}


def test_analyze_depolarizing_eb(tmp_path, capsys):
    path = write_doc(tmp_path, "dep.json",
                     {"builder": "depolarizing", "p": 0.7})
    code = run(["analyze", path, "--eb", "--format", "structured"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["eb"]["entanglement_breaking"] is True


def test_analyze_eb_near_threshold(tmp_path, capsys):
    # the concurrence and 1/2 - f_max sit on opposite sides of 1e-9 here;
    # the verdict is a result, not a skipped analysis, and a breaking
    # channel distributes no entanglement
    path = write_doc(tmp_path, "dep.json",
                     {"builder": "depolarizing", "p": 2 / 3 - 1e-9})
    code = run(["analyze", path, "--eb", "--format", "structured"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["eb"]["entanglement_breaking"] is True
    assert report["results"]["eb"]["can_distribute"] is False


def test_eb_fields_never_contradict(tmp_path, capsys):
    """Around the depolarizing threshold p = 2/3, at every --tol, the
    channel either breaks entanglement or distributes it."""
    verdicts = set()
    for p in [0.6665] + [2 / 3 + d for d in (-1e-3, -1e-6, -1e-9, -1e-12,
                                              0.0, 1e-12, 1e-9, 1e-6, 1e-3)]:
        path = write_doc(tmp_path, "dep.json",
                         {"builder": "depolarizing", "p": p})
        for tol in ("1e-12", "1e-9", "1e-6", "1e-3", "1e-2"):
            assert run(["analyze", path, "--eb", "--tol", tol,
                        "--format", "structured"]) == 0
            eb = json.loads(capsys.readouterr().out)["results"]["eb"]
            assert eb["can_distribute"] is not eb["entanglement_breaking"]
            verdicts.add(eb["entanglement_breaking"])
    assert verdicts == {True, False}


def test_analyze_eb_solves_one_eigenproblem(tmp_path, monkeypatch):
    """The eb verdict reads the dual-state spectrum that the summary's
    rank factors; no second matrix is diagonalized."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, solve=getattr(np.linalg, name), **kwargs):
            calls.append(solve.__name__)
            return solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    path = write_doc(tmp_path, "dep.json",
                     {"builder": "depolarizing", "p": 0.5})
    assert run(["analyze", path, "--eb"]) == 0
    assert calls == ["eigh"]


def test_analyze_constant_channel_chi_is_positive_zero(tmp_path, capsys):
    path = write_doc(tmp_path, "ad1.json",
                     {"builder": "amplitude_damping", "gamma": 1.0})
    code = run(["analyze", path, "--capacities", "--format", "structured"])
    assert code == 0
    out = capsys.readouterr().out
    chi = json.loads(out)["results"]["capacities"]["holevo_chi"]
    assert chi["value"] == 0.0 and math.copysign(1.0, chi["value"]) == 1.0
    assert '"value": -0.0' not in out


def test_analyze_gate_failure_not_fatal(tmp_path, capsys):
    # qutrit channel: qubit-only analyses are reported as skipped
    src = channel.identity(3)
    path = str(tmp_path / "id3.json")
    cli.write_kraus_file(path, src)
    code = run(["analyze", path, "--eb", "--normal-forms", "--rank",
                "--format", "structured"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["rank"]["value"] == 1
    assert "skipped" in report["results"]["eb"]
    assert "skipped" in report["results"]["normal_forms"]


def test_analyze_reports_one_rank(tmp_path, capsys):
    # a weak bit flip: rank 2 at the default tolerance, rank 1 at 1e-3,
    # and the summary agrees with the rank analysis at either
    eps = 1e-5
    src = channel.Channel([np.sqrt(1 - eps) * np.eye(2, dtype=complex),
                           np.sqrt(eps) * np.array([[0, 1], [1, 0]],
                                                   dtype=complex)])
    path = str(tmp_path / "flip.json")
    cli.write_kraus_file(path, src)
    for extra, expect in (([], 2), (["--tol", "1e-3"], 1)):
        code = run(["analyze", path, "--rank", "--format", "structured"]
                   + extra)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["rank"] == expect
        assert report["results"]["rank"]["value"] == expect


@pytest.mark.parametrize("doc", [{"builder": "depolarizing", "p": 0.5},
                                 {"builder": "phase_flip", "p": 0.3}],
                         ids=["depolarizing", "phase_flip"])
def test_one_factorization_of_the_choi_matrix(tmp_path, monkeypatch, doc):
    """analyze --all and decompose each eigendecompose the channel's
    Choi matrix once: rank, minimal Kraus, the choi report, fidelity,
    can_distribute and the rank-2 capacity all read one spectrum."""
    path = write_doc(tmp_path, "ch.json", doc)
    choi = cli.load_channel_file(path)[0].choi
    calls = count_choi_factorizations(monkeypatch, choi)
    for argv in (["analyze", path, "--all"], ["decompose", path]):
        assert run(argv) == 0
        assert calls == ["eigh"]
        del calls[:]


def _seeded(make, *args):
    """A strategy of make(rng, *drawn args) over seeded generators."""
    return st.builds(lambda seed, *a: make(np.random.default_rng(seed), *a),
                     st.integers(0, 2 ** 32 - 1), *args)


_DIMS = st.integers(2, 3)
# the non-generic template toward x = 0 under random filters
_TEMPLATES = _seeded(lambda rng, x: filtered_tp(
    template_channel(x), random_sl2(rng), random_sl2(rng)),
    st.sampled_from([0.0, 1e-12, 1e-9]))
_OTHER_CHANNELS = st.one_of(
    _DIMS.flatmap(lambda n: _seeded(random_tp_channel, st.just(n),
                                    st.integers(1, n * n))),
    st.builds(channel.depolarizing, st.floats(0, 4 / 3)),
    st.builds(channel.amplitude_damping, st.floats(0, 1)),
    st.builds(channel.phase_flip, st.floats(0, 1)),
    st.builds(channel.bit_flip, st.floats(0, 1)),
    st.builds(channel.identity, _DIMS),
    st.builds(channel.completely_depolarizing, _DIMS),
    _seeded(lambda rng, n: channel.replacer(random_density(rng, n)), _DIMS),
    _seeded(lambda rng, n: channel.unitary(random_unitary(rng, n)), _DIMS))


@settings(max_examples=40, deadline=None)
@given(st.booleans().flatmap(lambda t: _TEMPLATES if t else _OTHER_CHANNELS),
       st.sampled_from([cli.write_kraus_file, cli.write_choi_file]))
# 1 - g at rounding level: the non-generic form's scale^2 / 3 is 1 - g
@example(ch=channel.amplitude_damping(0.9999999999999999),
         write=cli.write_kraus_file)
def test_every_analysis_runs_on_valid_channels(tmp_path_factory, ch, write):
    """A valid channel file never trips an internal self-check: analyze
    --all raises no RuntimeError on random channels of every rank, the
    builders, unitaries and (half the draws) filtered non-generic
    templates toward x = 0."""
    path = str(tmp_path_factory.getbasetemp() / "valid.json")
    write(path, ch)
    cli.cmd_analyze(path, cli._parser().parse_args(["analyze", path,
                                                    "--all"]))


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    return err


def test_analyze_uncertified_chi_exits_one(tmp_path, capsys, monkeypatch):
    # a failed certificate is a failure of the run, not a skipped analysis
    monkeypatch.setattr(capacity, "_polish_measurement",
                        lambda frame, c, u, y, y0, **mode: (c, u, y, y0))
    path = write_doc(tmp_path, "ad.json",
                     {"builder": "amplitude_damping", "gamma": 0.5})
    assert run(["analyze", path, "--capacities"]) == 1
    assert "not certified" in _one_error_line(capsys)


def test_failed_factorization_check_exits_one(tmp_path, capsys, monkeypatch):
    # eigenvalues off by 1e-3 fail numkit.eigh's reconstruction check
    eigh = np.linalg.eigh

    def perturbed(m):
        w, v = eigh(m)
        return w + 1e-3, v

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    path = write_doc(tmp_path, "ad.json",
                     {"builder": "amplitude_damping", "gamma": 0.5})
    assert run(["analyze", path, "--eb"]) == 1
    assert "eigh reconstruction" in _one_error_line(capsys)


def test_decompose_self_check_failure_exits_one(tmp_path, capsys,
                                                monkeypatch):
    def off_trace(f, v):
        raise RuntimeError("extremal part is off the trace condition")

    monkeypatch.setattr(extremal, "_tp_channel", off_trace)
    path = write_doc(tmp_path, "dep.json",
                     {"builder": "depolarizing", "p": 0.5})
    assert run(["decompose", path]) == 1
    assert "trace condition" in _one_error_line(capsys)


def test_analyze_malformed_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"builder": "amplitude_damping", "gamma": 0.5')
    code = run(["analyze", str(path)])
    assert code != 0
    assert "error" in capsys.readouterr().err


def test_analyze_emit_choi_roundtrip(tmp_path, capsys):
    path = write_doc(tmp_path, "ad.json",
                     {"builder": "amplitude_damping", "gamma": 0.37})
    out = str(tmp_path / "emitted.json")
    code = run(["analyze", path, "--rank", "--emit-choi", out])
    assert code == 0
    capsys.readouterr()
    back, _ = cli.load_channel_file(out)
    src = channel.amplitude_damping(0.37)
    rng = np.random.default_rng(0)
    for _ in range(10):
        rho = random_density(rng, 2)
        assert np.abs(channel.apply(back, rho)
                      - channel.apply(src, rho)).max() < 1e-10


def test_analyze_deterministic_output(tmp_path, capsys):
    path = write_doc(tmp_path, "ad.json",
                     {"builder": "amplitude_damping", "gamma": 0.5})
    args = ["analyze", path, "--capacities", "--normal-forms",
            "--format", "structured"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second


def test_decompose_depolarizing(tmp_path, capsys):
    path = write_doc(tmp_path, "dep.json",
                     {"builder": "depolarizing", "p": 0.75})
    code = run(["decompose", path, "--format", "structured"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extremal"] is False
    comps = report["components"]
    assert abs(sum(c["weight"] for c in comps) - 1) < 1e-12
    assert all(c["unitary"] for c in comps)
    # rebuild the action from the serialized components
    rng = np.random.default_rng(1)
    rho = random_density(rng, 2)
    rebuilt = np.zeros((2, 2), dtype=complex)
    for comp in comps:
        ops = [np.array([[complex(re, im) for re, im in row] for row in mat])
               for mat in comp["kraus"]]
        rebuilt += comp["weight"] * channel.apply(channel.Channel(ops), rho)
    target = channel.apply(channel.depolarizing(0.75), rho)
    assert np.abs(rebuilt - target).max() < 1e-9


@pytest.mark.parametrize("doc", [
    {"builder": "replacer", "rho2": [[0.5, 0, 0], [0, 0.3, 0], [0, 0, 0.2]]},
    {"builder": "depolarizing", "p": 0.8474062580174515}])
def test_decompose_exits_zero(tmp_path, capsys, doc):
    """The split tree exceeded 64 terms on the first and lost the trace
    condition on the second."""
    path = write_doc(tmp_path, "ch.json", doc)
    assert run(["decompose", path, "--format", "structured"]) == 0
    comps = json.loads(capsys.readouterr().out)["components"]
    assert 2 <= len(comps) <= 9
    assert abs(sum(c["weight"] for c in comps) - 1) < 1e-12


def test_decompose_extremal_message(tmp_path, capsys):
    path = write_doc(tmp_path, "ad.json",
                     {"builder": "amplitude_damping", "gamma": 0.5})
    code = run(["decompose", path])
    assert code == 0
    assert "already extremal" in capsys.readouterr().out


def test_ellipsoid_csv(tmp_path):
    path = write_doc(tmp_path, "ad.json",
                     {"builder": "amplitude_damping", "gamma": 0.5})
    out = str(tmp_path / "ad.csv")
    assert run(["ellipsoid", path, out]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.ELLIPSOID_HEADER
    vals = [float(x) for x in rows[1]]
    assert np.abs(np.array(vals[0:3]) - [0, 0, 0.5]).max() < 1e-9
    assert np.abs(np.sort(vals[3:6])
                  - np.sort([np.sqrt(0.5), np.sqrt(0.5), 0.5])).max() < 1e-9
    orient = np.array(vals[6:]).reshape(3, 3)
    assert np.abs(orient @ orient.T - np.eye(3)).max() < 1e-9


def test_ellipsoid_identity_and_point(tmp_path):
    ident = write_doc(tmp_path, "id.json", {"builder": "identity"})
    out = str(tmp_path / "id.csv")
    run(["ellipsoid", ident, out])
    with open(out) as fh:
        vals = [float(x) for x in list(csv.reader(fh))[1]]
    assert np.abs(np.array(vals[0:3])).max() < 1e-12
    assert np.abs(np.array(vals[3:6]) - 1).max() < 1e-12

    point = write_doc(tmp_path, "cd.json",
                      {"builder": "amplitude_damping", "gamma": 1.0})
    out = str(tmp_path / "cd.csv")
    run(["ellipsoid", point, out])
    with open(out) as fh:
        vals = [float(x) for x in list(csv.reader(fh))[1]]
    assert np.abs(np.array(vals[3:6])).max() < 1e-9


def test_ellipsoid_rejects_non_qubit(tmp_path, capsys):
    src = channel.identity(3)
    path = str(tmp_path / "id3.json")
    cli.write_kraus_file(path, src)
    code = run(["ellipsoid", path, str(tmp_path / "x.csv")])
    assert code != 0
    assert "error" in capsys.readouterr().err


def test_text_format_mentions_key_results(tmp_path, capsys):
    path = write_doc(tmp_path, "ad.json",
                     {"builder": "amplitude_damping", "gamma": 0.5})
    code = run(["analyze", path, "--rank", "--fidelity", "--eb",
                "--capacities"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rank: 2" in out
    assert "f_max=0.750000000" in out
    assert "breaking=no" in out
    assert "holevo_chi=0.471729391 (lp-kkt minimax, gap " in out


@pytest.mark.parametrize("doc, flag, line", [
    ({"builder": "bit_flip", "p": 0.2}, "--choi",
     "choi: jam eigenvalues: 0.000000 0.000000 0.200000 0.800000"),
    ({"builder": "amplitude_damping", "gamma": 0.5}, "--normal-forms",
     "normal_forms: lu lambdas: 0.707107 0.707107 0.500000  "
     "shift: 0.000000 0.000000 0.500000")], ids=["choi", "normal_forms"])
def test_text_zeros_print_unsigned(tmp_path, capsys, doc, flag, line):
    """A value that rounds to zero prints without the sign its rounding
    noise carries."""
    path = write_doc(tmp_path, "ch.json", doc)
    assert run(["analyze", path, flag]) == 0
    out = capsys.readouterr().out
    assert line in out.splitlines()
    assert "-0.000000" not in out


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    """Each report equals the one a fresh parser gives: no flag or
    default carries over from the call before."""
    fresh_parser = cli.build_parser
    built = []

    def build():
        built.append(fresh_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", build)
    cli._parser.cache_clear()
    path = write_doc(tmp_path, "dep.json",
                     {"builder": "depolarizing", "p": 0.5})
    calls = [["analyze", path, "--all", "--tol", "1e-6",
              "--format", "structured"],
             ["analyze", path, "--choi", "--format", "structured"],
             ["decompose", path, "--format", "structured"]]
    reports = []
    for argv in calls:
        assert run(argv) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert len(built) == 1
    for argv, report in zip(calls, reports):
        args = fresh_parser().parse_args(argv)
        fresh = (cli.cmd_analyze(path, args)
                 if args.command == "analyze"
                 else cli.cmd_decompose(path, args))
        assert report == json.loads(json.dumps(fresh))
    assert list(reports[1]["results"]) == ["choi"]
    assert reports[1]["provenance"]["tol"] == 1e-9


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone; it has no file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_pipe_exits_quietly(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "dep.json",
                     {"builder": "depolarizing", "p": 0.5})
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run(["analyze", path, "--all"]) == 1
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_quietly_in_a_process(tmp_path):
    """qchan analyze f | head -1, with head gone before the first write:
    neither the write nor the flush at exit prints a traceback."""
    path = write_doc(tmp_path, "dep.json",
                     {"builder": "depolarizing", "p": 0.5})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qchan.cli", "analyze", path, "--choi"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1
