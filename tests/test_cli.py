import csv
import json
import math

import numpy as np
import pytest

from qchan import channel, cli
from conftest import random_density


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


def test_load_plain_real_entries(tmp_path):
    # plain numbers are accepted wherever [re, im] pairs are
    doc = {"kraus": [[[1, 0], [0, 1]]]}
    path = write_doc(tmp_path, "id.json", doc)
    ch, _ = cli.load_channel_file(path)
    assert np.abs(ch.choi - channel.identity(2).choi).max() < 1e-12


def test_load_rejects_malformed(tmp_path):
    cases = [
        "{not json",
        json.dumps({"dim": 2}),
        json.dumps({"kraus": [], "choi": [[1]]}),
        json.dumps({"builder": "transpose_map"}),
        json.dumps({"builder": "amplitude_damping", "gamma": 2.0}),
        json.dumps({"dim": 3, "builder": "phase_flip", "p": 0.1}),
        json.dumps({"kraus": [[[1, 0], [0]]]}),
    ]
    for k, text in enumerate(cases):
        path = tmp_path / ("bad%d.json" % k)
        path.write_text(text)
        with pytest.raises(cli.ChannelFileError):
            cli.load_channel_file(str(path))


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
    assert report["provenance"]["seed"] == 0


def test_analyze_depolarizing_eb(tmp_path, capsys):
    path = write_doc(tmp_path, "dep.json",
                     {"builder": "depolarizing", "p": 0.7})
    code = run(["analyze", path, "--eb", "--format", "structured"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["eb"]["entanglement_breaking"] is True


def test_analyze_eb_near_threshold(tmp_path, capsys):
    # the concurrence and the partial transpose sit on opposite sides of
    # 1e-9 here; the verdict is a result, not a skipped analysis
    path = write_doc(tmp_path, "dep.json",
                     {"builder": "depolarizing", "p": 2 / 3 - 1e-9})
    code = run(["analyze", path, "--eb", "--format", "structured"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["eb"]["entanglement_breaking"] is True


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
    args = ["analyze", path, "--capacities", "--seed", "3",
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
    assert "holevo_chi=0.471729391 (blahut-arimoto minimax, gap " in out
