"""Acceptance suite: twelve end-to-end criteria at fixed tolerances.

Each test prints one verdict line (PASS or FAIL) so the run leaves a
twelve-line scoreboard even under captured output. The bodies only use
public entry points except where a criterion reads the dual bound of the
internal fidelity solver.
"""

import time

import numpy as np

from qchan import capacity, channel, extremal, numkit, qubit
from conftest import filtered_tp, pauli_channel, random_density, \
    random_pure, random_tp_channel, random_unitary


def _verdict(capsys, num, label, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print("\ncriterion %2d  %-44s FAIL" % (num, label))
        raise
    with capsys.disabled():
        print("\ncriterion %2d  %-44s PASS" % (num, label))


def test_criterion_01_signed_kraus_transpose(capsys):
    def body():
        e = [np.zeros((2, 2)) for _ in range(4)]
        for i in range(2):
            for j in range(2):
                e[2 * i + j] = np.zeros((2, 2))
                e[2 * i + j][i, j] = 1.0
        action = [m.T for m in e]
        hm = channel.signed_kraus(action)
        lams = np.sort([lam for lam, _ in hm.signed_kraus])
        assert np.abs(lams - np.array([-1, 1, 1, 1])).max() <= 1e-12
        channel.signed_kraus(action)  # warm up
        best = min(_timed(lambda: channel.signed_kraus(action))
                   for _ in range(5))
        assert best < 1e-3

    _verdict(capsys, 1, "signed Kraus of the transpose action", body)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_cp_deficit(capsys):
    def body():
        dec = channel.cp_deficit(channel.transpose_map(2))
        assert abs(dec.epsilon - 1.0) <= 1e-9
        assert channel.is_tp(dec.tilde)
        assert numkit.eigh(dec.tilde.choi)[0].min() > -1e-10
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                assert np.abs(dec.reconstruct(unit) - unit.T).max() <= 1e-10

    _verdict(capsys, 2, "CP deficit of the transpose map", body)


def test_criterion_03_entanglement_breaking_threshold(capsys):
    def body():
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if qubit.concurrence(channel.depolarizing(mid).jam) > 1e-9:
                lo = mid
            else:
                hi = mid
        pstar = 0.5 * (lo + hi)
        assert abs(pstar - 2 / 3) <= 1e-6
        assert not qubit.is_entanglement_breaking(
            channel.depolarizing(pstar - 3e-5))
        assert qubit.is_entanglement_breaking(
            channel.depolarizing(pstar + 3e-5))

        rng = np.random.default_rng(7)
        n_ent = n_sep = 0
        for k in range(500):
            rho = random_density(rng, 4, rank=1 + k % 4)
            entangled = qubit.concurrence(rho) > 1e-8
            pt = numkit.partial_transpose(rho, 2, 2, 2)
            npt = numkit.eigh(pt)[0].min() < -1e-8
            assert entangled == npt
            n_ent += entangled
            n_sep += not entangled
        assert n_ent > 10 and n_sep > 10

    _verdict(capsys, 3, "entanglement breaking threshold at 2/3", body)


def test_criterion_04_fidelity_beats_bell_input(capsys):
    def body():
        ch = channel.amplitude_damping(0.5)
        f, chi = qubit.max_entanglement_fidelity(ch)
        assert abs(f - 0.75) <= 1e-9

        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        out = np.zeros((4, 4), dtype=complex)
        for a in ch.kraus:
            ext = numkit.kron(np.eye(2), a)
            out += ext @ np.outer(phi, phi.conj()) @ ext.conj().T
        bell = float((phi.conj() @ out @ phi).real)
        assert abs(bell - 0.728553) <= 1e-4
        assert f > bell

    _verdict(capsys, 4, "fidelity 0.75 beats the Bell input", body)


def test_criterion_05_quantum_capacity(capsys):
    def body():
        cq = capacity.quantum_capacity_rank2_unital(channel.phase_flip(0.1))
        assert abs(cq - 0.531004) <= 1e-6
        assert abs(cq - 0.5310044064107189) <= 1e-9
        for p in (0.1, 0.23, 0.4):
            a = capacity.quantum_capacity_rank2_unital(channel.phase_flip(p))
            b = capacity.quantum_capacity_rank2_unital(
                channel.phase_flip(1 - p))
            assert abs(a - b) <= 1e-12

    _verdict(capsys, 5, "quantum capacity formula and symmetry", body)


def _h2(p):
    p = np.clip(p, 1e-300, 1 - 1e-16)
    return -(p * np.log2(p) + (1 - p) * np.log2(1 - p))


def _holevo_grid_oracle_ad(gam):
    """Grid oracle for the damping channel at theta resolution 1e-3.

    A coarse full scan over state pairs and mixing weights first confirms
    the optimum is a symmetric pair mixed evenly; the fine grid then runs
    over the symmetric family only.
    """
    thetas = np.arange(-np.pi, np.pi, 0.01)
    x = np.sqrt(1 - gam) * np.sin(thetas)
    z = gam + (1 - gam) * np.cos(thetas)
    s_out = _h2((1 + np.sqrt(x ** 2 + z ** 2)) / 2)
    best = (-1.0, 0.0, 0.0, 0.5)
    for w in np.linspace(0.05, 0.95, 19):
        mx = w * x[:, None] + (1 - w) * x[None, :]
        mz = w * z[:, None] + (1 - w) * z[None, :]
        val = _h2((1 + np.sqrt(mx ** 2 + mz ** 2)) / 2) \
            - w * s_out[:, None] - (1 - w) * s_out[None, :]
        k = int(np.argmax(val))
        i, j = divmod(k, thetas.size)
        if val[i, j] > best[0]:
            best = (float(val[i, j]), thetas[i], thetas[j], float(w))
    assert abs(best[1] + best[2]) < 0.05 and abs(best[3] - 0.5) < 0.08

    th = np.arange(0.0, np.pi + 1e-9, 1e-3)
    x = np.sqrt(1 - gam) * np.sin(th)
    z = gam + (1 - gam) * np.cos(th)
    s_out = _h2((1 + np.sqrt(x ** 2 + z ** 2)) / 2)
    ws = np.linspace(0.40, 0.60, 201)[:, None]
    r_mix = np.sqrt(((2 * ws - 1) * x[None, :]) ** 2 + z[None, :] ** 2)
    return float((_h2((1 + r_mix) / 2) - s_out[None, :]).max())


def test_criterion_06_holevo_chi(capsys):
    def body():
        t0 = time.perf_counter()
        res = capacity.holevo_chi(channel.identity(2))
        assert abs(res.chi - 1.0) <= 1e-6

        res = capacity.holevo_chi(channel.phase_flip(0.3))
        assert abs(res.chi - 1.0) <= 1e-4
        items = res.ensemble.items
        assert len(items) == 2
        assert abs(np.trace(items[0][1] @ items[1][1]).real) <= 1e-6

        oracle = _holevo_grid_oracle_ad(0.5)
        res = capacity.holevo_chi(channel.amplitude_damping(0.5))
        assert abs(res.chi - oracle) <= 1e-3
        assert time.perf_counter() - t0 < 30.0

    _verdict(capsys, 6, "Holevo chi values and grid oracle", body)


def test_criterion_07_extremality_suite(capsys):
    def body():
        rng = np.random.default_rng(3)
        assert extremal.is_extremal_tp(channel.identity(2))
        for n in (2, 3):
            for _ in range(3):
                u = random_unitary(rng, n)
                assert extremal.is_extremal_tp(channel.unitary(u))
        for g in (0.1, 0.5, 0.9):
            assert extremal.is_extremal_tp(channel.amplitude_damping(g))

        non_extremal = [channel.depolarizing(p) for p in (0.25, 0.5, 0.75)]
        non_extremal.append(channel.phase_flip(0.3))
        for ch in non_extremal:
            assert not extremal.is_extremal_tp(ch)
        assert not extremal.is_extremal_constrained(
            channel.phase_flip(0.3), np.eye(2) / 2)

        for ch in non_extremal:
            parts = extremal.decompose_into_extremals(ch)
            assert abs(sum(w for w, _ in parts) - 1) <= 1e-12
            for _, part in parts:
                assert extremal.is_extremal_tp(part)
            for _ in range(5):
                rho = random_density(rng, 2)
                mixed = sum(w * channel.apply(p, rho) for w, p in parts)
                assert np.abs(mixed - channel.apply(ch, rho)).max() <= 1e-9

    _verdict(capsys, 7, "extremality tests and decomposition", body)


def test_criterion_08_rank_reduction(capsys):
    def body():
        rng = np.random.default_rng(11)
        cases = [(2, 2)] * 20 + [(3, 2)] * 15 + [(3, 3)] * 15
        for n, m in cases:
            ch = random_tp_channel(rng, n, m)
            psi, chi, space = extremal.rank_reducing_input(ch)
            out = channel.apply(ch, np.outer(psi, psi.conj()))
            w = numkit.eigh(out)[0]
            assert (w > 1e-8).sum() <= m - 1
            assert float((chi.conj() @ out @ chi).real) <= 1e-8

    _verdict(capsys, 8, "rank reducing inputs on 50 channels", body)


def test_criterion_09_duality_suite(capsys):
    def body():
        rng = np.random.default_rng(17)
        for k in range(100):
            n = 2 if k < 50 else 3
            ch = random_tp_channel(rng, n, 1 + k % (n * n))
            rho = random_density(rng, n)
            direct = channel.apply(ch, rho)
            assert np.abs(direct
                          - channel.apply_via_dual(ch.choi, rho)).max() \
                <= 1e-10
            back = channel.Channel(channel.kraus_from_choi(ch.choi))
            assert np.abs(back.choi - ch.choi).max() <= 1e-10
            assert np.abs(channel.apply(back, rho) - direct).max() <= 1e-10
            assert np.abs(numkit.partial_trace(ch.choi, n, n, 2)
                          - np.eye(n)).max() <= 1e-10

        us = [random_unitary(rng, 2) for _ in range(3)]
        mix = channel.Channel([u / np.sqrt(3) for u in us])
        assert np.abs(numkit.partial_trace(mix.choi, 2, 2, 1)
                      - np.eye(2)).max() <= 1e-10
        assert channel.is_unital(mix)
        ad = channel.amplitude_damping(0.5)
        assert np.abs(numkit.partial_trace(ad.choi, 2, 2, 1)
                      - np.eye(2)).max() > 0.1
        assert not channel.is_unital(ad)
        scaled = channel.Channel([0.9 * np.eye(2)])
        assert np.abs(numkit.partial_trace(scaled.choi, 2, 2, 2)
                      - np.eye(2)).max() > 0.1
        assert not channel.is_tp(scaled)

    _verdict(capsys, 9, "duality and roundtrips on 100 channels", body)


def test_criterion_10_normal_forms(capsys):
    def body():
        rng = np.random.default_rng(23)
        for base in (channel.amplitude_damping(0.3),
                     random_tp_channel(rng, 2, 2)):
            ref = np.asarray(qubit.lu_normal_form(base).lambdas)
            for _ in range(20):
                u_in = random_unitary(rng, 2)
                u_out = random_unitary(rng, 2)
                conj = channel.Channel([u_out @ k @ u_in
                                        for k in base.kraus])
                lam = np.asarray(qubit.lu_normal_form(conj).lambdas)
                assert np.abs(lam - ref).max() <= 1e-9

        assert qubit.slocc_normal_form(channel.depolarizing(0.5)).kind \
            == "Generic"
        assert qubit.slocc_normal_form(channel.amplitude_damping(0.5)).kind \
            == "NonGeneric"
        assert qubit.slocc_normal_form(channel.amplitude_damping(1.0)).kind \
            == "Point"

        seeds = [(0.6, 0.45, 0.2), (0.7, 0.5, 0.3), (0.9, 0.2, 0.15)]
        for seed in seeds:
            base = pauli_channel(*seed)
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) \
                + 2 * np.eye(2)
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) \
                + 2 * np.eye(2)
            form = qubit.slocc_normal_form(filtered_tp(base, a, b))
            assert form.kind == "Generic"
            assert np.abs(np.asarray(form.s) - np.asarray(seed)).max() \
                <= 1e-6

    _verdict(capsys, 10, "unitary and filtering normal forms", body)


def test_criterion_11_wootters_machinery(capsys):
    def body():
        rng = np.random.default_rng(29)
        for k in range(100):
            rho = random_density(rng, 4, rank=1 + k % 4)
            dec = qubit.equal_concurrence_decomposition(rho)
            assert abs(dec.c - qubit.concurrence(rho)) <= 1e-8
            assert abs(sum(dec.weights) - 1) <= 1e-10
            rebuilt = sum(w * np.outer(s, s.conj())
                          for w, s in zip(dec.weights, dec.states))
            assert np.abs(rebuilt - rho).max() <= 1e-10
            for s in dec.states:
                assert abs(qubit.concurrence(np.outer(s, s.conj()))
                           - dec.c) <= 1e-8

        eb = [channel.completely_depolarizing(2), channel.depolarizing(0.8),
              channel.replacer(random_density(rng, 2))]
        for _ in range(5):
            p0, p1 = random_pure(rng, 2), random_pure(rng, 2)
            eb.append(channel.Channel(
                [np.outer(p0, [1, 0]), np.outer(p1, [0, 1])],
                require_tp=True))
        for ch in eb:
            form = qubit.kraus_contraction_form(ch)
            assert form.c <= 1e-8
            for kop in form.kraus:
                assert numkit.svd(kop)[1][1] <= 1e-8

    _verdict(capsys, 11, "equal concurrence pure decompositions", body)


def test_criterion_12_fidelity_solvers(capsys):
    def body():
        rng = np.random.default_rng(12)
        for k in range(20):
            rho = random_density(rng, 4, rank=1 + k % 4)
            m = capacity._fidelity_weight_matrix(rho)
            primal, dual, ch = capacity._fidelity_primal_dual(m)
            assert 0 <= dual - primal <= 1e-8
            assert (numkit.eigh(ch.jam)[0] > 1e-6).sum() <= 2

        th = 0.2
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = np.cos(th), np.sin(th)
        noise = np.zeros((4, 4), dtype=complex)
        noise[1, 1] = 1.0
        rho = 0.6 * np.outer(psi, psi.conj()) + 0.4 * noise
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        f0 = float((phi.conj() @ rho @ phi).real)
        fstar, _ = capacity.fidelity_optimize_one_side(rho)
        assert fstar > f0 + 0.05
        assert abs(fstar - 0.5062930) <= 1e-3

    _verdict(capsys, 12, "fidelity duality gap and gain", body)
