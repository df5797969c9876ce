import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qchan import channel, numkit
from conftest import (random_density, random_pure, random_tp_channel,
                      random_unitary)


def test_choi_identity():
    """The identity's Choi matrix holds |i><j| in block (i, j)."""
    c = channel.identity(2).choi
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1
    assert np.abs(c - expected).max() < 1e-14
    assert abs(np.trace(c) - 2) < 1e-14


def test_choi_blocks_are_basis_images():
    rng = np.random.default_rng(0)
    ch = random_tp_channel(rng, 3, 2)
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[i, j] = 1
            img = sum(a @ e @ a.conj().T for a in ch.kraus)
            block = ch.choi[3 * i:3 * i + 3, 3 * j:3 * j + 3]
            assert np.abs(block - img).max() < 1e-12


def test_jam_normalization():
    rng = np.random.default_rng(1)
    ch = random_tp_channel(rng, 2, 3)
    assert abs(np.trace(ch.jam) - 1) < 1e-12
    w = np.linalg.eigvalsh(ch.jam)
    assert w.min() > -1e-12


def test_require_tp_flag():
    ok = channel.amplitude_damping(0.3)
    assert ok.trace_preserving
    not_tp = channel.Channel([0.5 * np.eye(2)])
    assert not not_tp.trace_preserving
    with pytest.raises(ValueError):
        channel.Channel([0.5 * np.eye(2)], require_tp=True)


def test_kraus_choi_roundtrip():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        for m in range(1, n + 1):
            ch = random_tp_channel(rng, n, m)
            ks = channel.kraus_from_choi(ch.choi)
            assert len(ks) == m  # minimal count equals the rank
            back = channel.Channel(ks)
            assert np.abs(back.choi - ch.choi).max() < 1e-10


def test_kraus_from_choi_rejects_non_cp():
    bad = np.diag([1.0, -0.2, 0.5, 0.7])
    with pytest.raises(ValueError):
        channel.kraus_from_choi(bad)


def test_apply_matches_dual_route():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        for _ in range(25):
            ch = random_tp_channel(rng, n, int(rng.integers(1, n + 1)))
            rho = random_density(rng, n)
            direct = channel.apply(ch, rho)
            via_dual = channel.apply_via_dual(ch.choi, rho)
            assert np.abs(direct - via_dual).max() < 1e-10


def test_apply_shape_check():
    ch = channel.identity(2)
    with pytest.raises(ValueError):
        channel.apply(ch, np.eye(3))


def test_tp_and_unital_marginals():
    rng = np.random.default_rng(4)
    ch = random_tp_channel(rng, 2, 2)
    assert channel.is_tp(ch)
    marg = numkit.partial_trace(ch.choi, 2, 2, 2)
    assert np.abs(marg - np.eye(2)).max() < 1e-10
    # a random unitary mixture is unital; amplitude damping is not
    u1, u2 = random_unitary(rng, 2), random_unitary(rng, 2)
    mix = channel.Channel([np.sqrt(0.4) * u1, np.sqrt(0.6) * u2])
    assert channel.is_unital(mix)
    assert np.abs(numkit.partial_trace(mix.choi, 2, 2, 1)
                  - np.eye(2)).max() < 1e-10
    assert not channel.is_unital(channel.amplitude_damping(0.5))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.integers(1, 9),
       st.floats(0.5, 2.0))
def test_kraus_sums_match_choi_marginals(seed, n, m, scale):
    """Tr_out(choi) is the transposed sum A^dag A and Tr_in(choi) the sum
    A A^dag, for any Kraus list; is_tp and is_unital read the sums."""
    ch = random_tp_channel(np.random.default_rng(seed), n, min(m, n * n))
    ks = [np.sqrt(scale) * a for a in ch.kraus]
    c = channel.Channel(ks).choi
    tp_sum = sum(a.conj().T @ a for a in ks)
    unital_sum = sum(a @ a.conj().T for a in ks)
    assert np.abs(numkit.partial_trace(c, n, n, 2) - tp_sum.T).max() <= 1e-12
    assert np.abs(numkit.partial_trace(c, n, n, 1)
                  - unital_sum).max() <= 1e-12


def test_tp_verdict_at_the_tolerance_is_one_route():
    """Unitaries scaled to a TP deviation of atol within rounding: the
    verdict comes from the Kraus sum alone and matches the Channel flag.
    Two routes (Kraus sum and Choi marginal) used to disagree here and
    raise on draws 8, 21, 48, 56, 72 and 84 of this sweep."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = random_unitary(rng, 2)
        ch = channel.Channel([np.sqrt(1 + 1e-10 + rng.uniform(-5e-16, 5e-16))
                              * u])
        dev = np.abs(ch.kraus[0].conj().T @ ch.kraus[0] - np.eye(2)).max()
        assert channel.is_tp(ch) == (dev <= 1e-10) == ch.trace_preserving
        assert channel.is_unital(ch) == (
            np.abs(ch.kraus[0] @ ch.kraus[0].conj().T - np.eye(2)).max()
            <= 1e-10)


def test_rank_known_channels():
    assert channel.rank(channel.identity(2)) == 1
    assert channel.rank(channel.amplitude_damping(0.5)) == 2
    assert channel.rank(channel.depolarizing(0.5)) == 4
    assert channel.rank(channel.completely_depolarizing(2)) == 4


def test_signed_kraus_transpose():
    """Transpose map: eigenvalues {1, 1, 1, -1}, action reproduced."""
    hm = channel.transpose_map(2)
    lams = np.sort([lam for lam, _ in hm.signed_kraus])
    assert np.abs(lams - np.array([-1.0, 1.0, 1.0, 1.0])).max() < 1e-12
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.abs(hm.apply(x) - x.T).max() < 1e-10


def test_signed_kraus_consistency_check():
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1
    # image of |0><1| must be the adjoint of the image of |1><0|
    action = [np.eye(2), e01, e01, np.eye(2)]
    with pytest.raises(ValueError):
        channel.signed_kraus(action)


def test_cp_deficit_transpose():
    hm = channel.transpose_map(2)
    dec = channel.cp_deficit(hm)
    assert abs(dec.epsilon - 1.0) < 1e-9
    assert dec.tilde.trace_preserving
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1
            assert np.abs(dec.reconstruct(e) - e.T).max() < 1e-10


def test_cp_deficit_on_cp_input_is_zero():
    ch = channel.depolarizing(0.3)
    action = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1
            action.append(channel.apply(ch, e))
    hm = channel.signed_kraus(action)
    dec = channel.cp_deficit(hm)
    assert dec.epsilon < 1e-10
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert np.abs(dec.reconstruct(rho) - channel.apply(ch, rho)).max() < 1e-9


def test_compose_amplitude_damping():
    # damping twice composes the survival probabilities
    g1, g2 = 0.3, 0.45
    ab = channel.compose(channel.amplitude_damping(g1),
                         channel.amplitude_damping(g2))
    target = channel.amplitude_damping(1 - (1 - g1) * (1 - g2))
    rng = np.random.default_rng(6)
    rho = random_density(rng, 2)
    assert np.abs(channel.apply(ab, rho)
                  - channel.apply(target, rho)).max() < 1e-12


def test_depolarizing_jam_spectrum():
    for p in (0.2, 0.5, 0.9):
        w = np.sort(np.linalg.eigvalsh(channel.depolarizing(p).jam))
        expected = np.sort([1 - 3 * p / 4, p / 4, p / 4, p / 4])
        assert np.abs(w - expected).max() < 1e-12


def test_builders_basic_actions():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 2)
    # amplitude damping moves population toward |0>
    g = 0.6
    out = channel.apply(channel.amplitude_damping(g), rho)
    assert abs(out[0, 0] - (rho[0, 0] + g * rho[1, 1])) < 1e-12
    assert abs(out[0, 1] - np.sqrt(1 - g) * rho[0, 1]) < 1e-12
    # phase flip shrinks coherences by 1 - 2p
    p = 0.3
    out = channel.apply(channel.phase_flip(p), rho)
    assert abs(out[0, 1] - (1 - 2 * p) * rho[0, 1]) < 1e-12
    # completely depolarizing and replacer hit their fixed outputs
    out = channel.apply(channel.completely_depolarizing(2), rho)
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12
    target = random_density(rng, 2)
    out = channel.apply(channel.replacer(target), rho)
    assert np.abs(out - target).max() < 1e-10


def test_builder_validation():
    with pytest.raises(ValueError):
        channel.unitary(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        channel.amplitude_damping(1.5)
    with pytest.raises(ValueError):
        channel.depolarizing(-0.1)
    with pytest.raises(ValueError):
        channel.replacer(np.diag([0.7, 0.7]))


def test_unitary_channel_action():
    rng = np.random.default_rng(8)
    u = random_unitary(rng, 3)
    ch = channel.unitary(u)
    psi = random_pure(rng, 3)
    rho = np.outer(psi, psi.conj())
    assert np.abs(channel.apply(ch, rho) - u @ rho @ u.conj().T).max() < 1e-12
