import numpy as np
import pytest

from qchan import channel, extremal, numkit
from conftest import random_density, random_tp_channel, random_unitary


def test_unitary_channels_extremal():
    rng = np.random.default_rng(0)
    assert extremal.is_extremal_tp(channel.identity(2))
    for n in (2, 3):
        for _ in range(5):
            assert extremal.is_extremal_tp(
                channel.unitary(random_unitary(rng, n)))


def test_amplitude_damping_extremal():
    for g in (0.1, 0.5, 0.9):
        assert extremal.is_extremal_tp(channel.amplitude_damping(g))


def test_mixtures_not_extremal():
    for p in (0.25, 0.5, 0.75):
        assert not extremal.is_extremal_tp(channel.depolarizing(p))
    # two-unitary mixtures are never extremal
    assert not extremal.is_extremal_tp(channel.phase_flip(0.3))
    assert not extremal.is_extremal_tp(channel.bit_flip(0.2))


def test_constrained_extremality():
    """Holding the image of I/2 fixed changes the verdict for damping only."""
    half = np.eye(2) / 2
    assert not extremal.is_extremal_constrained(channel.phase_flip(0.3), half)
    assert extremal.is_extremal_constrained(
        channel.amplitude_damping(0.5), half)
    with pytest.raises(ValueError):
        extremal.is_extremal_constrained(channel.identity(2),
                                         np.diag([0.9, 0.3]))


def test_find_perturbation():
    rng = np.random.default_rng(1)
    assert extremal.find_perturbation(channel.amplitude_damping(0.4)) is None
    for p in (0.3, 0.6):
        ch = channel.depolarizing(p)
        q = extremal.find_perturbation(ch)
        assert q is not None
        assert np.abs(q - q.conj().T).max() < 1e-10
        assert abs(np.linalg.norm(q) - 1) < 1e-8
        ks = channel.kraus_from_choi(ch.choi_pair)
        resid = sum(q[j, k] * ks[k].conj().T @ ks[j]
                    for j in range(len(ks)) for k in range(len(ks)))
        assert np.abs(resid).max() < 1e-8
    ch = random_tp_channel(rng, 3, 3)
    q = extremal.find_perturbation(ch)
    if q is not None:
        ks = channel.kraus_from_choi(ch.choi_pair)
        resid = sum(q[j, k] * ks[k].conj().T @ ks[j]
                    for j in range(len(ks)) for k in range(len(ks)))
        assert np.abs(resid).max() < 1e-8


@pytest.mark.filterwarnings("error")
def test_split_extremal():
    ch = channel.depolarizing(0.5)
    sp = extremal.split_extremal(ch)
    assert 0 < sp.weight < 1
    mix = sp.weight * sp.left.choi + (1 - sp.weight) * sp.right.choi
    assert np.abs(mix - ch.choi).max() < 1e-9
    assert sp.left.trace_preserving and sp.right.trace_preserving
    m = channel.rank(ch)
    assert channel.rank(sp.left) <= m - 1
    assert channel.rank(sp.right) <= m - 1
    with pytest.raises(ValueError):
        extremal.split_extremal(channel.amplitude_damping(0.3))


@pytest.mark.filterwarnings("error")
def test_decompose_into_extremals():
    rng = np.random.default_rng(2)
    for ch in (channel.depolarizing(0.5), channel.phase_flip(0.3),
               random_tp_channel(rng, 3, 3)):
        if extremal.is_extremal_tp(ch):
            continue
        parts = extremal.decompose_into_extremals(ch)
        weights = [w for w, _ in parts]
        assert abs(sum(weights) - 1) < 1e-12
        assert all(w > 0 for w in weights)
        assert all(extremal.is_extremal_tp(c) for _, c in parts)
        rho = random_density(rng, ch.dim)
        mix = sum(w * channel.apply(c, rho) for w, c in parts)
        assert np.abs(mix - channel.apply(ch, rho)).max() < 1e-9
    with pytest.raises(ValueError):
        extremal.decompose_into_extremals(channel.identity(2))


def test_decompose_two_unitary_mixture():
    """A mixture of two unitaries splits into two unitary components.

    The components need not be the seed pair: a rank-2 unitary mixture
    admits a continuum of two-unitary decompositions (any dephasing
    channel is a phase-gate mixture in many ways), so the checkable
    contract is unitarity of the parts plus action reconstruction.
    """
    rng = np.random.default_rng(3)
    u1, u2 = random_unitary(rng, 2), random_unitary(rng, 2)
    mix = channel.Channel([np.sqrt(0.3) * u1, np.sqrt(0.7) * u2])
    parts = extremal.decompose_into_extremals(mix)
    assert len(parts) == 2
    assert abs(sum(w for w, _ in parts) - 1) < 1e-12
    for _, part in parts:
        assert channel.rank(part) == 1
        op = part.kraus[0]
        assert np.abs(op @ op.conj().T - np.eye(2)).max() < 1e-8
    rho = random_density(rng, 2)
    rebuilt = sum(w * channel.apply(c, rho) for w, c in parts)
    assert np.abs(rebuilt - channel.apply(mix, rho)).max() < 1e-9


def test_rank_reducing_input():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        for trial in range(10):
            m = int(rng.integers(2, n + 1))
            ch = random_tp_channel(rng, n, m)
            psi, chi, chi_space = extremal.rank_reducing_input(ch, seed=trial)
            out = channel.apply(ch, np.outer(psi, psi.conj()))
            w = np.linalg.eigvalsh(out)
            assert np.sum(w > 1e-8) <= m - 1
            assert abs(chi.conj() @ out @ chi) < 1e-8
            assert chi_space.shape[1] >= n - m + 1
            overlap = chi_space.conj().T @ out @ chi_space
            assert np.abs(overlap).max() < 1e-7


def test_rank_reducing_input_refuses_unitary():
    with pytest.raises(ValueError):
        extremal.rank_reducing_input(channel.identity(2))


def test_orthogonal_product_states():
    rng = np.random.default_rng(5)
    for n, m in ((2, 2), (3, 2), (3, 3)):
        rho = random_density(rng, n * n, rank=m)
        states = extremal.orthogonal_product_states(rho)
        assert len(states) >= n - m + 1
        for v in states:
            assert abs(v.conj() @ rho @ v) < 1e-8
            # product structure: the n x n reshape has rank one
            s = np.linalg.svd(v.reshape(n, n), compute_uv=False)
            assert s[1] < 1e-8 * s[0]


def test_orthogonal_product_states_rank_one():
    psi = np.kron(np.array([1, 0]), np.array([1, 0])).astype(complex)
    rho = np.outer(psi, psi)
    states = extremal.orthogonal_product_states(rho)
    assert len(states) >= 2
    for v in states:
        assert abs(v.conj() @ rho @ v) < 1e-10
