import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qchan import channel, extremal, numkit
from conftest import (count_choi_factorizations, random_density,
                      random_pure, random_tp_channel, random_unitary)


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


def _constrained_by_complex_rank(ch, rho1):
    """Reference for is_extremal_constrained: the m^2 complex rows
    A_i^dag A_j (+) A_j rho1 A_i^dag are linearly independent, no
    singular value at or below 1e-8 of the largest."""
    ks = channel.kraus_from_choi(ch.choi)
    m, n = len(ks), ch.dim
    if m * m > 2 * n * n:
        return False
    rows = np.array([np.concatenate([(a.conj().T @ b).ravel(),
                                     (b @ rho1 @ a.conj().T).ravel()])
                     for a in ks for b in ks])
    s = np.linalg.svd(rows, compute_uv=False)
    return bool(s[-1] > 1e-8 * s[0])


def _held_state(rng, n, kind):
    if kind == "pure":
        psi = random_pure(rng, n)
        return np.outer(psi, psi.conj())
    if kind == "mixed":
        return np.eye(n) / n
    return random_density(rng, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.integers(2, 3).flatmap(lambda n: st.tuples(
           st.just(n), st.integers(1, n * n))),
       st.sampled_from(["random", "pure", "mixed"]))
def test_constrained_extremality_matches_the_complex_rank(seed, shape, kind):
    """The null test of _perturbation on the doubled family gives the
    verdict of the complex rank of its rows, at every rank of qubit and
    qutrit channels, with rho1 random, pure or I / n."""
    rng = np.random.default_rng(seed)
    n, m = shape
    ch = random_tp_channel(rng, n, m)
    rho1 = _held_state(rng, n, kind)
    assert (extremal.is_extremal_constrained(ch, rho1)
            == _constrained_by_complex_rank(ch, rho1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.integers(2, 4),
       st.booleans())
def test_unitary_mixtures_are_not_extremal_unital(seed, n, k, equal):
    """With I / n held fixed (the unital face) a mixture of unitaries is
    never extremal, and both tests say so."""
    ch = _unitary_mixture(seed, n, k, equal)
    mixed = np.eye(n) / n
    assert not extremal.is_extremal_constrained(ch, mixed)
    assert not _constrained_by_complex_rank(ch, mixed)


def test_find_perturbation():
    rng = np.random.default_rng(1)
    assert extremal.find_perturbation(channel.amplitude_damping(0.4)) is None
    for p in (0.3, 0.6):
        ch = channel.depolarizing(p)
        q = extremal.find_perturbation(ch)
        assert q is not None
        assert np.abs(q - q.conj().T).max() < 1e-10
        assert abs(np.linalg.norm(q) - 1) < 1e-8
        ks = channel.kraus_from_choi(ch.choi)
        resid = sum(q[j, k] * ks[k].conj().T @ ks[j]
                    for j in range(len(ks)) for k in range(len(ks)))
        assert np.abs(resid).max() < 1e-8
    ch = random_tp_channel(rng, 3, 3)
    q = extremal.find_perturbation(ch)
    if q is not None:
        ks = channel.kraus_from_choi(ch.choi)
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
    # both sides keep the trace condition however lopsided the weight
    sp = extremal.split_extremal(channel.depolarizing(1e-6))
    assert sp.left.tp_deviation <= 1e-12
    assert sp.right.tp_deviation <= 1e-12
    assert extremal.is_extremal_tp(sp.left)


def test_split_extremal_factors_the_choi_matrix_once(monkeypatch):
    """find_perturbation and the split read the directions off the
    Channel's one factorization of its Choi matrix."""
    ch = channel.depolarizing(0.5)
    calls = count_choi_factorizations(monkeypatch, ch.choi)
    sp = extremal.split_extremal(ch)
    assert calls == ["eigh"]
    monkeypatch.undo()
    # the Q of find_perturbation, rescaled the same way
    q = extremal.find_perturbation(channel.depolarizing(0.5))
    assert np.abs(sp.q - q).max() == 0


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


def _near_unitary(seed, n, log_eps):
    rng = np.random.default_rng(seed)
    eps = 10.0 ** log_eps
    noise = random_tp_channel(rng, n, int(rng.integers(1, n * n + 1)))
    return channel.Channel([np.sqrt(1 - eps) * random_unitary(rng, n)]
                           + [np.sqrt(eps) * a for a in noise.kraus])


def _unitary_mixture(seed, n, k, equal):
    rng = np.random.default_rng(seed)
    w = np.full(k, 1.0 / k) if equal else rng.uniform(0.1, 1.0, k)
    return channel.Channel([np.sqrt(x / w.sum()) * random_unitary(rng, n)
                            for x in w])


def _check_peel(ch):
    if extremal.is_extremal_tp(ch):
        with pytest.raises(ValueError, match="already extremal"):
            extremal.decompose_into_extremals(ch)
        return
    parts = extremal.decompose_into_extremals(ch)
    weights = np.array([w for w, _ in parts])
    assert len(parts) <= channel.rank(ch)
    assert weights.min() > 0 and abs(weights.sum() - 1) <= 1e-12
    for _, part in parts:
        assert part.tp_deviation <= 1e-12
        assert extremal.is_extremal_tp(part)
    rebuilt = sum(w * part.choi for w, part in parts)
    assert np.abs(rebuilt - ch.choi).max() <= 1e-10


_SEEDS = st.integers(0, 2 ** 32 - 1)
_CHANNELS = st.one_of(
    st.integers(2, 3).flatmap(lambda n: st.builds(
        lambda seed, m: random_tp_channel(np.random.default_rng(seed), n, m),
        _SEEDS, st.integers(2, n * n))),
    st.floats(1e-5, 4 / 3).map(channel.depolarizing),
    st.builds(_near_unitary, _SEEDS, st.integers(2, 3), st.floats(-5, -1)),
    st.builds(_unitary_mixture, _SEEDS, st.integers(2, 3), st.integers(2, 4),
              st.booleans()),
    st.builds(lambda seed: channel.replacer(
        random_density(np.random.default_rng(seed), 3)), _SEEDS),
    st.just(channel.replacer(np.diag([0.5, 0.3, 0.2]))))


@settings(max_examples=40, deadline=None)
@given(_CHANNELS)
# the split tree raised on every depolarizing case here but 0.649...
# (a part off the trace condition) and on completely_depolarizing(3)
# (64 leaves), and gave more parts than the Choi rank on 0.649... (6)
# and on the rank-9 qutrit (64); near p = 1 a walk that steps along
# products null only to 1e-8 loses the trace condition
@example(channel.depolarizing(0.8474062580174515))
@example(channel.depolarizing(0.6493974204659505))
@example(channel.completely_depolarizing(3))
@example(random_tp_channel(np.random.default_rng(3), 3, 9))
@example(channel.depolarizing(10.0 ** 1e-8))
@example(channel.depolarizing(1 + 1e-7))
def test_decompose_peels_at_most_rank_parts(ch):
    _check_peel(ch)


@pytest.mark.parametrize("rank", [8, 12, 16])
def test_decompose_peels_four_dimensional_channels(rank):
    """The peel past the qutrits: at n = 4 and rank 16 the null test
    runs on 256 products A_i^dag A_j."""
    ch = random_tp_channel(np.random.default_rng(rank), 4, rank)
    assert not extremal.is_extremal_tp(ch)
    _check_peel(ch)


def _null_reference(v, tol=1e-10):
    """The least off-diagonal mass of a unit null element, the long way
    (every null Hermitian matrix formed, then a full SVD of their
    off-diagonal parts), and the largest singular value counted null."""
    m = len(v)
    basis = []
    for i in range(m):
        for j in range(m):
            e = np.zeros((m, m), dtype=complex)
            if i == j:
                e[i, i] = 1
            elif i < j:
                e[i, j] = e[j, i] = 1 / np.sqrt(2)
            else:
                e[i, j], e[j, i] = 1j / np.sqrt(2), -1j / np.sqrt(2)
            basis.append(e)
    images = np.array([sum(e[j, k] * v[k].conj().T @ v[j]
                           for j in range(m) for k in range(m)).reshape(-1)
                       for e in basis])
    u, s, _ = np.linalg.svd(np.concatenate([images.real, images.imag], 1))
    rank = np.count_nonzero(s > tol * s[0])
    null = np.tensordot(u[:, rank:].T, np.array(basis), 1)
    offd = (null * (1 - np.eye(m))).reshape(len(null), -1)
    sv = np.linalg.svd(np.concatenate([offd.real, offd.imag], 1),
                       compute_uv=False)
    return sv[-1] ** 2, (s[rank] if rank < len(s) else 0.0)


@settings(max_examples=40, deadline=None)
@given(_CHANNELS)
@example(_near_unitary(255, 2, -5.0))
def test_perturbation_is_the_least_offdiagonal_null_element(ch):
    v = extremal._directions(ch)[0]
    q = extremal._perturbation(v)
    if q is None:
        assert len(v) <= ch.dim and extremal.is_extremal_tp(ch)
        return
    m = len(v)
    least, s_null = _null_reference(v)
    assert np.array_equal(q, q.conj().T)
    assert abs(np.linalg.norm(q) - 1) <= 1e-12
    # a unit Q in the null space moves the map by at most its largest
    # null singular value: rounding on exact null spaces, but up to the
    # 1e-10 threshold where the products are nearly dependent
    # (_near_unitary(255, 2, -5.0): 7.1e-12)
    resid = sum(q[j, k] * v[k].conj().T @ v[j]
                for j in range(m) for k in range(m))
    assert np.linalg.norm(resid) <= s_null + 1e-12
    offd = np.linalg.norm(q - np.diag(np.diag(q))) ** 2
    assert abs(offd - least) <= 1e-12


def test_perturbation_sign_rule():
    """The largest-magnitude eigenvalue of Q is positive; the sign picks
    which side of split_extremal is `left`."""
    rng = np.random.default_rng(6)
    seen = 0
    for n in (2, 3):
        for m in range(2, n * n + 1):
            for _ in range(5):
                v = extremal._directions(random_tp_channel(rng, n, m))[0]
                q = extremal._perturbation(v)
                if q is not None:
                    w = np.linalg.eigvalsh(q)
                    assert w[-1] >= -w[0]
                    seen += 1
    assert seen >= 40


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
            psi, chi, chi_space = extremal.rank_reducing_input(ch)
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


def test_orthogonal_product_states_zero_columns():
    """|00> in 3 x 3: column 0 leaves a 2-dimensional kernel, each zero
    column all of C^3, so 2 + 3 + 3 product states."""
    e0 = np.eye(3)[0]
    psi = np.kron(e0, e0).astype(complex)
    rho = np.outer(psi, psi)
    states = extremal.orthogonal_product_states(rho)
    assert len(states) == 8
    assert np.linalg.matrix_rank(np.array(states)) == 8
    for v in states:
        assert abs(v.conj() @ rho @ v) < 1e-12
