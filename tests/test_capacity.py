import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qchan import capacity, channel, extremal, numkit, qubit
from conftest import random_density, random_tp_channel, random_unitary


def bell_state():
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return np.outer(psi, psi).astype(complex)


def test_binary_entropy():
    assert capacity.binary_entropy(0.5) == 1.0
    assert capacity.binary_entropy(0.0) == 0.0
    assert capacity.binary_entropy(1.0) == 0.0
    assert abs(capacity.binary_entropy(0.9) - 0.4689955935892812) < 1e-12
    with pytest.raises(ValueError):
        capacity.binary_entropy(1.2)


def test_von_neumann_entropy():
    assert capacity.von_neumann_entropy(np.diag([1.0, 0.0])) < 1e-12
    assert abs(capacity.von_neumann_entropy(np.eye(2) / 2) - 1) < 1e-12
    assert abs(capacity.von_neumann_entropy(np.eye(4) / 4) - 2) < 1e-12
    with pytest.raises(ValueError):
        capacity.von_neumann_entropy(np.diag([0.7, 0.7]))


def test_ensemble_and_povm_validation():
    rho = np.eye(2) / 2
    ens = capacity.Ensemble([(0.25, rho), (0.75, rho)])
    assert np.abs(ens.average() - rho).max() < 1e-12
    with pytest.raises(ValueError):
        capacity.Ensemble([(0.6, rho), (0.6, rho)])
    e0 = np.diag([1.0, 0.0])
    e1 = np.diag([0.0, 1.0])
    capacity.Povm([e0, e1])
    with pytest.raises(ValueError):
        capacity.Povm([e0, e0])


def test_quantum_capacity_phase_flip():
    val = capacity.quantum_capacity_rank2_unital(channel.phase_flip(0.1))
    assert abs(val - 0.5310044064107189) < 1e-9
    # p and 1-p give the same channel up to relabeling
    for p in (0.05, 0.2, 0.45):
        a = capacity.quantum_capacity_rank2_unital(channel.phase_flip(p))
        b = capacity.quantum_capacity_rank2_unital(channel.phase_flip(1 - p))
        assert abs(a - b) < 1e-12


def test_quantum_capacity_unitary_is_one():
    rng = np.random.default_rng(0)
    u = random_unitary(rng, 2)
    val = capacity.quantum_capacity_rank2_unital(channel.unitary(u))
    assert abs(val - 1) < 1e-12


def test_quantum_capacity_hypothesis_gates():
    with pytest.raises(ValueError):
        capacity.quantum_capacity_rank2_unital(channel.amplitude_damping(0.3))
    with pytest.raises(ValueError):
        capacity.quantum_capacity_rank2_unital(channel.depolarizing(0.5))
    with pytest.raises(ValueError):
        capacity.quantum_capacity_rank2_unital(channel.identity(3))


def test_holevo_chi_identity_exact():
    res = capacity.holevo_chi(channel.identity(2))
    assert res.chi == 1.0
    assert res.method == "blahut-arimoto minimax"
    assert 0 <= res.upper_bound - res.chi <= 1e-8


def test_holevo_chi_phase_flip_orthogonal():
    res = capacity.holevo_chi(channel.phase_flip(0.3))
    assert abs(res.chi - 1.0) < 1e-4
    ws = [w for w, _ in res.ensemble.items]
    rhos = [r for _, r in res.ensemble.items]
    assert len(ws) == 2
    # the two signal states are orthogonal pure states
    overlap = np.trace(rhos[0] @ rhos[1]).real
    assert abs(overlap) < 1e-6


def test_holevo_chi_unitary_invariance():
    rng = np.random.default_rng(1)
    base = channel.amplitude_damping(0.5)
    ref = capacity.holevo_chi(base).chi
    for _ in range(2):
        u, v = random_unitary(rng, 2), random_unitary(rng, 2)
        conj = channel.Channel([u @ k @ v for k in base.kraus])
        val = capacity.holevo_chi(conj).chi
        assert abs(val - ref) < 1e-8


def test_holevo_chi_config_validation():
    with pytest.raises(TypeError):
        capacity.holevo_chi(channel.identity(2), {"restarts": 2})
    with pytest.raises(ValueError):
        capacity.holevo_chi(channel.identity(3))


@pytest.mark.parametrize("ch, value, tol", [
    (channel.depolarizing(0.5), 1 - capacity.binary_entropy(0.75), 1e-12),
    # the former 128-restart Nelder-Mead search
    (channel.amplitude_damping(0.5), 0.4717293905985842, 1e-9)])
def test_holevo_chi_known_values(ch, value, tol):
    assert abs(capacity.holevo_chi(ch).chi - value) <= tol


def test_holevo_chi_raises_on_a_wide_gap(monkeypatch):
    # the unpolished Blahut-Arimoto ensemble is far from optimal
    monkeypatch.setattr(capacity, "_polish_ensemble",
                        lambda lam, t, w, u: (w, u))
    with pytest.raises(RuntimeError, match="not certified"):
        capacity.holevo_chi(channel.amplitude_damping(0.5))


def _output_entropy(ch, rho):
    w = np.linalg.eigvalsh(channel.apply(ch, rho))
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


def _ensemble_chi(ch, items):
    avg = sum(p * r for p, r in items)
    return _output_entropy(ch, avg) - sum(
        p * _output_entropy(ch, r) for p, r in items)


def _cardinal_pair_chi(ch):
    paulis = (qubit.SX, qubit.SY, qubit.SZ)
    return max(_ensemble_chi(ch, [(0.5, (np.eye(2) + sgn * s) / 2)
                                  for sgn in (1, -1)]) for s in paulis)


_SEEDS = st.integers(0, 2 ** 32 - 1)


def _unital_channel(seed, m):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(m))
    return channel.Channel([np.sqrt(pk) * random_unitary(rng, 2)
                            for pk in p])


@settings(max_examples=60, deadline=None)
@given(_SEEDS, st.integers(1, 4))
def test_holevo_chi_certified(seed, rank):
    ch = random_tp_channel(np.random.default_rng(seed), 2, rank)
    res = capacity.holevo_chi(ch)
    assert 0 <= res.upper_bound - res.chi <= 1e-8
    assert abs(_ensemble_chi(ch, res.ensemble.items) - res.chi) <= 1e-9
    assert res.chi >= _cardinal_pair_chi(ch) - 1e-12
    if rank == 2 and extremal.is_extremal_tp(ch):
        # the concurrence closed form at the ensemble's average input
        fixed = capacity.chi_given_average(ch, res.ensemble.average())
        assert res.chi - 1e-9 <= fixed <= res.upper_bound + 1e-9


@settings(max_examples=30, deadline=None)
@given(_SEEDS, st.integers(1, 4))
def test_holevo_chi_unital_closed_form(seed, m):
    """King-Ruskai: chi = 1 - H((1 + max |lambda_i|) / 2) when unital."""
    ch = _unital_channel(seed, m)
    res = capacity.holevo_chi(ch)
    top = np.linalg.svd(qubit.ptm(ch).lam, compute_uv=False)[0]
    assert abs(res.chi - (1 - capacity.binary_entropy((1 + top) / 2))) <= 1e-8
    assert 0 <= res.upper_bound - res.chi <= 1e-8


def test_chi_given_average_known_value():
    ch = channel.amplitude_damping(0.5)
    val = capacity.chi_given_average(ch, np.eye(2) / 2)
    assert abs(val - 0.4566992217938628) < 1e-6


def test_chi_given_average_pure_average_zero():
    ch = channel.amplitude_damping(0.3)
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert abs(capacity.chi_given_average(ch, rho)) < 1e-12


def test_chi_given_average_beats_sampled_ensembles():
    """The closed form claims the max over fixed-average decompositions."""
    rng = np.random.default_rng(2)
    ch = channel.amplitude_damping(0.6)
    rho_avg = random_density(rng, 2)
    val = capacity.chi_given_average(ch, rho_avg)
    x = numkit.sqrt_psd(rho_avg)
    r = x.shape[1]
    s_avg = capacity.von_neumann_entropy(channel.apply(ch, rho_avg))
    for _ in range(300):
        k = int(rng.integers(r, 5))
        # columns x @ M with M M^dag = I decompose rho_avg into k terms
        m = random_unitary(rng, k)[:r, :]
        cols = x @ m
        cand = 0.0
        for j in range(k):
            w = float(np.linalg.norm(cols[:, j]) ** 2)
            if w < 1e-12:
                continue
            pure = np.outer(cols[:, j], cols[:, j].conj()) / w
            cand += w * capacity.von_neumann_entropy(channel.apply(ch, pure))
        assert s_avg - cand <= val + 1e-9


def test_chi_given_average_requires_extremal():
    with pytest.raises(ValueError):
        capacity.chi_given_average(channel.depolarizing(0.5), np.eye(2) / 2)
    with pytest.raises(ValueError):
        capacity.chi_given_average(channel.phase_flip(0.3), np.eye(2) / 2)


def test_classical_correlations_bell():
    val = capacity.classical_correlations(bell_state())
    assert abs(val - 1) < 1e-6


def test_classical_correlations_product_and_mixed():
    rng = np.random.default_rng(3)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    assert capacity.classical_correlations(np.kron(a, b)) < 1e-6
    assert capacity.classical_correlations(np.eye(4) / 4) < 1e-9


def test_classical_correlations_bounded_by_remote_entropy():
    rng = np.random.default_rng(4)
    for _ in range(3):
        rho = random_density(rng, 4)
        val = capacity.classical_correlations(rho, side="b")
        s_b = capacity.von_neumann_entropy(
            numkit.partial_trace(rho, 2, 2, 1))
        assert -1e-9 <= val <= s_b + 1e-9


def test_classical_correlations_sides_differ_in_general():
    # both sides run; values are close on symmetric states
    rho = bell_state()
    va = capacity.classical_correlations(rho, side="a")
    vb = capacity.classical_correlations(rho, side="b")
    assert abs(va - 1) < 1e-6 and abs(vb - 1) < 1e-6


def test_fidelity_optimize_bell():
    f, ch = capacity.fidelity_optimize_one_side(bell_state())
    assert abs(f - 1) < 1e-6
    assert np.linalg.matrix_rank(ch.choi, tol=1e-6) <= 2


def test_fidelity_optimize_werner_identity_optimal():
    """x Bell + (1-x) I/4: no one-sided map beats doing nothing."""
    x = 0.6
    rho = x * bell_state() + (1 - x) * np.eye(4) / 4
    f0 = x + (1 - x) / 4
    f, _ = capacity.fidelity_optimize_one_side(rho)
    assert abs(f - f0) < 1e-6


def test_fidelity_optimize_enhancement():
    """Damping noise concentrated on |01> raises the reachable fidelity."""
    th, lam = 0.2, 0.4
    psi = np.array([np.cos(th), 0, 0, np.sin(th)])
    noise = np.zeros((4, 4))
    noise[1, 1] = 1.0
    rho = ((1 - lam) * np.outer(psi, psi) + lam * noise).astype(complex)
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    f0 = float((phi @ rho @ phi).real)
    f, ch = capacity.fidelity_optimize_one_side(rho)
    assert f > f0 + 0.05
    assert np.linalg.matrix_rank(ch.choi, tol=1e-6) <= 2
    # the optimal map shifts the Bloch ball toward the pole like damping
    t = qubit.ptm(ch).t
    assert np.linalg.norm(t) > 0.1


def test_fidelity_optimize_rejects_bad_input():
    with pytest.raises(ValueError):
        capacity.fidelity_optimize_one_side(np.eye(2) / 2)
    with pytest.raises(ValueError):
        capacity.fidelity_optimize_one_side(np.diag([0.9, 0.5, 0.3, 0.1]))


def _product_state(seed, rank_a, rank_b):
    rng = np.random.default_rng(seed)
    return np.kron(random_density(rng, 2, rank_a),
                   random_density(rng, 2, rank_b))


def _werner(x):
    return x * bell_state() + (1 - x) * np.eye(4) / 4


_TWO_QUBIT_STATES = st.one_of(
    st.builds(lambda seed, rank: random_density(
        np.random.default_rng(seed), 4, rank), _SEEDS, st.integers(1, 4)),
    st.builds(_product_state, _SEEDS, st.integers(1, 2), st.integers(1, 2)),
    st.builds(_werner, st.one_of(st.just(1 / 3),
                                 st.floats(1 / 3 - 1e-3, 1 / 3 + 1e-3))),
    st.just(np.eye(4, dtype=complex) / 4),
    st.just(bell_state()))


@settings(max_examples=60, deadline=None)
@given(_TWO_QUBIT_STATES)
def test_fidelity_optimize_certified(rho):
    f, ch = capacity.fidelity_optimize_one_side(rho)
    primal, dual, _ = capacity._fidelity_primal_dual(
        capacity._fidelity_weight_matrix(rho))
    assert primal == f
    ks = ch.kraus
    assert np.abs(sum(a.conj().T @ a for a in ks) - np.eye(2)).max() <= 1e-12
    out = sum(np.kron(np.eye(2), a) @ rho @ np.kron(np.eye(2), a).conj().T
              for a in ks)
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert abs(f - (phi @ out @ phi).real) <= 1e-10
    assert f >= (phi @ rho @ phi).real - 1e-12
    assert 0 <= dual - f <= 1e-8
    assert len(ks) <= 2


def test_fidelity_optimize_raises_on_a_wide_gap(monkeypatch):
    # one coarse smoothing stage leaves a duality gap of about 7e-3 here
    monkeypatch.setattr(capacity, "_TEMPERATURES", (1e-1,))
    with pytest.raises(RuntimeError, match="not certified"):
        capacity.fidelity_optimize_one_side(
            random_density(np.random.default_rng(7), 4, 2))


@pytest.mark.parametrize("rho, value", [
    (0.6 * np.outer([np.cos(0.2), 0, 0, np.sin(0.2)],
                    [np.cos(0.2), 0, 0, np.sin(0.2)])
     + 0.4 * np.diag([0, 1, 0, 0]), 0.506292997686362),
    (random_density(np.random.default_rng(7), 4, 2), 0.681616984071631),
    (random_density(np.random.default_rng(8), 4, 3), 0.519729064094636)])
def test_fidelity_optimize_matches_extremal_search(rho, value):
    """Values of the former 25-start search over the extremal family."""
    f, _ = capacity.fidelity_optimize_one_side(rho)
    assert abs(f - value) <= 1e-8


def _remote_entropy_left(rho, elements, side):
    """S(remote) - sum_i p_i S(remote given outcome i), from eigvalsh."""
    r4 = rho.reshape(2, 2, 2, 2)
    val = _entropy_bits(np.einsum("abad->bd", r4) if side == "b"
                        else np.einsum("abcb->ac", r4))
    for e in elements:
        if side == "b":
            w = np.einsum("ca,abcd->bd", e, r4)
        else:
            w = np.einsum("db,abcd->ac", e, r4)
        p = np.trace(w).real
        if p > 1e-12:
            val -= p * _entropy_bits(w / p)
    return val


def _entropy_bits(rho):
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


_BELLS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0],
                   [0, 1, -1, 0]]) / np.sqrt(2)


def _locally_rotated(rho, seed):
    rng = np.random.default_rng(seed)
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    return u @ rho @ u.conj().T


_CORRELATION_STATES = st.one_of(
    st.builds(lambda seed, rank: random_density(
        np.random.default_rng(seed), 4, rank), _SEEDS, st.integers(1, 4)),
    # a rank-1 factor is a pure marginal: p = 1 + a.u reaches 0
    st.builds(_product_state, _SEEDS, st.integers(1, 2), st.integers(1, 2)),
    st.just(np.eye(4, dtype=complex) / 4))


@settings(max_examples=60, deadline=None)
@given(_CORRELATION_STATES, st.sampled_from("ab"))
def test_classical_correlations_certified(rho, side):
    value, bound, povm = capacity._correlation_primal_dual(rho, side)
    assert 0 <= bound - value <= 1e-8
    assert np.abs(sum(povm.elements) - np.eye(2)).max() <= 1e-10
    assert len(povm.elements) <= 4
    assert abs(_remote_entropy_left(rho, povm.elements, side) - value) <= 1e-9
    z_basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    assert value >= _remote_entropy_left(rho, z_basis, side) - 1e-12
    assert value <= _remote_entropy_left(rho, [], side) + 1e-9


@settings(max_examples=40, deadline=None)
@given(_SEEDS, st.sampled_from("ab"))
def test_classical_correlations_bell_diagonal_closed_form(seed, side):
    """Luo: J = 1 - H((1 + max |c_i|) / 2) for Bell-diagonal states, with
    c_i = Tr(rho sigma_i (x) sigma_i); local unitaries leave J alone."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.full(4, rng.choice([0.2, 1.0, 5.0])))
    rho = (_BELLS.T * p) @ _BELLS
    c = [np.trace(rho @ np.kron(s, s)).real
         for s in (qubit.SX, qubit.SY, qubit.SZ)]
    want = 1 - capacity.binary_entropy((1 + np.abs(c).max()) / 2)
    val = capacity.classical_correlations(_locally_rotated(rho, seed), side)
    assert abs(val - want) <= 1e-9


def test_classical_correlations_raises_on_a_wide_gap(monkeypatch):
    # without Newton steps the clustered grid POVM is far from optimal
    monkeypatch.setattr(capacity, "_polish_measurement", functools.partial(
        capacity._polish_measurement, iterations=0))
    with pytest.raises(RuntimeError, match="not certified"):
        capacity.classical_correlations(
            random_density(np.random.default_rng(0), 4, 3))


@pytest.mark.parametrize("angle, visibility, value", [
    # Werner-like: 1 - H(0.85)
    (np.pi / 4, 0.7, 0.390159695284),
    (np.pi / 8, 0.7, 0.242264305997)])
def test_classical_correlations_workload_values(angle, visibility, value):
    psi = np.array([np.cos(angle), 0, 0, np.sin(angle)])
    rho = visibility * np.outer(psi, psi) + (1 - visibility) * np.eye(4) / 4
    rho = _locally_rotated(rho.astype(complex), 11)
    for side in "ab":
        assert abs(capacity.classical_correlations(rho, side) - value) <= 1e-9
