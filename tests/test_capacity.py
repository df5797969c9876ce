import functools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

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


def test_ensemble_rejects_a_negative_weight():
    # the weights sum to 1, but the average has eigenvalue -0.5
    with pytest.raises(ValueError, match="negative"):
        capacity.Ensemble([(1.5, np.diag([1.0, 0.0])),
                           (-0.5, np.diag([0.0, 1.0]))])


def test_povm_rejects_no_elements():
    with pytest.raises(ValueError, match="no elements"):
        capacity.Povm([])


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
    assert res.method == "axis pair"
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
    # the unpolished grid ensemble of average input I / 2 is far from
    # optimal
    monkeypatch.setattr(capacity, "_polish_measurement",
                        lambda frame, c, u, y, y0, **mode: (c, u, y, y0))
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
# unitaries: s_max = 1, chi = 1
@example(0, 1)
@example(5, 1)
def test_holevo_chi_unital_closed_form(seed, m):
    """King-Ruskai: chi = 1 - H((1 + max |lambda_i|) / 2) when unital,
    answered by the axis pair alone."""
    ch = _unital_channel(seed, m)
    res = capacity.holevo_chi(ch)
    top = np.linalg.svd(qubit.ptm(ch).lam, compute_uv=False)[0]
    assert abs(res.chi - (1 - capacity.binary_entropy((1 + top) / 2))) <= 1e-8
    assert res.method == "axis pair"
    assert 0 <= res.upper_bound - res.chi <= capacity._TARGET_GAP


@settings(max_examples=10, deadline=None)
@given(_SEEDS, st.floats(-15, -5), st.integers(1, 4))
# two unitaries: the axis of their relative rotation stays pure, chi = 1
@example(0, -5.0, 1)
# the sphere minimizers piled up in the ensemble, a gap of 1.3e-7 stayed
@example(441792, -5.0, 2)
@example(1735, -5.0, 4)
def test_holevo_chi_near_unitary(seed, log_eps, rank):
    """(1 - eps) U + eps N: nearly pure outputs on the whole sphere."""
    rng = np.random.default_rng(seed)
    eps = 10 ** log_eps
    noise = random_tp_channel(rng, 2, rank).kraus
    ch = channel.Channel([np.sqrt(1 - eps) * random_unitary(rng, 2)]
                         + [np.sqrt(eps) * k for k in noise])
    res = capacity.holevo_chi(ch)
    assert 0 <= res.upper_bound - res.chi <= 1e-8
    assert abs(_ensemble_chi(ch, res.ensemble.items) - res.chi) <= 1e-9
    assert _cardinal_pair_chi(ch) - 1e-12 <= res.chi <= 1


@settings(max_examples=30, deadline=None)
@given(_SEEDS, st.floats(-10, -4), st.integers(1, 2), st.integers(1, 4))
# the normal equations of the damped step were singular here
@example(1394813165, -5.28, 2, 1)
def test_holevo_chi_near_constant(seed, log_eps, rank, noise_rank):
    """(1 - eps) R + eps N, R a replacer to a pure or mixed state: f is
    flat on the sphere but for terms of order eps, chi is of order
    eps^2, and the optimality conditions are nearly singular."""
    rng = np.random.default_rng(seed)
    eps = 10 ** log_eps
    target = channel.replacer(random_density(rng, 2, rank)).kraus
    noise = random_tp_channel(rng, 2, noise_rank).kraus
    ch = channel.Channel([np.sqrt(1 - eps) * k for k in target]
                         + [np.sqrt(eps) * k for k in noise])
    res = capacity.holevo_chi(ch)
    assert 0 <= res.upper_bound - res.chi <= 1e-8
    assert abs(_ensemble_chi(ch, res.ensemble.items) - res.chi) <= 1e-9


def _cluster_by_loop(w, dirs):
    """The greedy merge written out: heaviest weight first, each joins
    the first group whose running mean direction is within 0.35 rad."""
    groups = []
    for j in np.argsort(-w):
        if w[j] < 1e-4 * w.max():
            break
        for grp in groups:
            if dirs[j] @ grp[1] / np.linalg.norm(grp[1]) > np.cos(0.35):
                grp[0] += w[j]
                grp[1] += w[j] * dirs[j]
                break
        else:
            groups.append([w[j], w[j] * dirs[j]])
    groups = sorted(groups, key=lambda grp: -grp[0])[:4]
    ws = np.array([grp[0] for grp in groups])
    us = np.array([grp[1] / np.linalg.norm(grp[1]) for grp in groups])
    return ws / ws.sum(), us


def test_cluster_matches_the_greedy_loop():
    rng = np.random.default_rng(21)
    grid = capacity._GRID
    draws = [rng.exponential(size=len(grid)) ** rng.uniform(1, 30)
             for _ in range(300)]
    draws.append(np.eye(len(grid))[7])  # a single weight
    for w in draws:
        ws, us = capacity._cluster(w, grid)
        ws_loop, us_loop = _cluster_by_loop(w, grid)
        assert ws.shape == ws_loop.shape and us.shape == us_loop.shape
        assert np.abs(ws - ws_loop).max() <= 1e-15
        assert np.abs(us - us_loop).max() <= 1e-15


def test_sphere_hessian_of_unitary_channels_vanishes():
    """f(u) = H(O u) is 0 on the sphere for a rotation O, so is its
    Hessian along the sphere: the radial curvature of the pure outputs
    (c2 ~ 5e11) must not leak into the tangent planes."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(200):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        o = q * np.sign(np.diagonal(r))
        o *= np.linalg.det(o)
        u = rng.normal(size=(4, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        frame = (np.zeros(3), np.zeros(3), o.T)
        f, grad, hess = capacity._frame_terms(frame, u,
                                              capacity._tangent_bases(u))
        assert np.abs(f).max() <= 1e-12
        curv = capacity._tangent_curvature(u, hess, grad)
        worst = max(worst, np.abs(curv).max())
    assert worst <= 1e-12


def _descend_one_start(frame, y, u):
    """Newton steps on f - y.u from one sphere point u, with the rules of
    capacity._sphere_min: |Hessian| eigenvalues cut at 1e-10 of the
    largest, a stop at gradient 1e-12, halving while the value rises by
    more than 1e-14 down to 1e-12, and at most 100 steps."""
    def terms(u):
        bases = capacity._tangent_bases(u[None])
        f, grad, hess = capacity._frame_terms(frame, u[None], bases)
        gy = grad[0] - y
        return (f[0] - y @ u, gy @ bases[0],
                capacity._tangent_curvature(u, hess[0], gy), bases[0])

    val, g, h, bases = terms(u)
    for _ in range(100):
        mu, v = np.linalg.eigh(h)
        mu = np.abs(mu)
        gv = np.where(mu > 1e-10 * max(mu.max(), 1e-2), v.T @ g, 0.0)
        if np.abs(gv).max() <= 1e-12:
            break
        step = -bases @ v @ (gv / np.maximum(mu, 1e-300))
        tau = 1.0
        while tau > 1e-12:
            u_new = u + tau * step
            u_new /= np.linalg.norm(u_new)
            new = terms(u_new)
            if new[0] <= val + 1e-14:
                break
            tau /= 2
        else:
            break
        u, (val, g, h, bases) = u_new, new
    return val, u


def _allowance(y0, y):
    eps = np.finfo(float).eps
    return eps * (-8 * np.log2(eps) + 256 * (abs(y0) + np.linalg.norm(y)))


def _sphere_min_by_loop(frame, y0, y, starts):
    """capacity._sphere_min written out one start at a time."""
    vals = capacity._frame_entropy(frame, capacity._GRID) - capacity._GRID @ y
    val, u = min((_descend_one_start(frame, y, u0) for u0 in np.concatenate(
        [capacity._GRID[np.argsort(vals)[:3]], starts])), key=lambda p: p[0])
    return val - y0 - _allowance(y0, y), u


def _declining_pair(frame, axis_pair=capacity._axis_pair):
    """capacity._axis_pair with a bound that certifies nothing."""
    return axis_pair(frame)[0], -np.inf


def _recorded_sphere_mins(run, *args):
    """The arguments (frame, y0, y, starts) of each capacity._sphere_min
    call that run(*args) makes."""
    calls, real = [], capacity._sphere_min

    def record(*call):
        calls.append(call)
        return real(*call)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity, "_sphere_min", record)
        run(*args)
    return calls


def _objective(frame, y0, y, u):
    return capacity._frame_entropy(frame, u) - y0 - u @ y


def test_sphere_min_matches_one_start_at_a_time():
    """Every start polished in one batch gives the bound of polishing
    them in turn, on the calls that holevo_chi makes for 60 random
    channels and classical_correlations for 60 random states."""
    calls = []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        # rank 1 (unitaries, pure states) is answered by the axis pair
        calls += _recorded_sphere_mins(
            capacity.holevo_chi, random_tp_channel(rng, 2, 2 + seed % 3))
        rho = random_density(rng, 4, 2 + seed % 3)
        for side in "ab":
            calls += _recorded_sphere_mins(
                capacity.classical_correlations, rho, side)
    assert len(calls) >= 180
    for frame, y0, y, starts in calls:
        low, u = capacity._sphere_min(frame, y0, y, starts)
        low_loop, u_loop = _sphere_min_by_loop(frame, y0, y, starts)
        assert abs(low - low_loop) <= 1e-14
        # minima that tie to rounding may swap
        at = _objective(frame, y0, y, np.array([u, u_loop]))
        assert abs(at[0] - at[1]) <= 1e-14


_DENSE = capacity._fibonacci_sphere(20000)


@settings(max_examples=40, deadline=None)
@given(_SEEDS, st.integers(1, 4), st.sampled_from(["chi", "a", "b"]))
@example(42141, 1, "a")
@example(217, 1, "b")
def test_sphere_min_is_a_lower_bound(seed, rank, kind):
    """On the calls of the solvers, the bound lies below f - y0 - y.u on a
    dense grid, and the direction returned attains it up to the
    rounding allowance. The axis pair is made to decline, so that rank-1
    inputs, whose remote states are pure, still reach the sphere
    minimum."""
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity, "_axis_pair", _declining_pair)
        if kind == "chi":
            calls = _recorded_sphere_mins(capacity.holevo_chi,
                                          random_tp_channel(rng, 2, rank))
        else:
            calls = _recorded_sphere_mins(capacity.classical_correlations,
                                          random_density(rng, 4, rank), kind)
    assert calls
    for frame, y0, y, starts in calls:
        low, u = capacity._sphere_min(frame, y0, y, starts)
        assert low <= _objective(frame, y0, y, _DENSE).min()
        assert (_objective(frame, y0, y, u[None])[0] - low
                <= _allowance(y0, y) + 1e-14)


@settings(max_examples=60, deadline=None)
@given(_SEEDS, st.integers(1, 4), st.sampled_from(["chi", "a", "b"]),
       st.integers(1, 4), st.floats(-2.0, 1.0))
def test_any_plane_through_the_average_bounds_chi(seed, rank, kind, k,
                                                  log_y):
    """An affine T through (m, f(m)), m = sum w u_i, has sum w T(u_i) =
    f(m), so f(m) - sum w f(u_i) <= max over the sphere of T - f for any
    slope y: on channel and measurement frames, with a random y that is
    not the gradient at m."""
    rng = np.random.default_rng(seed)
    if kind == "chi":
        p = qubit.ptm(random_tp_channel(rng, 2, rank))
        frame = (np.zeros(3), p.t, p.lam.T)
    else:
        frame = capacity._correlation_frame(random_density(rng, 4, rank),
                                            kind == "b")
    w = rng.dirichlet(np.ones(k))
    u = rng.normal(size=(k, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    y = 10 ** log_y * rng.normal(size=3)
    m = w @ u
    f = capacity._frame_entropy(frame, np.vstack([m, u]))
    low = capacity._sphere_min(frame, f[0] - y @ m, y, u)[0]
    assert -low >= f[0] - w @ f[1:] - 1e-14


def _family_channel(family, rng):
    """A qubit channel of one of the families the Holevo tests cover."""
    rank = int(rng.integers(1, 5))
    if family == "random":
        return random_tp_channel(rng, 2, rank)
    if family == "unitary mixture":
        return _unital_channel(rng.integers(2 ** 32), rank)
    if family == "near-unitary":
        eps = 10 ** rng.uniform(-15, -3)
        return channel.Channel([np.sqrt(1 - eps) * random_unitary(rng, 2)]
                               + [np.sqrt(eps) * k for k in
                                  random_tp_channel(rng, 2, rank).kraus])
    if family == "near-constant":
        eps = 10 ** rng.uniform(-10, -4)
        target = channel.replacer(random_density(rng, 2, 1 + rank % 2))
        return channel.Channel([np.sqrt(1 - eps) * k for k in target.kraus]
                               + [np.sqrt(eps) * k for k in
                                  random_tp_channel(rng, 2, rank).kraus])
    g = rng.uniform(0, 1)
    return (channel.amplitude_damping(g) if rank % 2
            else channel.depolarizing(g))


@pytest.mark.parametrize("family", ["random", "unitary mixture",
                                    "near-unitary", "near-constant",
                                    "damping or depolarizing"])
def test_holevo_bound_covers_the_divergence_from_the_average_output(family):
    """The minimax bound with matrix logarithms: D(Phi(psi) || sigma), at
    sigma the output of the ensemble's average input, stays below
    upper_bound on a dense grid of pure inputs psi, 12 channels each."""
    rng = np.random.default_rng(7)
    for _ in range(12):
        ch = _family_channel(family, rng)
        res = capacity.holevo_chi(ch)
        ws, vs = np.linalg.eigh(channel.apply(ch, res.ensemble.average()))
        log_sigma = (vs * np.log2(ws)) @ vs.conj().T
        # Phi((I + u.sigma) / 2), linear in u
        images = np.array([channel.apply(ch, s) for s in
                           (np.eye(2), qubit.SX, qubit.SY, qubit.SZ)])
        out = (images[0] + np.einsum("ki,iab->kab", _DENSE, images[1:])) / 2
        lam = np.clip(np.linalg.eigvalsh(out), 0.0, None)
        neg_entropy = np.sum(lam * np.log2(np.where(lam > 0, lam, 1.0)),
                             axis=1)
        div = neg_entropy - np.einsum("kab,ba->k", out, log_sigma).real
        assert div.max() <= res.upper_bound + 1e-12


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


def test_fidelity_optimize_werner_identity_optimal(monkeypatch):
    """x Bell + (1-x) I/4: no one-sided map beats doing nothing. The
    identity lives on the top eigenvector alone and certifies, so one
    candidate channel is built."""
    x = 0.6
    rho = x * bell_state() + (1 - x) * np.eye(4) / 4
    f0 = x + (1 - x) / 4
    built, real = [], capacity._channel_on

    def record(w, m):
        built.append(w.shape[1])
        return real(w, m)

    monkeypatch.setattr(capacity, "_channel_on", record)
    f, _ = capacity.fidelity_optimize_one_side(rho)
    assert abs(f - f0) < 1e-6
    assert built == [1]


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
    m = capacity._fidelity_weight_matrix(rho)
    primal, dual, _ = capacity._fidelity_primal_dual(m)
    assert primal == f
    # the first certified candidate is as good as the best of all four
    v = capacity._fidelity_dual(m)[1]
    best = max(np.trace(channel.choi_matrix(ks) @ m).real for ks in (
        capacity._channel_on(v[:, k:], m) for k in range(4)) if ks)
    assert f >= best - capacity._TARGET_GAP
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


@settings(max_examples=40, deadline=None)
@given(_SEEDS, st.sampled_from([(1, 1), (1, 2), (2, 1)]))
def test_fidelity_dual_with_a_pure_factor(seed, ranks):
    """A pure factor leaves the smoothed dual a flat direction, along
    which uncapped Newton steps run away."""
    m = capacity._fidelity_weight_matrix(_product_state(seed, *ranks))
    primal, dual, _ = capacity._fidelity_primal_dual(m)
    assert 0 <= dual - primal <= 1e-8


@pytest.mark.parametrize("t", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("rho", [
    random_density(np.random.default_rng(9), 4, 3),
    # M has a threefold eigenvalue at z = 0
    _werner(0.6)])
def test_smoothed_dual_derivatives_match_differences(rho, t):
    m = capacity._fidelity_weight_matrix(rho)
    for z in (np.zeros(3), 0.05 * np.random.default_rng(10).normal(size=3)):
        _, grad, hess = capacity._smoothed_dual(z, m, t)
        eps = 1e-4 * t
        up, down = ([capacity._smoothed_dual(z + s * eps * e, m, t)
                     for e in np.eye(3)] for s in (1, -1))
        fd_grad = [(a[0] - b[0]) / (2 * eps) for a, b in zip(up, down)]
        fd_hess = [(a[1] - b[1]) / (2 * eps) for a, b in zip(up, down)]
        assert np.abs(np.array(fd_grad) - grad).max() <= 1e-8
        assert (np.abs(np.array(fd_hess) - hess).max()
                <= 1e-5 * np.abs(hess).max())


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


def _bell_diagonal(seed, bell=None):
    """A Bell-diagonal state of random weights, or the Bell state of
    index bell."""
    rng = np.random.default_rng(seed)
    p = (rng.dirichlet(np.full(4, rng.choice([0.2, 1.0, 5.0])))
         if bell is None else np.eye(4)[bell])
    return (_BELLS.T * p) @ _BELLS


def _never_called(*args):
    raise AssertionError("the measurement LP ran")


@settings(max_examples=40, deadline=None)
@given(_SEEDS, st.sampled_from("ab"), st.one_of(st.none(),
                                                st.integers(0, 3)))
# the two largest |c_i| nearly tie; the LP once lacked the antipode of
# the dual minimizer and left the optimum uncertified
@example(131165828, "b", None)
@example(1775643386, "a", None)
@example(99980892, "a", None)
# pure Bell states: s_max = 1, J = 1
@example(0, "a", 0)
@example(1, "b", 3)
def test_classical_correlations_bell_diagonal_closed_form(seed, side, bell):
    """Luo: J = 1 - H((1 + max |c_i|) / 2) for Bell-diagonal states, with
    c_i = Tr(rho sigma_i (x) sigma_i); local unitaries leave J alone.
    The axis pair answers, without the measurement LP."""
    rho = _bell_diagonal(seed, bell)
    c = [np.trace(rho @ np.kron(s, s)).real
         for s in (qubit.SX, qubit.SY, qubit.SZ)]
    want = 1 - capacity.binary_entropy((1 + np.abs(c).max()) / 2)
    rho = _locally_rotated(rho, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity, "_measurement_lp", _never_called)
        val = capacity.classical_correlations(rho, side)
        value, bound, _ = capacity._correlation_primal_dual(rho, side)
    assert abs(val - want) <= 1e-9
    assert 0 <= bound - value <= capacity._TARGET_GAP


def _perturbed_unital(seed, log_e):
    """(1 - e) U + e R, U a unital channel and R a replacer to a pure
    state: |t| = e."""
    rng = np.random.default_rng(seed)
    e = 10 ** log_e
    base = _unital_channel(rng.integers(2 ** 32), int(rng.integers(1, 5)))
    target = channel.replacer(random_density(rng, 2, 1))
    return channel.Channel([np.sqrt(1 - e) * k for k in base.kraus]
                           + [np.sqrt(e) * k for k in target.kraus])


def _perturbed_bell_diagonal(seed, log_e):
    """(1 - e) rho + e sigma_A (x) sigma_B, rho Bell-diagonal and sigma_A,
    sigma_B pure, locally rotated: |a| = |b| = e."""
    rng = np.random.default_rng(seed)
    e = 10 ** log_e
    product = np.kron(random_density(rng, 2, 1), random_density(rng, 2, 1))
    rho = (1 - e) * _bell_diagonal(rng.integers(2 ** 32)) + e * product
    return _locally_rotated(rho, seed)


def _solved(kind, x):
    if kind == "chi":
        return capacity.holevo_chi(x).chi
    return capacity.classical_correlations(x, kind)


@settings(max_examples=40, deadline=None)
@given(_SEEDS, st.floats(-4, -1), st.sampled_from(["chi", "a", "b"]))
def test_axis_pair_falls_back_off_the_closed_forms(seed, log_e, kind):
    """Unital channels and Bell-diagonal states pushed off the closed
    forms, |t| or |a| = |b| in [1e-4, 1e-1]: chi and J equal the values
    of the linear-program route, taken with the axis pair declining."""
    x = (_perturbed_unital if kind == "chi"
         else _perturbed_bell_diagonal)(seed, log_e)
    value = _solved(kind, x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity, "_axis_pair", _declining_pair)
        assert abs(value - _solved(kind, x)) <= capacity._TARGET_GAP


def test_classical_correlations_raises_on_a_wide_gap(monkeypatch):
    # without Newton steps neither the axis pair nor the clustered grid
    # POVM is optimal
    monkeypatch.setattr(capacity, "_polish_measurement", functools.partial(
        capacity._polish_measurement, iterations=0))
    with pytest.raises(RuntimeError, match="not certified"):
        capacity.classical_correlations(
            random_density(np.random.default_rng(0), 4, 3))


def _noisy_pure(angle, visibility):
    """A pure state of Schmidt angle angle, mixed with white noise and
    locally rotated, as in the optimizers benchmark workload."""
    psi = np.array([np.cos(angle), 0, 0, np.sin(angle)])
    rho = visibility * np.outer(psi, psi) + (1 - visibility) * np.eye(4) / 4
    return _locally_rotated(rho.astype(complex), 11)


@pytest.mark.parametrize("angle, visibility, value", [
    # Werner-like: 1 - H(0.85)
    (np.pi / 4, 0.7, 0.390159695284),
    (np.pi / 8, 0.7, 0.242264305997)])
def test_classical_correlations_workload_values(angle, visibility, value):
    rho = _noisy_pure(angle, visibility)
    for side in "ab":
        assert abs(capacity.classical_correlations(rho, side) - value) <= 1e-9


_SOLVER_STEPS = ("_measurement_lp", "_kkt_system", "_sphere_min")


def _counted_calls(run, *args):
    """run(*args) and the number of calls it makes to each of
    _SOLVER_STEPS."""
    counts = dict.fromkeys(_SOLVER_STEPS, 0)

    def counting(name, real):
        def call(*call_args, **kwargs):
            counts[name] += 1
            return real(*call_args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in _SOLVER_STEPS:
            mp.setattr(capacity, name, counting(name, getattr(capacity,
                                                              name)))
        out = run(*args)
    return out, counts


def test_axis_pair_seeds_the_first_round():
    """The workload's noisy pure state: the axis pair is stationary, so
    the polish evaluates the optimality conditions once and one sphere
    minimum certifies it, without the measurement LP. The Werner-like
    state needs no sphere minimum; Holevo chi keeps its LP."""
    rho = _noisy_pure(np.pi / 8, 0.7)
    for side in "ab":
        value, counts = _counted_calls(capacity.classical_correlations, rho,
                                       side)
        assert abs(value - 0.242264305997) <= 1e-9
        assert counts == {"_measurement_lp": 0, "_kkt_system": 1,
                          "_sphere_min": 1}
        werner = _counted_calls(capacity.classical_correlations,
                                _noisy_pure(np.pi / 4, 0.7), side)[1]
        assert werner["_sphere_min"] == 0
    counts = _counted_calls(capacity.holevo_chi,
                            channel.amplitude_damping(0.5))[1]
    assert counts["_measurement_lp"] == 1


def _x_state(seed):
    """A noisy X-state (nonzero entries on both diagonals only) of random
    weights and coherences, locally rotated."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.full(4, rng.choice([0.3, 1.0, 5.0])))
    rho = np.diag(p).astype(complex)
    for i, j in ((0, 3), (1, 2)):
        rho[i, j] = (np.sqrt(p[i] * p[j]) * rng.uniform()
                     * np.exp(2j * np.pi * rng.uniform()))
        rho[j, i] = np.conj(rho[i, j])
    v = rng.uniform(0.2, 1.0)
    return _locally_rotated(v * rho + (1 - v) * np.eye(4) / 4, seed)


def _grid_route(rho, side):
    """J by the LP route alone: each round solves the measurement LP on
    _GRID (and, after the first, the last round's directions, the
    sphere minimizer and its antipode), merges, polishes and bounds by
    the sphere minimum, until the gap closes. Asserts that it does."""
    frame = capacity._correlation_frame(rho, side == "b")
    points = capacity._GRID
    for _ in range(capacity._ROUNDS):
        c, y0, y = capacity._measurement_lp(frame, points)
        c, u = capacity._cluster(c, points)
        c, u, y, y0 = capacity._polish_measurement(frame, c, u, y, y0)
        low, u_star = capacity._sphere_min(frame, y0, y, u)
        cond = c @ capacity._frame_entropy(frame, u)
        if cond - low - y0 <= capacity._TARGET_GAP:
            break
        points = np.vstack([capacity._GRID, u, u_star, -u_star])
    assert cond - low - y0 <= capacity._TARGET_GAP
    remote = numkit.partial_trace(rho, 2, 2, 1 if side == "b" else 2)
    return capacity.von_neumann_entropy(remote) - cond


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.builds(lambda seed, rank: random_density(
        np.random.default_rng(seed), 4, rank), _SEEDS, st.integers(1, 4)),
    st.builds(_x_state, _SEEDS)))
def test_axis_pair_start_matches_the_grid_route(rho):
    """J, started from the axis pair, equals J from the measurement LP
    route on the grid to _TARGET_GAP, on both sides."""
    for side in "ab":
        assert (abs(capacity.classical_correlations(rho, side)
                    - _grid_route(rho, side)) <= capacity._TARGET_GAP)


@pytest.mark.parametrize("kind", ["povm", "ensemble"])
def test_polish_returns_a_stationary_start(kind):
    """A start whose residual is at most 1e-12 comes back as it is, after
    one evaluation of the optimality conditions; one 1e-6 away is
    polished back to a residual of at most 1e-12."""
    if kind == "povm":
        frame = capacity._correlation_frame(_noisy_pure(np.pi / 8, 0.7),
                                            True)
        u = capacity._axis_pair(frame)[0]
        f = capacity._frame_entropy(frame, u)
        start = (np.array([0.5, 0.5]), u, u[0] * (f[0] - f[1]) / 2, f.mean())
    else:
        p = qubit.ptm(channel.amplitude_damping(0.5))
        frame = (np.zeros(3), p.t, p.lam.T)
        c, y0, y = capacity._measurement_lp(frame, capacity._GRID)
        start = capacity._polish_measurement(
            frame, *capacity._cluster(c, capacity._GRID), y, y0,
            ensemble=True)
    ensemble = kind == "ensemble"

    def residual(c, u, y, y0):
        return np.linalg.norm(capacity._kkt_system(frame, c, u, y, y0,
                                                   ensemble)[0])

    assert residual(*start) <= 1e-12
    out, counts = _counted_calls(functools.partial(
        capacity._polish_measurement, ensemble=ensemble), frame, *start)
    assert counts["_kkt_system"] == 1
    for got, want in zip(out, start):
        assert np.array_equal(got, want)
    c, u, y, y0 = start
    shift = np.einsum("kai,ki->ka", capacity._tangent_bases(u),
                      np.random.default_rng(3).normal(size=(len(c), 2)))
    u = u + 1e-6 * shift / np.linalg.norm(shift, axis=1)[:, None]
    u /= np.linalg.norm(u, axis=1)[:, None]
    out = capacity._polish_measurement(frame, c, u, y, y0, ensemble=ensemble)
    assert residual(*out) <= 1e-12


def _weak_correlations(seed):
    """A mixed A marginal, correlations T of about 1e-3: f spreads by
    about 1e-6 over the sphere once its affine part is taken out."""
    rng = np.random.default_rng(seed)
    return (0.999 * np.kron(np.eye(2) / 2, random_density(rng, 2))
            + 1e-3 * random_density(rng, 4))


_LP_STATES = st.one_of(
    st.builds(lambda seed, rank: random_density(
        np.random.default_rng(seed), 4, rank), _SEEDS, st.integers(1, 4)),
    # a pure marginal: p = 1 + a.u reaches 0
    st.builds(_product_state, _SEEDS, st.integers(1, 2), st.integers(1, 2)),
    # f constant on the sphere: every feasible basis is optimal
    st.builds(_werner, st.floats(0, 1)),
    st.just(np.eye(4, dtype=complex) / 4),
    st.builds(_weak_correlations, _SEEDS))


@settings(max_examples=80, deadline=None)
@given(_LP_STATES, st.booleans(), _SEEDS, st.integers(0, 40))
def test_measurement_lp_optimality(rho, measured_first, seed, extra):
    """The simplex vertex on _GRID and extra directions meets the LP
    optimality conditions and the value HiGHS finds."""
    frame = capacity._correlation_frame(rho, measured_first)
    more = np.random.default_rng(seed).normal(size=(extra, 3))
    u = np.vstack([capacity._GRID,
                   more / np.linalg.norm(more, axis=1)[:, None]])
    c, y0, y = capacity._measurement_lp(frame, u)
    f = capacity._frame_entropy(frame, u)
    reduced = f - y0 - u @ y
    assert c.min() >= 0 and np.count_nonzero(c) <= 4
    assert abs(c.sum() - 1) <= 1e-12 and np.abs(c @ u).max() <= 1e-12
    assert reduced.min() >= -1e-12
    assert np.abs(c * reduced).max() <= 1e-12
    assert abs(c @ f - y0) <= 1e-12
    highs = scipy.optimize.linprog(
        f, A_eq=np.vstack([np.ones(len(u)), u.T]), b_eq=[1, 0, 0, 0],
        method="highs-ds", options={"primal_feasibility_tolerance": 1e-10,
                                    "dual_feasibility_tolerance": 1e-10})
    assert abs(c @ f - highs.fun) <= 1e-10


def test_measurement_lp_start_holds_the_origin():
    rows = np.vstack([np.ones(4), capacity._GRID[capacity._TETRAHEDRON].T])
    assert np.linalg.solve(rows, [1, 0, 0, 0]).min() > 0.2


def test_measurement_lp_raises_past_the_pivot_cap(monkeypatch):
    frame = capacity._correlation_frame(
        random_density(np.random.default_rng(0), 4, 3), True)
    monkeypatch.setattr(capacity, "_PIVOTS", 1)
    with pytest.raises(RuntimeError, match="pivots"):
        capacity._measurement_lp(frame, capacity._GRID)


def _weights_scaled(fn):
    """fn with its first output, the weights, scaled by 0.9."""
    def scaled(*args):
        out = fn(*args)
        return (0.9 * out[0],) + tuple(out[1:])
    return scaled


@pytest.mark.parametrize("helper, fake, run, message", [
    ("_polish_measurement", _weights_scaled(capacity._polish_measurement),
     capacity.classical_correlations, "not a POVM"),
    ("_chi_primal_dual", _weights_scaled(capacity._chi_primal_dual),
     lambda rho: capacity.holevo_chi(channel.amplitude_damping(0.5)),
     "ensemble is not valid"),
    ("_channel_on", lambda w, m: None, capacity.fidelity_optimize_one_side,
     "no trace-preserving channel")])
def test_internal_faults_raise_runtime_error(monkeypatch, helper, fake, run,
                                             message):
    """The CLI reports a ValueError as a skipped analysis; a fault of the
    solver must not pass for an input out of scope."""
    monkeypatch.setattr(capacity, helper, fake)
    with pytest.raises(RuntimeError, match=message):
        run(random_density(np.random.default_rng(1), 4, 2))
