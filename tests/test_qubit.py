import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qchan import channel, extremal, numkit, qubit
from conftest import random_density, random_pure, random_tp_channel, \
    random_unitary


def bell_state():
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return np.outer(psi, psi).astype(complex)


def pauli_channel(s1, s2, s3):
    """Pauli-diagonal channel with distortion diag(s1, s2, s3)."""
    w = np.array([1 + s1 + s2 + s3, 1 + s1 - s2 - s3,
                  1 - s1 + s2 - s3, 1 - s1 - s2 + s3]) / 4
    if w.min() < 0:
        raise ValueError("not completely positive")
    ops = [np.sqrt(w[0]) * np.eye(2, dtype=complex),
           np.sqrt(w[1]) * qubit.SX,
           np.sqrt(w[2]) * qubit.SY,
           np.sqrt(w[3]) * qubit.SZ]
    return channel.Channel(ops, require_tp=True)


def conjugated(ch, u_pre, u_post):
    return channel.Channel([u_post @ k @ u_pre for k in ch.kraus])


def filtered_tp(ch, a, b):
    """Filter on both sides, then renormalize back to trace preservation."""
    ks = [b @ k @ a for k in ch.kraus]
    s = sum(k.conj().T @ k for k in ks)
    w, v = np.linalg.eigh(s)
    s_inv_half = (v / np.sqrt(w)) @ v.conj().T
    return channel.Channel([k @ s_inv_half for k in ks], require_tp=True)


# --- Pauli transfer matrix and ellipsoid --------------------------------------

def test_ptm_known_channels():
    g = 0.4
    p = qubit.ptm(channel.amplitude_damping(g))
    assert np.abs(p.lam - np.diag([np.sqrt(1 - g), np.sqrt(1 - g),
                                   1 - g])).max() < 1e-10
    assert np.abs(p.t - np.array([0, 0, g])).max() < 1e-10

    p = qubit.ptm(channel.phase_flip(0.3))
    assert np.abs(p.lam - np.diag([0.4, 0.4, 1.0])).max() < 1e-10
    assert np.abs(p.t).max() < 1e-12


def test_ptm_affine_action():
    rng = np.random.default_rng(0)
    for _ in range(10):
        ch = random_tp_channel(rng, 2, 2)
        p = qubit.ptm(ch)
        rho = random_density(rng, 2)
        r_in = np.array([np.trace(rho @ s).real for s in qubit.PAULIS[1:]])
        out = channel.apply(ch, rho)
        r_out = np.array([np.trace(out @ s).real for s in qubit.PAULIS[1:]])
        assert np.abs(p.lam @ r_in + p.t - r_out).max() < 1e-10


def test_ptm_requires_qubit():
    with pytest.raises(ValueError):
        qubit.ptm(channel.identity(3))


def test_ellipsoid_examples():
    center, axes, o = qubit.ellipsoid(channel.amplitude_damping(0.5))
    assert np.abs(center - np.array([0, 0, 0.5])).max() < 1e-10
    assert np.abs(np.sort(axes) - np.sort([np.sqrt(0.5), np.sqrt(0.5),
                                           0.5])).max() < 1e-10
    assert abs(np.linalg.det(o) - 1) < 1e-10

    center, axes, _ = qubit.ellipsoid(channel.identity(2))
    assert np.abs(center).max() < 1e-12
    assert np.abs(axes - 1).max() < 1e-12

    rng = np.random.default_rng(1)
    target = random_density(rng, 2)
    center, axes, _ = qubit.ellipsoid(channel.replacer(target))
    assert np.abs(axes).max() < 1e-9  # image collapses to one point


# --- rotation and boost dictionaries ------------------------------------------

def test_su2_so3_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = random_unitary(rng, 2)
        u = u / np.sqrt(np.linalg.det(u).astype(complex))
        r = qubit.so3_from_su2(u)
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-10
        u2 = qubit.su2_from_so3(r)
        # double cover: recovered up to a global sign
        err = min(np.abs(u2 - u).max(), np.abs(u2 + u).max())
        assert err < 1e-9


def test_sl2_lorentz_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        f = g / np.sqrt(np.linalg.det(g).astype(complex))
        l = qubit.lorentz_from_sl2(f)
        # Lorentz: preserves the metric, orthochronous, proper
        eta = qubit.ETA
        assert np.abs(l.T @ eta @ l - eta).max() < 1e-9
        assert l[0, 0] > 0
        f2 = qubit.sl2_from_lorentz(l)
        err = min(np.abs(f2 - f).max(), np.abs(f2 + f).max())
        assert err < 1e-8


# --- local-unitary normal form -------------------------------------------------

def test_lu_normal_form_amplitude_damping():
    g = 0.3
    form = qubit.lu_normal_form(channel.amplitude_damping(g))
    expect = np.array([np.sqrt(1 - g), np.sqrt(1 - g), 1 - g])
    assert np.abs(form.lambdas - expect).max() < 1e-10
    assert np.abs(form.shift - np.array([0, 0, g])).max() < 1e-10


def test_lu_normal_form_invariance():
    """lambdas and shift are invariant under unitary conjugations."""
    rng = np.random.default_rng(4)
    for base in (channel.amplitude_damping(0.35),
                 random_tp_channel(rng, 2, 3)):
        ref = qubit.lu_normal_form(base)
        for _ in range(10):
            ch = conjugated(base, random_unitary(rng, 2),
                            random_unitary(rng, 2))
            form = qubit.lu_normal_form(ch)
            assert np.abs(np.asarray(form.lambdas)
                          - np.asarray(ref.lambdas)).max() < 1e-9
            assert np.abs(np.asarray(form.shift)
                          - np.asarray(ref.shift)).max() < 1e-9


def test_lu_normal_form_reconstruction():
    """Conjugating by the returned unitaries lands on the canonical matrix."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        ch = random_tp_channel(rng, 2, int(rng.integers(1, 5)))
        form = qubit.lu_normal_form(ch)
        conj = channel.Channel([form.u_out @ k @ form.u_in
                                for k in ch.kraus])
        assert np.abs(qubit.ptm(conj).r - form.canonical_r()).max() < 1e-9
        l1, l2, l3 = form.lambdas
        assert l1 >= l2 >= abs(l3) - 1e-12
        assert form.shift[0] >= -1e-12 and form.shift[1] >= -1e-12


def test_lu_normal_form_unital_shift_zero():
    form = qubit.lu_normal_form(channel.phase_flip(0.2))
    assert np.abs(form.shift).max() < 1e-12


# --- SLOCC normal form ----------------------------------------------------------

def test_slocc_depolarizing_generic():
    p = 0.25
    form = qubit.slocc_normal_form(channel.depolarizing(p))
    assert form.kind == "Generic"
    assert np.abs(np.asarray(form.s) - (1 - p)).max() < 1e-8
    # filters trivial up to phase
    assert np.abs(form.a @ form.a.conj().T - np.eye(2)).max() < 1e-6


def test_slocc_amplitude_damping_nongeneric():
    for g in (0.2, 0.5, 0.8):
        form = qubit.slocc_normal_form(channel.amplitude_damping(g))
        assert form.kind == "NonGeneric"
        assert 0 <= form.x <= 1


def test_slocc_complete_damping_point():
    form = qubit.slocc_normal_form(channel.amplitude_damping(1.0))
    assert form.kind == "Point"
    rng = np.random.default_rng(6)
    target = np.outer(random_pure(rng, 2), random_pure(rng, 2).conj())
    target = target @ target.conj().T
    target /= np.trace(target).real
    form = qubit.slocc_normal_form(channel.replacer(target))
    assert form.kind == "Point"


def test_slocc_filter_recovery():
    """Random filters on a Pauli-diagonal channel are undone."""
    rng = np.random.default_rng(7)
    seeds = [(0.6, 0.45, 0.2), (0.8, 0.3, 0.15)]
    for k, seed in enumerate(seeds):
        base = pauli_channel(*seed)
        for trial in range(3):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a += 2 * np.eye(2)  # keep the filters well conditioned
            b += 2 * np.eye(2)
            ch = filtered_tp(base, a, b)
            form = qubit.slocc_normal_form(ch, seed=trial)
            assert form.kind == "Generic"
            assert np.abs(np.asarray(form.s) - np.asarray(seed)).max() < 1e-6


def test_slocc_reconstruction_invariant():
    rng = np.random.default_rng(8)
    for _ in range(6):
        ch = random_tp_channel(rng, 2, int(rng.integers(1, 5)))
        form = qubit.slocc_normal_form(ch)
        r = qubit.ptm(ch).r
        assert np.abs(form.reconstructed_r() - r).max() < 1e-6


# --- extremal two-angle form ----------------------------------------------------

def test_canonical_extremal_tp_everywhere():
    rng = np.random.default_rng(9)
    for _ in range(20):
        alpha, beta = rng.uniform(0, np.pi, size=2)
        ch = qubit.canonical_extremal(alpha, beta)
        assert ch.trace_preserving


def test_canonical_extremal_identity():
    ch = qubit.canonical_extremal(np.pi, 0.0)
    assert np.abs(ch.choi - channel.identity(2).choi).max() < 1e-12


def test_canonical_extremal_amplitude_damping():
    # alpha + beta = pi makes the diagonal Kraus equal to diag(1, s1)
    g = 0.3
    alpha = (np.pi + np.arccos(2 * g - 1)) / 2
    beta = np.pi - alpha
    ch = qubit.canonical_extremal(alpha, beta)
    assert np.abs(ch.choi - channel.amplitude_damping(g).choi).max() < 1e-10


def test_extremal_form_of_recovery():
    rng = np.random.default_rng(10)
    for trial in range(10):
        alpha, beta = rng.uniform(0.2, np.pi - 0.2, size=2)
        base = qubit.canonical_extremal(alpha, beta)
        if not extremal.is_extremal_tp(base):
            continue
        ch = conjugated(base, random_unitary(rng, 2), random_unitary(rng, 2))
        form = qubit.extremal_form_of(ch)
        assert np.abs(form.reconstruct().choi - ch.choi).max() < 1e-9


def test_extremal_form_of_unitary():
    rng = np.random.default_rng(11)
    u = random_unitary(rng, 2)
    form = qubit.extremal_form_of(channel.unitary(u))
    assert (form.alpha, form.beta) == (np.pi, 0.0)
    assert np.abs(form.reconstruct().choi
                  - channel.unitary(u).choi).max() < 1e-9


def test_extremal_form_of_rejects():
    with pytest.raises(ValueError):
        qubit.extremal_form_of(channel.depolarizing(0.5))  # rank 4
    with pytest.raises(ValueError):
        qubit.extremal_form_of(channel.phase_flip(0.3))  # rank 2, not extremal


# --- concurrence and decompositions ---------------------------------------------

def test_concurrence_known_states():
    assert abs(qubit.concurrence(bell_state()) - 1) < 1e-12
    assert qubit.concurrence(np.eye(4) / 4) == 0.0
    for p in (0.4, 0.8):
        rho = p * bell_state() + (1 - p) * np.eye(4) / 4
        assert abs(qubit.concurrence(rho) - max(0.0, (3 * p - 1) / 2)) < 1e-10


def test_concurrence_pure_states():
    rng = np.random.default_rng(12)
    for _ in range(10):
        psi = random_pure(rng, 4)
        rho = np.outer(psi, psi.conj())
        direct = 2 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        assert abs(qubit.concurrence(rho) - direct) < 1e-10


def test_equal_concurrence_decomposition():
    rng = np.random.default_rng(13)
    for trial in range(30):
        rho = random_density(rng, 4, rank=int(rng.integers(1, 5)))
        dec = qubit.equal_concurrence_decomposition(rho)
        c = qubit.concurrence(rho)
        assert abs(dec.c - c) < 1e-8
        rebuilt = sum(w * np.outer(s, s.conj())
                      for w, s in zip(dec.weights, dec.states))
        assert np.abs(rebuilt - rho).max() < 1e-10
        assert abs(sum(dec.weights) - 1) < 1e-10
        for s in dec.states:
            ci = 2 * abs(s[0] * s[3] - s[1] * s[2])
            assert abs(ci - c) < 1e-8


def test_equal_concurrence_separable():
    """C = 0 states split into product states."""
    rng = np.random.default_rng(14)
    for _ in range(10):
        a = random_density(rng, 2, rank=int(rng.integers(1, 3)))
        b = random_density(rng, 2, rank=int(rng.integers(1, 3)))
        rho = np.kron(a, b)
        dec = qubit.equal_concurrence_decomposition(rho)
        assert dec.c == 0.0
        for s in dec.states:
            assert 2 * abs(s[0] * s[3] - s[1] * s[2]) < 1e-8


def test_kraus_contraction_form():
    rng = np.random.default_rng(15)
    for ch in (channel.amplitude_damping(0.4), channel.phase_flip(0.25),
               random_tp_channel(rng, 2, 3)):
        dec = qubit.kraus_contraction_form(ch)
        rebuilt = channel.Channel(dec.kraus)
        assert np.abs(rebuilt.choi - ch.choi).max() < 1e-9
        # each operator is sqrt(2w) U C~ V up to the structural tolerance
        for (u, v), w, k in zip(dec.pairs, dec.weights, dec.kraus):
            core = u.conj().T @ k @ v.conj().T
            target = np.sqrt(2 * w) * dec.contraction
            assert np.abs(np.abs(core) - target).max() < 1e-6


def test_kraus_contraction_identity():
    dec = qubit.kraus_contraction_form(channel.identity(2))
    assert len(dec.kraus) == 1
    k = dec.kraus[0]
    assert np.abs(k @ k.conj().T - np.eye(2)).max() < 1e-9


def test_kraus_contraction_eb_rank_one():
    """Entanglement-breaking channels get projector-like Kraus operators."""
    rng = np.random.default_rng(16)
    chans = [channel.depolarizing(0.8), channel.completely_depolarizing(2),
             channel.phase_flip(0.5)]
    for _ in range(3):
        psi0, psi1 = random_pure(rng, 2), random_pure(rng, 2)
        ops = [np.outer(psi0, [1, 0]), np.outer(psi1, [0, 1])]
        chans.append(channel.Channel(ops, require_tp=True))
    for ch in chans:
        dec = qubit.kraus_contraction_form(ch)
        assert dec.c <= 1e-9
        for k in dec.kraus:
            s = np.linalg.svd(k, compute_uv=False)
            assert s[1] <= 1e-8 * max(s[0], 1.0)


# --- entanglement breaking and fidelity ------------------------------------------

def test_entanglement_breaking_depolarizing():
    assert not qubit.is_entanglement_breaking(channel.depolarizing(0.5))
    assert qubit.is_entanglement_breaking(channel.depolarizing(2 / 3))
    assert qubit.is_entanglement_breaking(channel.depolarizing(0.8))
    # C = 1.5e-9 and min PT eigenvalue -7.5e-10: inside the 1e-9 band
    assert qubit.is_entanglement_breaking(channel.depolarizing(2 / 3 - 1e-9))


def _depolarizing_mixture(seed, rank, p):
    ch = random_tp_channel(np.random.default_rng(seed), 2, rank)
    mix = channel.depolarizing(p)
    return channel.Channel([np.sqrt(0.5) * a
                            for a in list(ch.kraus) + list(mix.kraus)])


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.builds(lambda seed, rank: random_tp_channel(
        np.random.default_rng(seed), 2, rank),
        st.integers(0, 2 ** 32 - 1), st.integers(1, 4)),
    st.builds(channel.depolarizing, st.floats(0, 1)),
    st.builds(_depolarizing_mixture, st.integers(0, 2 ** 32 - 1),
              st.integers(1, 4), st.floats(0, 1))))
def test_entanglement_breaking_agrees_with_concurrence(ch):
    """Outside a 1e-6 band around the threshold the partial-transpose
    verdict is the zero-concurrence verdict, and a breaking channel
    distributes no entanglement."""
    ptmin = np.linalg.eigvalsh(numkit.partial_transpose(ch.jam, 2, 2, 1))[0]
    assume(abs(ptmin) > 1e-6)
    breaking = qubit.is_entanglement_breaking(ch)
    assert breaking == (ptmin > 0)
    assert breaking == (qubit.concurrence(ch.jam) <= 1e-9)
    if breaking:
        assert not qubit.can_distribute_entanglement(ch)


def test_entanglement_breaking_other_channels():
    assert not qubit.is_entanglement_breaking(channel.identity(2))
    assert not qubit.is_entanglement_breaking(channel.amplitude_damping(0.5))
    assert qubit.is_entanglement_breaking(channel.completely_depolarizing(2))
    # the midpoint phase flip is a measure-and-prepare map
    assert qubit.is_entanglement_breaking(channel.phase_flip(0.5))
    assert not qubit.is_entanglement_breaking(channel.phase_flip(0.3))


def test_can_distribute_entanglement():
    rng = np.random.default_rng(17)
    assert qubit.can_distribute_entanglement(channel.identity(2))
    assert not qubit.can_distribute_entanglement(
        channel.completely_depolarizing(2))
    for _ in range(20):
        ch = random_tp_channel(rng, 2, int(rng.integers(1, 5)))
        out = qubit.can_distribute_entanglement(ch)
        top = np.linalg.eigvalsh(ch.jam)[-1]
        assert out == (top > 0.5 + 1e-12)


def test_max_entanglement_fidelity_identity():
    f, chi = qubit.max_entanglement_fidelity(channel.identity(2))
    assert abs(f - 1) < 1e-12
    assert abs(np.linalg.norm(chi) - 1) < 1e-10


def test_max_entanglement_fidelity_beats_bell_input():
    """Damping at g = 0.5: the best input is not maximally entangled."""
    g = 0.5
    ch = channel.amplitude_damping(g)
    f, chi = qubit.max_entanglement_fidelity(ch)
    assert abs(f - 0.75) < 1e-9
    bell = (1 + 2 * np.sqrt(1 - g) + (1 - g)) / 4
    assert f > bell + 1e-3
    # the reported input achieves the value
    rho = np.outer(chi, chi.conj())
    out = sum(np.kron(np.eye(2), a) @ rho @ np.kron(np.eye(2), a).conj().T
              for a in ch.kraus)
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert abs((phi.conj() @ out @ phi).real - f) < 1e-10


def test_max_entanglement_fidelity_qutrit():
    rng = np.random.default_rng(18)
    ch = random_tp_channel(rng, 3, 2)
    f, chi = qubit.max_entanglement_fidelity(ch)
    assert 0 <= f <= 1
    assert abs(np.linalg.norm(chi) - 1) < 1e-10
