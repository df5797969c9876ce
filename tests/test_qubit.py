import time
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qchan import capacity, channel, cli, extremal, numkit, qubit
from conftest import filtered_tp, pauli_channel, random_density, \
    random_pure, random_sl2, random_tp_channel, random_unitary, \
    template_channel


def bell_state():
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return np.outer(psi, psi).astype(complex)


def conjugated(ch, u_pre, u_post):
    return channel.Channel([u_post @ k @ u_pre for k in ch.kraus])


def _filter(rng, c):
    """A random filter U diag(c, 1/c) V, of condition number c^2."""
    return (random_unitary(rng, 2) @ np.diag([c, 1 / c])
            @ random_unitary(rng, 2))


def _filtered(base, rng, c=None):
    """base under two random filters of condition number c^2 <= 1e3, or
    under two random_sl2 filters when c is None.

    Near 1e3, filtered_tp's renormalization can miss the 1e-10 trace
    check of Channel; hypothesis skips such draws.
    """
    def draw():
        return random_sl2(rng) if c is None else _filter(rng, c)

    try:
        return filtered_tp(base, draw(), draw())
    except ValueError:
        assume(False)


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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_ptm_matches_choi_route(seed, rank):
    """The action route equals Tr(jam sigma_i (x) sigma_j) with the sigma_y
    row flipped (the transpose hiding in the dual state), transposed."""
    ch = random_tp_channel(np.random.default_rng(seed), 2, rank)
    r_choi = np.array([[np.trace(ch.jam @ np.kron(a, b)).real
                        for b in qubit.PAULIS] for a in qubit.PAULIS])
    r_choi[2, :] *= -1
    assert np.abs(qubit.ptm(ch).r - r_choi.T).max() < 1e-10


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
    bases = [channel.amplitude_damping(0.35), random_tp_channel(rng, 2, 3)]
    # tied or vanishing singular values leave LU a rotation to spend
    bases += [qubit.canonical_extremal(a, b)
              for a, b in ((0.7, 0.7), (0.7, np.pi - 0.7), (np.pi / 2, 1.0),
                           (np.pi / 2, np.pi / 2))]
    for base in bases:
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


@pytest.mark.parametrize("seed", [24, 40, 43, 51, 98])
def test_lu_normal_form_accepts_strongly_filtered_inputs(seed):
    """Filters of condition number 900 leave the input within the TP
    cut and its conjugated copy just outside; the self-check reads the
    conjugated Kraus operators directly, so it does not judge TP again."""
    rng = np.random.default_rng(seed)
    ch = filtered_tp(pauli_channel(0.6, 0.45, 0.2), _filter(rng, 30.0),
                     _filter(rng, 30.0))
    form = qubit.lu_normal_form(ch)
    lam = np.linalg.svd(qubit.ptm(ch).lam, compute_uv=False)
    assert np.abs(np.abs(form.lambdas) - lam).max() < 1e-9


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
        assert abs(form.x - 1) <= 1e-9
        assert abs(form.scale - np.sqrt(3 * (1 - g))) <= 1e-9


# 1 - 1e-16 rounds to 0.9999999999999999, one ulp below 1
@pytest.mark.parametrize("one_less_g", [1e-16, 1e-15, 1e-14, 1e-13, 1e-12])
def test_slocc_amplitude_damping_near_one(one_less_g):
    """mu = scale^2 / 3 = 1 - g falls to rounding level, yet the channel
    is non-generic until Point takes it; x is ill-conditioned there."""
    g = 1 - one_less_g
    form = qubit.slocc_normal_form(channel.amplitude_damping(g))
    assert form.kind == "NonGeneric"
    assert abs(form.scale / np.sqrt(3 * (1 - g)) - 1) <= 1e-4


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(st.one_of(st.sampled_from([1.0, 1 - 1e-7, 1 - 3e-7, 1 - 1e-9,
                                         1 - 1e-5, 1 - 1e-3, 1e-5, 1e-6,
                                         3e-7]),
                        st.floats(np.log10(3e-7), 0.0).map(lambda e: 10 ** e)),
              st.floats(0.0, 1.5).map(lambda e: 10 ** e)),
    # toward x = 0, where the eigenvalues give x only to sqrt(eps)
    st.tuples(st.sampled_from([0.0, 1e-12, 1e-9]), st.none())),
    st.integers(0, 2 ** 32 - 1))
def test_slocc_nongeneric_filter_recovery(x_c, seed):
    """Random filters on the template are undone, x included: filters of
    condition number up to 1e3, and random_sl2 filters down to x = 0."""
    x, c = x_c
    ch = _filtered(template_channel(x), np.random.default_rng(seed), c)
    form = qubit.slocc_normal_form(ch)
    assert form.kind == "NonGeneric"
    assert abs(form.x - x) <= 1e-9
    assert np.abs(form.reconstructed_r() - qubit.ptm(ch).r).max() <= 1e-10


@pytest.mark.parametrize("seed", [4, 46, 181])
def test_slocc_nongeneric_near_one(seed):
    """At 1 - x = 1e-7 the eigenvalue pairs and the rank-one test blur;
    for the first filters x = 1 rebuilds r only to 3e-4."""
    rng = np.random.default_rng(seed)
    ch = filtered_tp(template_channel(1 - 1e-7), random_sl2(rng),
                     random_sl2(rng))
    form = qubit.slocc_normal_form(ch)
    assert abs(form.x - (1 - 1e-7)) <= 1e-9
    assert np.abs(form.reconstructed_r() - qubit.ptm(ch).r).max() <= 1e-12


@pytest.mark.parametrize("x, seed", [(1 - 1e-7, 121), (1 - 1e-7, 232),
                                     (1 - 3e-7, 6), (1 - 3e-7, 10)])
def test_slocc_nongeneric_ill_conditioned_filters(x, seed):
    """Filters of condition number 900 near x = 1: rounding in a frame
    alone can exceed 1e-6, and neither frame rebuilds r to 1e-10;
    Gauss-Newton steps polish them."""
    rng = np.random.default_rng(seed)
    ch = filtered_tp(template_channel(x), _filter(rng, 30.0),
                     _filter(rng, 30.0))
    form = qubit.slocc_normal_form(ch)
    assert form.kind == "NonGeneric"
    assert abs(form.x - x) <= 1e-9
    assert np.abs(form.reconstructed_r() - qubit.ptm(ch).r).max() <= 1e-10


def test_slocc_refinement_recovers_a_blurred_frame():
    """The polish for frames that rounding blurs: Gauss-Newton steps from
    a perturbed form come back to the exact one."""
    rng = np.random.default_rng(22)
    ch = filtered_tp(template_channel(0.6), random_sl2(rng),
                     random_sl2(rng))
    r = qubit.ptm(ch).r
    form = qubit.slocc_normal_form(ch)
    noise = 1e-3 * (rng.normal(size=(2, 2, 2))
                    + 1j * rng.normal(size=(2, 2, 2)))
    blurred = qubit.SloccNormalForm("NonGeneric", form.a + noise[0],
                                    form.b + noise[1], form.scale,
                                    x=form.x - 1e-3)
    assert np.abs(blurred.reconstructed_r() - r).max() > 1e-4
    fixed = qubit._polish_frame(r, blurred)
    assert abs(fixed.x - 0.6) <= 1e-9
    assert np.abs(fixed.reconstructed_r() - r).max() <= 1e-12


def test_slocc_unitaries_and_rank_two_are_generic(tmp_path):
    """Unitaries (M = I, where eig may return complex vectors spanning the
    degenerate real eigenspace) and rank-2 channels, read back from Kraus
    and Choi files, land in the generic family."""
    rng = np.random.default_rng(19)
    chans = [channel.unitary(random_unitary(rng, 2)) for _ in range(20)]
    chans += [random_tp_channel(rng, 2, 2) for _ in range(20)]
    for k, ch in enumerate(chans):
        for write in (cli.write_kraus_file, cli.write_choi_file):
            path = str(tmp_path / "channel.json")
            write(path, ch)
            loaded = cli.load_channel_file(path)[0]
            start = time.perf_counter()
            form = qubit.slocc_normal_form(loaded)
            assert time.perf_counter() - start < 0.05
            assert form.kind == "Generic"
            if k < 20:
                assert np.abs(np.abs(form.s) - 1).max() < 1e-8


def test_normal_forms_run_no_search(monkeypatch):
    """Frames that come out exact classify without a Gauss-Newton step."""
    def refuse(*args, **kwargs):
        raise AssertionError("a frame was polished")

    monkeypatch.setattr(qubit, "_polish_frame", refuse)
    rng = np.random.default_rng(3)
    for ch, kind in ((channel.amplitude_damping(0.5), "NonGeneric"),
                     (channel.depolarizing(0.5), "Generic"),
                     (random_tp_channel(rng, 2, 3), "Generic"),
                     (template_channel(0.3), "NonGeneric")):
        assert qubit.slocc_normal_form(ch).kind == kind


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
    for seed in seeds:
        base = pauli_channel(*seed)
        for _ in range(3):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a += 2 * np.eye(2)  # keep the filters well conditioned
            b += 2 * np.eye(2)
            ch = filtered_tp(base, a, b)
            form = qubit.slocc_normal_form(ch)
            assert form.kind == "Generic"
            assert np.abs(np.asarray(form.s) - np.asarray(seed)).max() < 1e-6


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.floats(0.0, 1.5),
       st.integers(0, 2 ** 32 - 1))
@example((0.09, 0.01, -0.2), np.log10(25.0), 0)
@example((0.09, 0.01, -0.2), np.log10(25.0), 1)
@example((0.0, 0.5, 1e-7), 1.5, 0)
@example((1.0, 1e-9, 1e-9), 0.0, 0)
def test_slocc_generic_under_strong_filters(s, log_c, seed):
    """Filters of condition number up to 1e3 on a Pauli-diagonal channel:
    the Lorentz singular values come back, and the form rebuilds r. The
    examples put a Lorentz scale below 1, or small singular values that
    tie within _TIE_TOL, under filters."""
    assume(min(1 + s[0] + s[1] + s[2], 1 + s[0] - s[1] - s[2],
               1 - s[0] + s[1] - s[2], 1 - s[0] - s[1] + s[2]) >= 0)
    ch = _filtered(pauli_channel(*s), np.random.default_rng(seed),
                   10 ** log_c)
    r = qubit.ptm(ch).r
    form = qubit.slocc_normal_form(ch)
    assert form.kind == "Generic"
    assert np.abs(np.sort(np.abs(form.s)) - np.sort(np.abs(s))).max() <= 1e-8
    assert (np.abs(form.reconstructed_r() - r).max()
            <= qubit._REBUILD_TOL * form.scale)


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


def _two_angle_ptm(alpha, beta):
    r = np.diag([1.0, np.cos(alpha), -np.cos(beta),
                 -np.cos(alpha) * np.cos(beta)])
    r[3, 0] = np.sin(alpha) * np.sin(beta)
    return r


def test_canonical_extremal_closed_form():
    """The Pauli picture is the closed form to rounding, also where
    beta - alpha or pi - alpha - beta is tiny and sqrt((1 - cos)/2) would
    lose half the digits."""
    rng = np.random.default_rng(22)
    pairs = [(0.7611060596, 2.3804865791), (1.0, 1.00000001)]
    for _ in range(100):
        alpha = rng.uniform(0.0, np.pi / 2 - 1e-4)
        pairs.append((alpha, alpha + 10 ** rng.uniform(-12, -5)))
        alpha = rng.uniform(0.0, np.pi / 2 - 1e-4)
        pairs.append((alpha, np.pi - alpha - 10 ** rng.uniform(-12, -5)))
    for alpha, beta in pairs:
        r = qubit.ptm(qubit.canonical_extremal(alpha, beta)).r
        assert np.abs(r - _two_angle_ptm(alpha, beta)).max() < 1e-12


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


def _rotated_extremal(alpha, beta, tie):
    beta = {"equal": alpha, "supplement": np.pi - alpha, "free": beta}[tie]
    return qubit.canonical_extremal(alpha, beta)


@settings(max_examples=50, deadline=None)
@given(st.one_of(
    st.builds(_rotated_extremal, st.floats(0.05, np.pi - 0.05),
              st.floats(0.05, np.pi - 0.05),
              st.sampled_from(["equal", "supplement", "free"])),
    st.builds(channel.amplitude_damping, st.floats(0.01, 0.99))),
    st.integers(0, 2 ** 32 - 1))
def test_extremal_form_of_rotated_family(base, seed):
    """Equal singular values (beta = alpha, beta = pi - alpha, damping)
    leave a rotation freedom that the translation must pin down."""
    assume(extremal.is_extremal_tp(base))
    rng = np.random.default_rng(seed)
    ch = conjugated(base, random_unitary(rng, 2), random_unitary(rng, 2))
    form = qubit.extremal_form_of(ch)
    assert np.abs(form.reconstruct().choi - ch.choi).max() < 1e-9


def test_extremal_form_of_zero_singular_values():
    """cos(alpha) = 0 or cos(beta) = 0 zeroes singular values of the
    distortion, which frees o_in on them; at alpha = beta = pi/2 the
    distortion vanishes and the translation alone pins o_out."""
    rng = np.random.default_rng(21)
    for alpha, beta, n in ((np.pi / 2, np.pi / 2, 100), (np.pi / 2, 1.0, 20),
                           (1.0, np.pi / 2, 20), (np.pi / 2, 2.5, 20)):
        base = qubit.canonical_extremal(alpha, beta)
        for _ in range(n):
            ch = conjugated(base, random_unitary(rng, 2),
                            random_unitary(rng, 2))
            form = qubit.extremal_form_of(ch)
            assert np.abs(form.reconstruct().choi - ch.choi).max() < 1e-9


@pytest.mark.parametrize("family", ["near-zero singular value",
                                    "near-equal singular values"])
def test_extremal_form_of_near_degenerate(family):
    """alpha = pi/2 + delta leaves a singular value of size delta, and
    beta = alpha + delta two singular values delta apart; the translation
    still pins the rotations down."""
    for k in range(200):
        rng = np.random.default_rng(k)
        delta = 10 ** rng.uniform(-12, -5)
        angle = rng.uniform(0.05, np.pi - 0.05)
        if family == "near-zero singular value":
            base = qubit.canonical_extremal(np.pi / 2 + delta, angle)
        else:
            base = qubit.canonical_extremal(angle, angle + delta)
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


def test_contraction_form_of_unitaries_has_finite_core():
    """Rounding can put a unitary's concurrence just above 1."""
    rng = np.random.default_rng(20)
    for _ in range(50):
        dec = qubit.kraus_contraction_form(
            channel.unitary(random_unitary(rng, 2)))
        assert np.isfinite(dec.contraction).all()
        assert 0 <= dec.c <= 1


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


def _product_mixture(rng, rank):
    """A mixture of `rank` random product pure states."""
    rho = np.zeros((4, 4), dtype=complex)
    for w in rng.dirichlet(np.ones(rank)):
        v = np.kron(random_pure(rng, 2), random_pure(rng, 2))
        rho += w * np.outer(v, v.conj())
    return rho


def test_equal_concurrence_separable_rank_three():
    """Mixtures of three product pure states: rank 3, zero-padded to
    the 4 x 4 Hadamard frame."""
    rng = np.random.default_rng(16)
    for _ in range(50):
        rho = _product_mixture(rng, 3)
        assert np.linalg.matrix_rank(rho, tol=1e-10) == 3
        dec = qubit.equal_concurrence_decomposition(rho)
        assert dec.c == 0.0
        rebuilt = sum(w * np.outer(s, s.conj())
                      for w, s in zip(dec.weights, dec.states))
        assert np.abs(rebuilt - rho).max() < 1e-10
        for s in dec.states:
            assert 2 * abs(s[0] * s[3] - s[1] * s[2]) < 1e-8


@st.composite
def _closable(draw):
    """Descending sig of size 1 to 4 with sig_0 <= sig_1 + sig_2 + ...:
    sig_0 often at that sum, and zero tails of every length. No
    subnormals: summed there, the check itself has fewer digits than it
    asks for."""
    size = st.floats(0, 1, allow_subnormal=False)
    rest = sorted(draw(st.lists(st.one_of(st.just(0.0), size),
                                max_size=3)), reverse=True)
    if not rest:
        return np.zeros(1)
    t = draw(st.one_of(st.just(1.0), st.floats(0, 1)))
    return np.array([rest[0] + t * (sum(rest) - rest[0])] + rest)


@settings(max_examples=300, deadline=None)
@given(_closable())
@example(np.zeros(4))
@example(np.array([0.5, 0.5, 0.0]))
@example(np.array([0.722801361, 0.722801361, 4.95476441e-05]))
def test_closing_phases_close(sig):
    """The phases close sum_k sig_k exp(2i phi_k) to rounding, flat
    triangles too: the last example turns sig_1 by 7e-5 short of pi,
    where the law of cosines read through arccos loses 4 digits."""
    phi = qubit._closing_phases(sig)
    assert phi.shape == sig.shape
    assert abs(np.sum(sig * np.exp(2j * phi))) <= 1e-14 * sig.sum()


_BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0],
                        [0, 1, -1, 0]]) / np.sqrt(2)


def _bell_mixture(w, rng):
    """Bell states with weights w (1 to 4 of them) under random local
    unitaries, of concurrence max(0, 2 max(w) - 1)."""
    x = np.kron(random_unitary(rng, 2), random_unitary(rng, 2)) @ (
        _BELL_BASIS[:len(w)].T * np.sqrt(w))
    return x @ x.conj().T


def _werner_like(p, k):
    """Weight (1 + 3p) / 4 on one Bell state and 3(1 - p) / 4 spread
    evenly over k others, as in the Werner state for k = 3: rank k + 1,
    k repeated preconcurrence singular values, and at p = 1/3 sig_0 equal
    to the sum of the rest."""
    return np.array([1 + 3 * p] + [3 * (1 - p) / k] * k) / 4


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("delta", [0.0, 1e-15, -1e-15, 1e-12, -1e-12,
                                   1e-9, -1e-9])
def test_equal_concurrence_at_the_werner_threshold(delta, k):
    """Near p = 1/3 sig_0 meets the sum of the rest: states on both sides
    of the separable branch's cut rebuild rho, and every state has the
    concurrence C."""
    w = _werner_like(1 / 3 + delta, k)
    rho = _bell_mixture(w, np.random.default_rng(k))
    dec = qubit.equal_concurrence_decomposition(rho)
    assert abs(dec.c - max(0.0, 2 * w.max() - 1)) <= 1e-12
    rebuilt = sum(wi * np.outer(s, s.conj())
                  for wi, s in zip(dec.weights, dec.states))
    assert np.abs(rebuilt - rho).max() <= 1e-12
    for s in dec.states:
        assert abs(2 * abs(s[0] * s[3] - s[1] * s[2]) - dec.c) <= 1e-12


def test_decomposition_sizes():
    """rank(rho) pure states, but 4 for a separable rank-3 rho (zero-padded
    to the 4 x 4 Hadamard frame); the contraction form of a channel has
    as many Kraus operators as its dual state has states."""
    rng = np.random.default_rng(24)
    for rank in range(1, 5):
        states = [random_density(rng, 4, rank), _product_mixture(rng, rank)]
        if rank > 1:
            states += [_bell_mixture(_werner_like(p, rank - 1), rng)
                       for p in (0.2, 0.6)]
        for rho in states:
            dec = qubit.equal_concurrence_decomposition(rho)
            want = 4 if rank == 3 and dec.c == 0 else rank
            assert len(dec.states) == want
    chans = [random_tp_channel(rng, 2, m) for m in (1, 2, 3, 4)] + [
        pauli_channel(*s) for s in ((1, 1, 1), (1, 0, 0), (0.5, 0, 0),
                                    (0.2, 0.2, 0.2), (0.6, 0.6, 0.6))]
    for ch in chans:
        rank = channel.rank(ch)
        dec = qubit.kraus_contraction_form(ch)
        want = 4 if rank == 3 and dec.c == 0 else rank
        assert len(dec.kraus) == want


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


_QUBIT_CHANNELS = st.one_of(
    st.builds(lambda seed, rank: random_tp_channel(
        np.random.default_rng(seed), 2, rank),
        st.integers(0, 2 ** 32 - 1), st.integers(1, 4)),
    st.builds(channel.depolarizing, st.floats(0, 1)),
    st.builds(_depolarizing_mixture, st.integers(0, 2 ** 32 - 1),
              st.integers(1, 4), st.floats(0, 1)))


@settings(max_examples=80, deadline=None)
@given(_QUBIT_CHANNELS)
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
        assert qubit.max_entanglement_fidelity(ch)[0] <= 0.5 + 1e-12


@settings(max_examples=80, deadline=None)
@given(st.one_of(_QUBIT_CHANNELS,
                 st.builds(channel.amplitude_damping, st.floats(0, 1)),
                 st.builds(channel.depolarizing,
                           st.floats(2 / 3 - 1e-6, 2 / 3 + 1e-6))))
def test_partial_transpose_minimum_is_half_less_f_max(ch):
    """The identity that lets is_entanglement_breaking read f_max: for a
    TP qubit channel the reduction map X -> Tr(X) I - X is sigma_y X^T
    sigma_y, so the dual state's partial transpose has least eigenvalue
    1/2 - f_max."""
    ptmin = np.linalg.eigvalsh(numkit.partial_transpose(ch.jam, 2, 2, 1))[0]
    assert abs(ptmin - (0.5 - qubit.max_entanglement_fidelity(ch)[0])) \
        <= 1e-12


def test_entanglement_breaking_reads_no_partial_transpose(monkeypatch):
    def refuse(*args):
        raise AssertionError("a partial transpose was formed")

    monkeypatch.setattr(numkit, "partial_transpose", refuse)
    assert qubit.is_entanglement_breaking(channel.depolarizing(0.7))
    assert not qubit.is_entanglement_breaking(channel.amplitude_damping(0.5))


def test_entanglement_breaking_other_channels():
    assert not qubit.is_entanglement_breaking(channel.identity(2))
    assert not qubit.is_entanglement_breaking(channel.amplitude_damping(0.5))
    assert qubit.is_entanglement_breaking(channel.completely_depolarizing(2))
    # the midpoint phase flip is a measure-and-prepare map
    assert qubit.is_entanglement_breaking(channel.phase_flip(0.5))
    assert not qubit.is_entanglement_breaking(channel.phase_flip(0.3))


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.integers(2, 3).flatmap(lambda n: st.builds(
        lambda seed, rank: random_tp_channel(
            np.random.default_rng(seed), n, rank),
        st.integers(0, 2 ** 32 - 1), st.integers(1, n * n))),
    st.builds(channel.depolarizing, st.floats(0, 4 / 3)),
    st.builds(channel.phase_flip, st.floats(0, 1))))
def test_dual_state_spectrum_has_one_route(ch):
    """The rank, the minimal Kraus count, the choi report's eigenvalues,
    f_max, can_distribute and the rank-2 capacity's p all agree with one
    eigvalsh of the dual state."""
    ref = np.linalg.eigvalsh(ch.jam)
    w = ref * ch.choi_trace
    cut = numkit.PSD_TOL * max(w[-1], 1.0)
    assume(np.abs(w - cut).min() > 1e-12)
    rank = int(np.count_nonzero(w > cut))
    assert channel.rank(ch) == len(channel.minimal_kraus(ch)) == rank
    flags = types.SimpleNamespace(tol=1e-9)
    report = cli._run_analysis("choi", ch, flags)
    assert np.abs(np.array(report["jam_eigenvalues"]) - ref).max() < 1e-12
    f_max = cli._run_analysis("fidelity", ch, flags)["f_max"]
    assert abs(f_max - ref[-1]) < 1e-12
    if ch.dim == 2:
        eb = cli._run_analysis("eb", ch, flags)
        assert eb["can_distribute"] == (f_max > 0.5 + 1e-9)
        try:
            q = capacity.quantum_capacity_rank2_unital(ch)
        except ValueError:
            return
        assert abs(q - (1 - capacity.binary_entropy(ref[-1]))) < 1e-12


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


def test_max_entanglement_fidelity_check_catches_a_turned_input(monkeypatch):
    """The direct evaluation is a real check: a top eigenvector turned by
    1e-3 rad toward the next one (dual-state eigenvalues 0.75 and 0.25)
    misses f by 5e-7 and fails it."""
    ch = channel.amplitude_damping(0.5)
    eigh = numkit.eigh

    def turned(m):
        w, v = eigh(m)
        v = v.copy()
        v[:, -1] = np.cos(1e-3) * v[:, -1] + np.sin(1e-3) * v[:, -2]
        return w, v

    monkeypatch.setattr(numkit, "eigh", turned)
    with pytest.raises(RuntimeError, match="direct evaluation"):
        qubit.max_entanglement_fidelity(ch)
