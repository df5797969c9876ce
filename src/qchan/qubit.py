"""Qubit-channel geometry and structure.

A qubit channel acts on Bloch vectors affinely, (1, x') = r (1, x) for a
real 4x4 matrix r with first row (1,0,0,0); the image of the Bloch sphere
is an ellipsoid. Unitary conjugations rotate that picture (LU normal
form); invertible filterings boost it (Lorentz/SLOCC normal form, three
families). Extremal channels of rank 2 form a two-angle family. The
two-qubit side of the same coin: concurrence, equal-concurrence
decompositions of the dual state, entanglement breaking, and the maximal
entanglement fidelity a channel can transmit.
"""

import numpy as np
import scipy.linalg
import scipy.optimize

from . import numkit, channel

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = [np.eye(2, dtype=complex), SX, SY, SZ]
ETA = np.diag([1.0, -1.0, -1.0, -1.0])
# spin flip sigma_y (x) sigma_y; real
SFLIP = np.kron(SY, SY).real.astype(float)


def _require_qubit_tp(ch):
    if ch.dim != 2:
        raise ValueError("qubit operations need dimension 2, got %d" % ch.dim)
    if not channel.is_tp(ch):
        raise ValueError("channel is not trace-preserving")


class Ptm:
    """Affine Bloch representation of a qubit channel.

    r[0] = (1,0,0,0); translation t = r[1:,0]; distortion lam = r[1:,1:].
    """

    def __init__(self, r):
        self.r = np.asarray(r, dtype=float)

    @property
    def t(self):
        return self.r[1:, 0]

    @property
    def lam(self):
        return self.r[1:, 1:]

    def apply_bloch(self, x):
        return self.t + self.lam @ np.asarray(x, dtype=float)


def ptm(ch):
    """Bloch-picture matrix, computed twice and cross-checked.

    Route one reads the channel action on the Pauli basis; route two
    reads Tr(jam sigma_i (x) sigma_j), flips the sigma_y row (the
    transpose hiding in the dual state) and transposes. Disagreement
    beyond 1e-10 signals a convention bug and raises.
    """
    _require_qubit_tp(ch)
    r_act = np.zeros((4, 4))
    for j in range(4):
        out = channel.apply(ch, PAULIS[j])
        for i in range(4):
            val = 0.5 * np.trace(PAULIS[i] @ out)
            r_act[i, j] = val.real
    r_choi = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            r_choi[i, j] = np.trace(
                ch.jam @ numkit.kron(PAULIS[i], PAULIS[j])).real
    r_choi[2, :] *= -1
    r_choi = r_choi.T
    if np.abs(r_act - r_choi).max() > 1e-10:
        raise RuntimeError("Bloch-picture routes disagree; convention bug")
    return Ptm(r_act)


def ellipsoid(ch):
    """Image of the Bloch sphere: (center, semi_axes, orientation).

    center is the translation, semi_axes the singular values of the
    distortion block, orientation a proper rotation whose columns carry
    the axes; points are orientation @ diag(semi_axes) @ u + center.
    """
    p = ptm(ch)
    u, s, v = np.linalg.svd(p.lam)
    if np.linalg.det(u) < 0:
        u = u.copy()
        u[:, 2] *= -1
        v = v.copy()
        v[2, :] *= -1
    return p.t.copy(), s, u


# --- rotation / boost dictionaries -----------------------------------------

def lorentz_from_sl2(f):
    """The real 4x4 action of rho -> F rho F^dag on Pauli coordinates."""
    f = np.asarray(f, dtype=complex)
    l = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            l[i, j] = 0.5 * np.trace(PAULIS[i] @ f @ PAULIS[j]
                                     @ f.conj().T).real
    return l


def sl2_from_lorentz(l, tol=1e-8):
    """Invert lorentz_from_sl2 for a proper orthochronous Lorentz matrix.

    In matrix-entry coordinates the map is F (x) conj(F); reshuffling its
    16 entries gives the rank-one matrix vec(F) vec(F)^dag, whose top
    eigenvector recovers F. The result is normalized to det F = 1 (the
    overall sign stays ambiguous, which conjugation cannot see).
    """
    l = np.asarray(l, dtype=float)
    cmat = np.stack([p.reshape(-1) for p in PAULIS], axis=1)
    g = cmat @ l @ np.linalg.inv(cmat)
    h = g.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    f = v[:, -1] * np.sqrt(max(w[-1], 0.0))
    f = f.reshape(2, 2)
    det = np.linalg.det(f)
    if abs(det) < 1e-12:
        raise ValueError("matrix is not the conjugation action of any "
                         "invertible filter")
    f = f / np.sqrt(det)
    if np.abs(lorentz_from_sl2(f) - l).max() > tol * max(np.abs(l).max(), 1.0):
        raise ValueError("matrix is not a conjugation action within "
                         "tolerance")
    return f


def so3_from_su2(u):
    """Bloch rotation of the unitary conjugation rho -> U rho U^dag."""
    return lorentz_from_sl2(u)[1:, 1:]


def su2_from_so3(o):
    """A unitary whose conjugation realizes the given rotation."""
    o = np.asarray(o, dtype=float)
    l = np.eye(4)
    l[1:, 1:] = o
    u = sl2_from_lorentz(l)
    if np.abs(u @ u.conj().T - np.eye(2)).max() > 1e-8:
        raise ValueError("matrix is not a rotation")
    return u


def _proj_so3(n):
    u, _, vt = np.linalg.svd(n)
    d = np.linalg.det(u @ vt)
    return u @ np.diag([1.0, 1.0, d]) @ vt


# --- LU normal form ---------------------------------------------------------

class LuNormalForm:
    """Canonical form under local unitaries.

    lambdas = (l1, l2, l3) with l1 >= l2 >= |l3| and the sign of l3
    carrying det of the distortion; shift = (x, y, z) with x, y >= 0.
    Conjugating the source by u_out / u_in lands on the canonical matrix.
    """

    def __init__(self, lambdas, shift, u_in, u_out):
        self.lambdas = lambdas
        self.shift = shift
        self.u_in = u_in
        self.u_out = u_out

    def canonical_r(self):
        r = np.eye(4)
        r[1, 1], r[2, 2], r[3, 3] = self.lambdas
        r[1:, 0] = self.shift
        return r


def lu_normal_form(ch):
    """Diagonalize the distortion block by rotations on both sides.

    Uses the sign-aware SVD (both orthogonal factors forced into SO(3),
    pushing any reflection into the sign of the third singular value),
    then flips pairs of axes to make the first two shift components
    nonnegative. The claimed canonical matrix is rebuilt through actual
    unitary conjugations and verified before returning.
    """
    p = ptm(ch)
    u, s, vt = np.linalg.svd(p.lam)
    s = s.copy()
    if np.linalg.det(u) < 0:
        u = u.copy()
        u[:, 2] *= -1
        s[2] *= -1
    if np.linalg.det(vt) < 0:
        vt = vt.copy()
        vt[2, :] *= -1
        s[2] *= -1
    o_out = u.T
    o_in = vt.T
    t1 = o_out @ p.t
    # equal signed singular values leave a rotation freedom in their
    # plane; spend it moving the in-plane shift onto the earlier axis
    for i, j in ((1, 2), (0, 1)):
        if abs(s[i] - s[j]) > 1e-10 * max(s[0], 1.0):
            continue
        nrm = np.hypot(t1[i], t1[j])
        if nrm < 1e-13:
            continue
        c, sn = t1[i] / nrm, t1[j] / nrm
        rot = np.eye(3)
        rot[i, i] = rot[j, j] = c
        rot[i, j] = sn
        rot[j, i] = -sn
        o_out = rot @ o_out
        o_in = o_in @ rot.T
        t1 = rot @ t1
    # pairs of sign flips (proper rotations about coordinate axes) free
    # the signs of two shift components; make x and y nonnegative
    dvals = np.ones(3)
    if t1[0] < 0 and t1[1] < 0:
        dvals = np.array([-1.0, -1.0, 1.0])
    elif t1[0] < 0:
        dvals = np.array([-1.0, 1.0, -1.0])
    elif t1[1] < 0:
        dvals = np.array([1.0, -1.0, -1.0])
    t1 = dvals * t1
    # when x or y vanishes a further pair flip fixes the z sign for free
    if t1[2] < 0:
        if abs(t1[1]) <= 1e-13:
            dvals = np.array([1.0, -1.0, -1.0]) * dvals
            t1 = np.array([t1[0], -t1[1], -t1[2]])
        elif abs(t1[0]) <= 1e-13:
            dvals = np.array([-1.0, 1.0, -1.0]) * dvals
            t1 = np.array([-t1[0], t1[1], -t1[2]])
    d = np.diag(dvals)
    o_out = d @ o_out
    o_in = o_in @ d
    u_out = su2_from_so3(o_out)
    u_in = su2_from_so3(o_in)
    lambdas = (float(s[0]), float(s[1]), float(s[2]))
    shift = tuple(float(x) for x in t1)
    form = LuNormalForm(lambdas, shift, u_in, u_out)
    conj = channel.Channel([u_out @ k @ u_in for k in ch.kraus])
    if np.abs(ptm(conj).r - form.canonical_r()).max() > 1e-9:
        raise RuntimeError("normal-form reconstruction failed")
    return form


# --- SLOCC normal form -------------------------------------------------------

class SloccNormalForm:
    """Canonical form under invertible filterings on both sides.

    kind is "Generic" (diagonal distortion s = (s1, s2, s3)), "NonGeneric"
    (the one-parameter sphere-touching family, parameter x) or "Point"
    (everything maps to a single pure state). The channel action equals
    scale * b . form(a rho a^dag) . b^dag as linear maps.
    """

    def __init__(self, kind, a, b, scale, s=None, x=None):
        self.kind = kind
        self.a = a
        self.b = b
        self.scale = scale
        self.s = s
        self.x = x

    def template_r(self):
        if self.kind == "Generic":
            return np.diag([1.0, self.s[0], self.s[1], self.s[2]])
        if self.kind == "NonGeneric":
            r = np.diag([1.0, self.x / np.sqrt(3), self.x / np.sqrt(3),
                         1.0 / 3.0])
            r[3, 0] = 2.0 / 3.0
            return r
        r = np.zeros((4, 4))
        r[0, 0] = 1.0
        r[3, 0] = 1.0
        return r

    def reconstructed_r(self):
        return self.scale * (lorentz_from_sl2(self.b) @ self.template_r()
                             @ lorentz_from_sl2(self.a))


def _eta_complete(cols):
    """Extend eta-orthonormal spacelike-deficient columns to a full frame."""
    basis = list(cols)
    signs = [1.0] + [-1.0] * (len(cols) - 1)
    for cand in np.eye(4):
        if len(basis) == 4:
            break
        u = cand.copy()
        for s, b in zip(signs, basis):
            u = u - s * (b @ ETA @ u) * b
        nrm = u @ ETA @ u
        if nrm < -1e-10:
            basis.append(u / np.sqrt(-nrm))
            signs.append(-1.0)
    if len(basis) < 4:
        raise RuntimeError("could not complete the Lorentz frame")
    return np.stack(basis, axis=1)


def _slocc_generic(r, tol=1e-7):
    """Lorentz singular value decomposition r = L1 diag(sig) L2^T.

    Diagonalizes M = eta r^T eta r (eta-symmetric, so eigenvectors of
    distinct eigenvalues are automatically eta-orthogonal); degenerate
    groups are eta-orthonormalized through their real Gram matrix. Fails
    (returns None) whenever the spectrum is complex, a group Gram is
    degenerate (defective M), or the signature is not (+,-,-,-).
    """
    m = ETA @ r.T @ ETA @ r
    w, v = np.linalg.eig(m)
    scale = max(np.abs(w).max(), 1.0)
    if np.abs(w.imag).max() > 1e-9 * scale or np.abs(v.imag).max() > 1e-7:
        return None
    w = w.real
    v = v.real
    order = np.argsort(-w)
    w, v = w[order], v[:, order]
    if w.min() < -1e-9 * scale:
        return None
    cols, norms = [], []
    k = 0
    while k < 4:
        grp = [k]
        while grp[-1] + 1 < 4 and abs(w[grp[-1] + 1] - w[k]) <= tol * scale:
            grp.append(grp[-1] + 1)
        vg = v[:, grp]
        gram = vg.T @ ETA @ vg
        gw, gp = np.linalg.eigh(gram)
        if np.abs(gw).min() < 1e-9:
            return None
        basis = vg @ gp
        for i in range(len(grp)):
            cols.append(basis[:, i] / np.sqrt(abs(gw[i])))
            norms.append(np.sign(gw[i]))
        k = grp[-1] + 1
    norms = np.array(norms)
    if np.count_nonzero(norms > 0) != 1:
        return None
    tl = int(np.nonzero(norms > 0)[0][0])
    order = [tl] + [i for i in range(4) if i != tl]
    kmat = np.stack([cols[i] for i in order], axis=1)
    if kmat[0, 0] < 0:
        kmat[:, 0] *= -1
    wmat = r @ kmat
    sig = np.zeros(4)
    sig[0] = np.sqrt(max(wmat[:, 0] @ ETA @ wmat[:, 0], 0.0))
    for i in (1, 2, 3):
        sig[i] = np.sqrt(max(-(wmat[:, i] @ ETA @ wmat[:, i]), 0.0))
    if sig[0] < 1e-10:
        return None
    # sort the spacelike columns by singular value
    sp = 1 + np.argsort(-sig[1:])
    kmat = kmat[:, [0] + list(sp)]
    wmat = wmat[:, [0] + list(sp)]
    sig = sig[[0] + list(sp)]
    l1_cols = []
    for i in range(4):
        if sig[i] > 1e-9:
            l1_cols.append(wmat[:, i] / sig[i])
        else:
            sig[i] = 0.0
    l1 = _eta_complete(l1_cols) if len(l1_cols) < 4 else \
        np.stack(l1_cols, axis=1)
    l2 = ETA @ kmat @ ETA
    if np.linalg.det(l1) < 0:
        l1[:, 3] *= -1
        sig[3] *= -1
    if np.linalg.det(l2) < 0:
        l2[:, 3] *= -1
        sig[3] *= -1
    dd = np.diag(sig)
    if np.abs(l1 @ dd @ l2.T - r).max() > 1e-6:
        return None
    try:
        a = sl2_from_lorentz(l2.T)
        b = sl2_from_lorentz(l1)
    except ValueError:
        return None
    s = sig[1:] / sig[0]
    form = SloccNormalForm("Generic", a, b, float(sig[0]),
                           s=tuple(float(x) for x in s))
    if np.abs(form.reconstructed_r() - r).max() > 1e-6:
        return None
    return form


def _nongeneric_template(x):
    r = np.diag([1.0, x / np.sqrt(3), x / np.sqrt(3), 1.0 / 3.0])
    r[3, 0] = 2.0 / 3.0
    return r


def _slocc_nongeneric(r, seed):
    """Fit r ~ L(B) T(x) L(A) by seeded least squares.

    The eigenvalues of eta r^T eta r come in two pairs {c^2/3, c^2 x^2/3}
    (the first defective), which seeds x and the overall scale; the
    filters start near scaled identities plus random perturbations.
    """
    m = ETA @ r.T @ ETA @ r
    w = np.linalg.eigvals(m)
    wr = np.sort(np.abs(w))
    lo, hi = np.sqrt(wr[:2].prod()), np.sqrt(wr[2:].prod())
    guesses = []
    if hi > 1e-12:
        guesses.append((min(1.0, np.sqrt(lo / hi)), np.sqrt(3 * hi)))
        if lo > 1e-12:
            guesses.append((min(1.0, np.sqrt(hi / lo)), np.sqrt(3 * lo)))
    guesses.append((1.0, 1.0))
    guesses.append((0.5, 1.0))

    def unpack(p):
        a = (p[0:4] + 1j * p[4:8]).reshape(2, 2)
        b = (p[8:12] + 1j * p[12:16]).reshape(2, 2)
        return a, b, p[16]

    def resid(p):
        a, b, x = unpack(p)
        fit = lorentz_from_sl2(b) @ _nongeneric_template(x) \
            @ lorentz_from_sl2(a)
        return (fit - r).ravel()

    rng = np.random.default_rng(seed)
    eye = np.eye(2).reshape(-1)
    starts = []
    for x0, c0 in guesses:
        k = c0 ** 0.25
        base = np.concatenate([k * eye, np.zeros(4), k * eye, np.zeros(4),
                               [x0]])
        starts.append(base)
        for _ in range(3):
            pert = 0.2 * rng.normal(size=17)
            pert[16] = 0
            starts.append(base + pert)
    lower = np.full(17, -np.inf)
    upper = np.full(17, np.inf)
    lower[16], upper[16] = 0.0, 1.0
    for p0 in starts:
        sol = scipy.optimize.least_squares(resid, p0, bounds=(lower, upper),
                                           xtol=1e-14, ftol=1e-14, gtol=1e-14)
        if np.abs(sol.fun).max() > 1e-6:
            continue
        a, b, x = unpack(sol.x)
        da, db = np.linalg.det(a), np.linalg.det(b)
        if abs(da) < 1e-6 or abs(db) < 1e-6:
            continue
        scale = abs(da) * abs(db)
        form = SloccNormalForm("NonGeneric", a / np.sqrt(da), b / np.sqrt(db),
                               float(scale), x=float(x))
        if np.abs(form.reconstructed_r() - r).max() <= 1e-6:
            return form
    return None


def slocc_normal_form(ch, seed=0):
    """Classify a qubit channel under invertible filterings.

    Point is checked first (zero distortion, pure fixed output); then the
    Lorentz diagonalization (generic family); then the least-squares fit
    of the sphere-touching template. A channel fitting none of the three
    raises, since every qubit channel should land somewhere and a miss
    means the input deserves a look.
    """
    _require_qubit_tp(ch)
    p = ptm(ch)
    r = p.r
    if np.abs(p.lam).max() <= 1e-8 and abs(np.linalg.norm(p.t) - 1) <= 1e-8:
        t = p.t / np.linalg.norm(p.t)
        rho = (np.eye(2, dtype=complex) + t[0] * SX + t[1] * SY
               + t[2] * SZ) / 2
        w, v = numkit.eigh(rho)
        psi = v[:, -1]
        kern = scipy.linalg.null_space(psi.reshape(1, 2).conj())
        b = np.stack([psi, kern[:, 0]], axis=1)
        b = b / np.sqrt(np.linalg.det(b))
        form = SloccNormalForm("Point", np.eye(2, dtype=complex), b, 1.0)
        if np.abs(form.reconstructed_r() - r).max() <= 1e-6:
            return form
    form = _slocc_generic(r)
    if form is not None:
        return form
    form = _slocc_nongeneric(r, seed)
    if form is not None:
        return form
    raise RuntimeError("channel fits no filtering normal form within "
                       "tolerance; not classifiable here")


# --- extremal qubit channels -------------------------------------------------

class ExtremalQubitForm:
    """Two-angle form of an extremal qubit channel.

    Kraus operators are u @ diag(s0, s1) @ v^dag and
    u @ [[0, sqrt(1-s1^2)], [sqrt(1-s0^2), 0]] @ v^dag.
    """

    def __init__(self, alpha, beta, s0, s1, u, v):
        self.alpha = alpha
        self.beta = beta
        self.s0 = s0
        self.s1 = s1
        self.u = u
        self.v = v

    def kraus(self):
        a1 = np.diag([self.s0, self.s1]).astype(complex)
        a2 = np.array([[0, np.sqrt(max(1 - self.s1 ** 2, 0.0))],
                       [np.sqrt(max(1 - self.s0 ** 2, 0.0)), 0]],
                      dtype=complex)
        vd = self.v.conj().T
        return [self.u @ a1 @ vd, self.u @ a2 @ vd]

    def reconstruct(self):
        return channel.Channel(self.kraus(), require_tp=True)


def canonical_extremal(alpha, beta):
    """The canonical extremal channel at angles (alpha, beta).

    s0 = sqrt((1 - cos(alpha+beta))/2), s1 = sqrt((1 - cos(alpha-beta))/2);
    trace preservation holds for every angle pair. The identity sits at
    (pi, 0); sin(alpha) sin(beta) = 0 degenerates to a mixture of
    commuting unitaries, which is not extremal (unless it is unitary).
    """
    s0 = np.sqrt(max((1 - np.cos(alpha + beta)) / 2, 0.0))
    s1 = np.sqrt(max((1 - np.cos(alpha - beta)) / 2, 0.0))
    a1 = np.diag([s0, s1]).astype(complex)
    a2 = np.array([[0, np.sqrt(max(1 - s1 ** 2, 0.0))],
                   [np.sqrt(max(1 - s0 ** 2, 0.0)), 0]], dtype=complex)
    return channel.Channel([a1, a2], require_tp=True)


def _random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]])


def _rotation_between(a, b):
    """Minimal proper rotation sending unit vector a to unit vector b."""
    c = float(a @ b)
    v = np.cross(a, b)
    s = np.linalg.norm(v)
    if s < 1e-14:
        if c > 0:
            return np.eye(3)
        # antiparallel: rotate by pi about any perpendicular axis
        k = np.eye(3)[int(np.argmin(np.abs(a)))]
        axis = np.cross(a, k)
        axis /= np.linalg.norm(axis)
        return 2 * np.outer(axis, axis) - np.eye(3)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx * ((1 - c) / (s * s))


def _axis_rotation(axis, phi):
    axis = axis / np.linalg.norm(axis)
    kx = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                   [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(phi) * kx + (1 - np.cos(phi)) * (kx @ kx)


def _align_rotations(lam_c, t_c, lam_h, t_h):
    """Rotations with o_out lam_c o_in = lam_h and o_out t_c = t_h.

    The translation constraint pins o_out up to a rotation about the
    aligned axis; the leftover angle is a one-dimensional search, with
    the inner rotation solved in closed form (orthogonal Procrustes) at
    every angle. Returns (o_out, o_in) or None.
    """
    nc, nh = np.linalg.norm(t_c), np.linalg.norm(t_h)
    if abs(nc - nh) > 1e-8:
        return None

    if nc < 1e-10:
        # no translation: plain alternating Procrustes from a few starts
        for o_in in [np.eye(3), np.diag([1.0, -1.0, -1.0]),
                     np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]:
            for _ in range(100):
                o_out = _proj_so3(lam_h @ (lam_c @ o_in).T)
                o_in = _proj_so3((o_out @ lam_c).T @ lam_h)
            if np.abs(o_out @ lam_c @ o_in - lam_h).max() < 1e-11:
                return o_out, o_in
        return None

    def check(o_out):
        n = (o_out @ lam_c).T @ lam_h
        u_, _, vt_ = np.linalg.svd(n)
        for d3 in (1.0, -1.0):
            o_in = u_ @ np.diag([1.0, 1.0, d3]) @ vt_
            if np.linalg.det(o_in) < 0:
                continue
            if np.abs(o_out @ lam_c @ o_in - lam_h).max() < 1e-11:
                return o_in
        return None

    sh = lam_h @ lam_h.T
    dc = np.einsum('ij,ij->i', lam_c, lam_c)
    wh, eh = np.linalg.eigh(sh)
    order = np.argsort(dc)
    if np.abs(dc[order] - wh).max() > 1e-6:
        return None
    gaps = np.diff(dc[order])
    if gaps.min() > 1e-7:
        # distinct spectra: o_out maps eigenvectors to eigenvectors, so
        # only the eight sign choices remain
        ec = np.eye(3)[:, order]
        for signs in ([1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1],
                      [-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]):
            o_out = eh @ np.diag(np.asarray(signs, dtype=float)) @ ec.T
            if abs(np.linalg.det(o_out) - 1) > 1e-6:
                continue
            if np.abs(o_out @ t_c - t_h).max() > 1e-8:
                continue
            o_in = check(o_out)
            if o_in is not None:
                return o_out, o_in
        return None

    # degenerate spectra leave a continuum of solutions; the leftover
    # angle about the aligned translation axis is a wide valley that a
    # grid plus local polishing finds reliably
    base = _rotation_between(t_c / nc, t_h / nh)
    axis = t_h / nh

    def residual(phi):
        o_out = _axis_rotation(axis, phi) @ base
        o_in = _proj_so3((o_out @ lam_c).T @ lam_h)
        err = np.abs(o_out @ lam_c @ o_in - lam_h).max()
        return err, o_out, o_in

    m = 1440
    grid = np.linspace(0, 2 * np.pi, m, endpoint=False)
    vals = np.array([residual(phi)[0] for phi in grid])
    width = grid[1] - grid[0]
    local = [i for i in range(m)
             if vals[i] <= vals[i - 1] and vals[i] <= vals[(i + 1) % m]]
    local.sort(key=lambda i: vals[i])
    for idx in local[:24]:
        res = scipy.optimize.minimize_scalar(
            lambda phi: residual(phi)[0],
            bounds=(grid[idx] - width, grid[idx] + width), method="bounded",
            options={"xatol": 1e-15})
        err, o_out, o_in = residual(res.x)
        if err < 1e-11:
            return o_out, o_in
    return None


def extremal_form_of(ch):
    """Recover (alpha, beta, u, v) for an extremal rank <= 2 qubit channel.

    The distortion singular values of the canonical family are
    {|cos a|, |cos b|, |cos a cos b|}, so the angle candidates come from
    the two largest singular values with free signs; each candidate is
    aligned to the channel by rotation fitting and accepted only if the
    rebuilt Choi matrix matches to 1e-9.
    """
    from . import extremal as extremal_mod
    _require_qubit_tp(ch)
    ks = channel.kraus_from_choi(ch.choi_pair)
    if len(ks) > 2:
        raise ValueError("channel has rank %d > 2" % len(ks))
    if len(ks) == 1:
        u = ks[0]
        form = ExtremalQubitForm(np.pi, 0.0, 1.0, 1.0, u,
                                 np.eye(2, dtype=complex))
        if np.abs(form.reconstruct().choi - ch.choi).max() > 1e-9:
            raise RuntimeError("unitary reconstruction failed")
        return form
    if not extremal_mod.is_extremal_tp(ch):
        raise ValueError("channel is not extremal")
    p = ptm(ch)
    l = numkit.svd(p.lam)[1]
    seen = set()
    for mags in ((l[0], l[1]), (l[1], l[0])):
        for sa in (1.0, -1.0):
            for sb in (1.0, -1.0):
                ca = float(np.clip(sa * mags[0], -1, 1))
                cb = float(np.clip(sb * mags[1], -1, 1))
                key = (round(ca, 12), round(cb, 12))
                if key in seen:
                    continue
                seen.add(key)
                alpha, beta = np.arccos(ca), np.arccos(cb)
                cand = canonical_extremal(alpha, beta)
                pc = ptm(cand)
                # translation length is rotation invariant
                if abs(np.linalg.norm(pc.t) - np.linalg.norm(p.t)) > 1e-7:
                    continue
                fit = _align_rotations(pc.lam, pc.t, p.lam, p.t)
                if fit is None:
                    continue
                o_out, o_in = fit
                u = su2_from_so3(o_out)
                vd = su2_from_so3(o_in)
                s0 = np.sqrt(max((1 - np.cos(alpha + beta)) / 2, 0.0))
                s1 = np.sqrt(max((1 - np.cos(alpha - beta)) / 2, 0.0))
                form = ExtremalQubitForm(float(alpha), float(beta),
                                         float(s0), float(s1),
                                         u, vd.conj().T)
                if np.abs(form.reconstruct().choi - ch.choi).max() <= 1e-9:
                    return form
    raise RuntimeError("no canonical angle pair reproduces the channel")


# --- concurrence and decompositions ------------------------------------------

def concurrence(rho):
    """Wootters concurrence of a two-qubit state.

    Computed from the singular values of X^T (sy x sy) X with X a square
    root of rho: C = max(0, sig1 - sig2 - sig3 - sig4).
    """
    rho = numkit.require_density(rho, 4)[0]
    x = numkit.sqrt_psd(rho, tol=1e-13)
    sig = numkit.svd(x.T @ SFLIP @ x)[1]
    if sig.size == 0:
        return 0.0
    return float(max(0.0, 2 * sig[0] - sig.sum()))


def _closing_phases(sig):
    """Phases phi with sum_k sig_k exp(2i phi_k) = 0.

    Exists whenever no sigma exceeds the sum of the others: split into
    three groups with balanced sums (greedy), then close the triangle of
    group sums by the law of cosines.
    """
    r = sig.size
    groups = [[], [], []]
    sums = np.zeros(3)
    for k in np.argsort(-sig):
        j = int(np.argmin(sums))
        groups[j].append(k)
        sums[j] += sig[k]
    a, b, c = sums
    if a > b + c + 1e-12:
        raise ValueError("no closing phases exist")
    if a < 1e-15:
        return np.zeros(r)
    # triangle with sides a, b, c; zero-length sides need no angle
    if b < 1e-15 and c < 1e-15:
        return np.zeros(r)
    if c < 1e-15:
        ang = np.array([0.0, np.pi, 0.0])
    else:
        cos_g = np.clip((a * a + b * b - c * c) / (2 * a * b), -1, 1)
        v1 = a
        v2 = b * np.exp(1j * (np.pi - np.arccos(cos_g)))
        v3 = -(v1 + v2)
        ang = np.array([0.0, np.angle(v2), np.angle(v3)])
    phases = np.zeros(r)
    for j in range(3):
        for k in groups[j]:
            phases[k] = ang[j] / 2
    return phases


def _zero_diagonal_rotation(k):
    """Orthogonal O with diag(O^T K O) = 0 for real symmetric traceless K.

    Each two-plane rotation pairs the largest-magnitude diagonal entry
    with one of strictly opposite sign and zeroes the former exactly;
    previously zeroed entries are never touched again, so at most
    dim - 1 rotations run.
    """
    k = k.copy()
    r = k.shape[0]
    o = np.eye(r)
    for _ in range(r):
        d = np.diag(k).real.copy()
        a = int(np.argmax(np.abs(d)))
        if abs(d[a]) <= 1e-12:
            break
        opp = [i for i in range(r) if i != a and d[i] * d[a] < 0]
        if not opp:
            break
        b = opp[int(np.argmax([abs(d[i]) for i in opp]))]
        kaa, kbb, kab = k[a, a].real, k[b, b].real, k[a, b].real
        disc = np.sqrt(max(kab * kab - kaa * kbb, 0.0))
        roots = [(-kab + disc) / kbb, (-kab - disc) / kbb]
        t = min(roots, key=abs)
        cth = 1.0 / np.sqrt(1 + t * t)
        sth = t * cth
        rot = np.eye(r)
        rot[a, a] = rot[b, b] = cth
        rot[a, b] = -sth
        rot[b, a] = sth
        k = rot.T @ k @ rot
        k[a, a] = 0.0
        o = o @ rot
    return o


class ConcurrenceDecomp:
    """A decomposition into pure states of one common concurrence.

    weights/states describe rho = sum_i w_i |psi_i><psi_i|; for the
    channel form, contraction holds the diagonal core, pairs the (U, V)
    unitaries and kraus the assembled operators.
    """

    def __init__(self, c, weights, states, contraction=None, pairs=None,
                 kraus=None):
        self.c = c
        self.weights = weights
        self.states = states
        self.contraction = contraction
        self.pairs = pairs
        self.kraus = kraus


def equal_concurrence_decomposition(rho):
    """Split a two-qubit state into pure states of equal concurrence.

    Square root, Takagi rotation to diagonal preconcurrence, then either
    the phase trick plus exact diagonal-zeroing rotations (entangled
    case) or closing phases plus a Hadamard frame (separable case, where
    rank 3 is handled by zero-padding to the 4x4 Hadamard).
    """
    rho = numkit.require_density(rho, 4)[0]
    x = numkit.sqrt_psd(rho, tol=1e-13)
    r = x.shape[1]
    v, sig = numkit.takagi(x.T @ SFLIP @ x)
    xp = x @ v.conj()
    c = float(max(0.0, 2 * sig[0] - sig.sum())) if sig.size else 0.0
    if c > 1e-12:
        phases = np.ones(r, dtype=complex)
        phases[1:] = 1j
        xpp = xp * phases
        dtil = sig.copy()
        dtil[1:] *= -1
        kmat = np.diag(dtil) - c * (xpp.conj().T @ xpp).real
        o = _zero_diagonal_rotation(kmat)
        z = xpp @ o
    else:
        c = 0.0
        phases = _closing_phases(sig)
        xpp = xp * np.exp(1j * phases)
        if r == 3:
            xpp = np.hstack([xpp, np.zeros((4, 1), dtype=complex)])
        k = xpp.shape[1]
        had = np.array([[1.0]]) if k == 1 else scipy.linalg.hadamard(k) \
            / np.sqrt(k)
        z = xpp @ had
    weights, states = [], []
    for i in range(z.shape[1]):
        w = float(np.linalg.norm(z[:, i]) ** 2)
        if w < 1e-14:
            continue
        weights.append(w)
        states.append(z[:, i] / np.sqrt(w))
    return ConcurrenceDecomp(c, weights, states)


def kraus_contraction_form(ch):
    """Kraus operators of the shape sqrt(2 w_i) U_i C~ V_i.

    C~ = diag(sqrt(1+C)+sqrt(1-C), sqrt(1+C)-sqrt(1-C))/2 with C the
    concurrence of the dual state; for C = 0 the core has rank one and
    every Kraus operator is a scaled rank-one projector-like matrix. The
    assembled channel is verified against the source action.
    """
    _require_qubit_tp(ch)
    dec = equal_concurrence_decomposition(ch.jam)
    cval = dec.c
    core = 0.5 * np.diag([np.sqrt(1 + cval) + np.sqrt(1 - cval),
                          np.sqrt(1 + cval) - np.sqrt(1 - cval)])
    pairs, ops = [], []
    for w, psi in zip(dec.weights, dec.states):
        kop = np.sqrt(2 * w) * psi.reshape(2, 2).T
        u, s, v = numkit.svd(kop)
        expect = np.sqrt(2 * w) * np.diag(core)
        # near C = 1 the analytic core is sqrt-sensitive, hence the loose
        # structural tolerance; the emitted operators stay exact
        if np.abs(s - expect).max() > 1e-7:
            raise RuntimeError("contraction singular values off target")
        pairs.append((u, v.conj().T))
        ops.append(kop)
    rebuilt = channel.Channel(ops)
    if np.abs(rebuilt.choi - ch.choi).max() > 1e-9:
        raise RuntimeError("contraction form does not reproduce the channel")
    return ConcurrenceDecomp(cval, dec.weights, dec.states,
                             contraction=core, pairs=pairs, kraus=ops)


# --- entanglement breaking and fidelity --------------------------------------

def is_entanglement_breaking(ch, tol=1e-9):
    """Whether the channel output is always separable.

    True when the dual state's partial transpose has no eigenvalue below
    -max(tol, 1e-9); for two qubits a positive partial transpose is
    exactly separability. Channels within the band of the threshold
    count as breaking.
    """
    _require_qubit_tp(ch)
    ptmin = numkit.eigh(numkit.partial_transpose(ch.jam, 2, 2, 1))[0][0]
    return bool(ptmin >= -max(tol, 1e-9))


def can_distribute_entanglement(ch):
    """Whether any input can push entanglement through the channel.

    True exactly when the largest dual-state eigenvalue exceeds 1/2.
    """
    _require_qubit_tp(ch)
    return float(numkit.eigh(ch.jam)[0][-1]) > 0.5 + 1e-12


def _swap(n):
    p = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            p[j * n + i, i * n + j] = 1
    return p


def max_entanglement_fidelity(ch):
    """Best overlap with the maximally entangled state across one side.

    The value is the largest eigenvalue of the dual state; the achieving
    input is the swap-conjugate of its eigenvector. The pair is verified
    by direct evaluation before returning.
    """
    if not channel.is_tp(ch):
        raise ValueError("channel is not trace-preserving")
    n = ch.dim
    w, v = numkit.eigh(ch.jam)
    f = float(w[-1])
    chi = _swap(n) @ v[:, -1].conj()
    rho = np.outer(chi, chi.conj())
    out = np.zeros((n * n, n * n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for a in ch.kraus:
        ext = numkit.kron(eye, a)
        out += ext @ rho @ ext.conj().T
    phi = np.zeros(n * n, dtype=complex)
    for i in range(n):
        phi[i * n + i] = 1 / np.sqrt(n)
    direct = float((phi.conj() @ out @ phi).real)
    if abs(direct - f) > 1e-10:
        raise RuntimeError("fidelity eigenvector failed direct evaluation")
    return f, chi
