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

import itertools

import numpy as np

from . import numkit, channel, extremal
from .numkit import PAULIS, SX, SY, SZ

_PAULI_VEC = PAULIS.reshape(4, 4).T  # columns vec(sigma_i); inverse: adj / 2
_FILTER_TOL = 1e-8  # relative residual of a filter's rebuilt Lorentz matrix
_TIE_TOL = 1e-7  # relative gap of tied eigenvalues of eta r^T eta r
_REBUILD_TOL = 1e-6  # a filtering normal form's rebuild of r, times its scale
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


def ptm(ch):
    """Bloch-picture matrix r[i, j] = Tr(sigma_i Phi(sigma_j)) / 2.

    Read from the channel action on the Pauli basis, summed over the
    Kraus operators in one contraction.
    """
    _require_qubit_tp(ch)
    return Ptm(_pauli_action(np.asarray(ch.kraus)))


def _pauli_action(ks):
    """Pauli-coordinate matrix of rho -> sum_k K_k rho K_k^dag."""
    return 0.5 * np.einsum('iab,kbc,jcd,kad->ij', PAULIS, ks, PAULIS,
                           ks.conj()).real


def ellipsoid(ch):
    """Image of the Bloch sphere: (center, semi_axes, orientation).

    center is the translation, semi_axes the singular values of the
    distortion block, orientation a proper rotation whose columns carry
    the axes; points are orientation @ diag(semi_axes) @ u + center.
    """
    p = ptm(ch)
    u, s = np.linalg.svd(p.lam)[:2]
    if np.linalg.det(u) < 0:
        u[:, 2] *= -1
    return p.t.copy(), s, u


# --- rotation / boost dictionaries -----------------------------------------

def lorentz_from_sl2(f):
    """The real 4x4 action of rho -> F rho F^dag on Pauli coordinates."""
    return _pauli_action(np.asarray(f, dtype=complex)[None])


def _lorentz_jacobian(f):
    """Derivatives of lorentz_from_sl2(f), shape (4, 4, 8).

    The last axis runs over Re f (row-major), then Im f; the entry
    0.5 Re Tr(sigma_i f sigma_j f^dag) moves by Re Tr(sigma_i E sigma_j
    f^dag) along a step E.
    """
    g = np.einsum('iak,jld,ad->ijkl', PAULIS, PAULIS,
                  f.conj()).reshape(4, 4, 4)
    return np.concatenate([g.real, -g.imag], axis=2)


def sl2_from_lorentz(l):
    """Invert lorentz_from_sl2 for a proper orthochronous Lorentz matrix.

    In matrix-entry coordinates the map is F (x) conj(F); reshuffling its
    16 entries gives the rank-one matrix vec(F) vec(F)^dag, whose top
    eigenvector recovers F. The result is normalized to det F = 1 (the
    overall sign stays ambiguous, which conjugation cannot see). F must
    rebuild l within _FILTER_TOL.
    """
    l = np.asarray(l, dtype=float)
    f = _sl2_nearest(l)
    if np.abs(lorentz_from_sl2(f) - l).max() > _FILTER_TOL * max(
            np.abs(l).max(), 1.0):
        raise ValueError("matrix is not a conjugation action within "
                         "tolerance")
    return f


def _sl2_nearest(l):
    """The filter of sl2_from_lorentz, before its reconstruction check."""
    g = _PAULI_VEC @ l @ (_PAULI_VEC.conj().T / 2)
    h = g.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    f = v[:, -1] * np.sqrt(max(w[-1], 0.0))
    f = f.reshape(2, 2)
    det = np.linalg.det(f)
    if abs(det) < 1e-12:
        raise ValueError("matrix is not the conjugation action of any "
                         "invertible filter")
    return f / np.sqrt(det)


def so3_from_su2(u):
    """Bloch rotation of the unitary conjugation rho -> U rho U^dag."""
    return lorentz_from_sl2(u)[1:, 1:]


def su2_from_so3(o):
    """A unitary whose conjugation realizes the given rotation."""
    o = np.asarray(o, dtype=float)
    l = np.eye(4)
    l[1:, 1:] = o
    u = sl2_from_lorentz(l)
    if np.abs(u @ u.conj().T - np.eye(2)).max() > _FILTER_TOL:
        raise ValueError("matrix is not a rotation")
    return u


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
    sx, sy = np.where(t1[:2] < 0, -1.0, 1.0)
    dvals = np.array([sx, sy, sx * sy])
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
    conj = _pauli_action(u_out @ np.asarray(ch.kraus) @ u_in)
    if np.abs(conj - form.canonical_r()).max() > 1e-9:
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
    """Eta-orthonormalize columns, the first timelike and the rest
    spacelike, and extend them to a full frame from the coordinate axes.

    Gram-Schmidt in the eta metric keeps the frame a Lorentz matrix to
    rounding when the columns are only nearly orthonormal; a degenerate
    column is skipped. Returns None when the axes cannot complete it.
    """
    basis, signs = [], []
    for u in list(cols) + list(np.eye(4)):
        if len(basis) == 4:
            break
        for s, b in zip(signs, basis):
            u = u - s * (b @ ETA @ u) * b
        sign = -1.0 if basis else 1.0
        nrm = sign * (u @ ETA @ u)
        if nrm > 1e-10:
            basis.append(u / np.sqrt(nrm))
            signs.append(sign)
    if len(basis) < 4:
        return None
    return np.stack(basis, axis=1)


def _slocc_point(r):
    """The Point form of r, if it sends every state to one pure state."""
    t = r[1:, 0]
    if np.abs(r[1:, 1:]).max() > 1e-8 or abs(np.linalg.norm(t) - 1) > 1e-8:
        return None
    psi = numkit.eigh(numkit.bloch_state(t / np.linalg.norm(t)))[1][:, -1]
    perp = numkit.svd(psi.reshape(1, 2).conj())[2][:, 1]
    b = np.stack([psi, perp], axis=1)
    b = b / np.sqrt(np.linalg.det(b))
    return SloccNormalForm("Point", np.eye(2, dtype=complex), b, 1.0)


def _slocc_generic(r):
    """Lorentz singular value decomposition r = L1 diag(sig) L2^T.

    Diagonalizes M = eta r^T eta r (eta-symmetric, so eigenvectors of
    distinct eigenvalues are automatically eta-orthogonal); each group of
    eigenvalues equal within _TIE_TOL spans the real part of its
    eigenspace, [Re v, Im v] (eig may return complex vectors inside a
    degenerate real eigenspace), and is eta-orthonormalized through its
    real Gram matrix. Eigenvalue cuts are relative to the Lorentz scale,
    the largest |eigenvalue| of M, and singular-value cuts to its square
    root. Fails (returns None) whenever the spectrum is complex, a group
    Gram is degenerate (defective M), or the signature is not (+,-,-,-);
    the caller checks the rebuild.
    """
    m = ETA @ r.T @ ETA @ r
    w, v = np.linalg.eig(m)
    scale = np.abs(w).max()
    if np.abs(w.imag).max() > 1e-9 * scale:
        return None
    w = w.real
    order = np.argsort(-w)
    w, v = w[order], v[:, order]
    if w.min() < -1e-9 * scale:
        return None
    cols, norms = [], []
    k = 0
    while k < 4:
        grp = [k]
        while (grp[-1] + 1 < 4
               and abs(w[grp[-1] + 1] - w[k]) <= _TIE_TOL * scale):
            grp.append(grp[-1] + 1)
        vg = v[:, grp]
        vg = np.linalg.svd(np.hstack([vg.real, vg.imag]))[0][:, :len(grp)]
        gram = vg.T @ ETA @ vg
        gw, gp = np.linalg.eigh(gram)
        if np.abs(gw).min() < 1e-9:
            return None
        basis = vg @ gp / np.sqrt(np.abs(gw))
        if len(grp) > 1 and gw.max() < 0:
            # eigenvalues tied within the cut can still differ: turn a
            # spacelike group onto the singular directions of r within it
            wg = r @ basis
            basis = basis @ np.linalg.eigh(wg.T @ ETA @ wg)[1]
        cols.extend(basis.T)
        norms.extend(np.sign(gw))
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
    sig = np.sqrt(np.maximum(np.diag(ETA) * np.diag(wmat.T @ ETA @ wmat),
                             0.0))
    if sig[0] <= 1e-10 * np.sqrt(scale):
        return None
    # sort the spacelike columns by singular value
    sp = 1 + np.argsort(-sig[1:])
    kmat = kmat[:, [0] + list(sp)]
    wmat = wmat[:, [0] + list(sp)]
    sig = sig[[0] + list(sp)]
    l1_cols = []
    for i in range(4):
        if sig[i] > 1e-9 * np.sqrt(scale):
            l1_cols.append(wmat[:, i] / sig[i])
        else:
            sig[i] = 0.0
    l1 = _eta_complete(l1_cols)
    if l1 is None:
        return None
    l2 = ETA @ kmat @ ETA
    if np.linalg.det(l1) < 0:
        l1[:, 3] *= -1
        sig[3] *= -1
    if np.linalg.det(l2) < 0:
        l2[:, 3] *= -1
        sig[3] *= -1
    try:
        a = sl2_from_lorentz(l2.T)
        b = sl2_from_lorentz(l1)
    except ValueError:
        return None
    s = sig[1:] / sig[0]
    return SloccNormalForm("Generic", a, b, float(sig[0]),
                           s=tuple(float(x) for x in s))


def _slocc_nongeneric(r):
    """Build r = scale L(B) T(x) L(A) from the Jordan structure of r.

    For the template T(x), S = r^T eta r equals mu eta + (2 scale^2/9)
    m m^T + (mu - nu) P with mu = scale^2/3, nu = mu x^2, the null vector
    m = L(A)^T (e0 - e3) and P = p1 p1^T + p2 p2^T, p_i = L(A)^T e_i. So
    M = eta S has the defective eigenvalue mu and the semisimple double
    eigenvalue nu, whose eigenspace is eta span(p1, p2). nu is the mean of
    the eigenvalue pair that leaves S - nu eta of rank two and mu the mean
    of the other pair (a defective eigenvalue alone is only good to
    sqrt(eps)). Both frames are built, from the eigenvalue pairs and at
    x = 1 (all four eigenvalues at their mean), and the one that rebuilds
    r better is kept. Near x = 1, or under ill-conditioned filters, both
    can blur: only when the better one misses r by more than 1e-10 do
    Gauss-Newton steps polish both. Returns the form, unchecked, or None.
    """
    s = r.T @ ETA @ r
    w = np.linalg.eigvals(ETA @ s)
    half = w.real.mean()
    # rounding splits the defective mu by up to sqrt(eps), or not at all,
    # so neither order nor closeness pairs the eigenvalues; but S - nu eta
    # has rank two and S - mu eta rank three
    lams = np.array([(w[i] + w[j]).real / 2
                     for i, j in itertools.combinations(range(4), 2)])
    nu = lams[np.argmin(np.sort(np.abs(np.linalg.eigvalsh(
        s - lams[:, None, None] * ETA)), axis=1)[:, 1])]
    forms = [f for f in (_nongeneric_frame(r, s, half, True),
                         _nongeneric_frame(r, s, 2 * half - nu, False))
             if f is not None]
    if not forms:
        return None
    misses = [_rebuild_miss(f, r) for f in forms]
    if min(misses) > 1e-10:
        forms = [_polish_frame(r, f) for f in forms]
        misses = [_rebuild_miss(f, r) for f in forms]
    return forms[int(np.argmin(misses))]


def _nongeneric_frame(r, s, mu, unit_x):
    """The non-generic form of r for mu = scale^2/3, at x = 1 if unit_x.

    S - mu eta = Y Y^T with Y = [c m, d p1, d p2], c^2 = 2 scale^2/9 and
    d^2 = mu - nu, and Y^T eta Y = diag(0, -d^2, -d^2) separates m from
    the p's and gives x. At x = 1 (d = 0) m is the top eigenvector and any
    p's eta-orthogonal to it serve. With the null partner q of m (m^T eta
    q = 2, q eta-orthogonal to the p's) the frame is L(A)^T = [(q+m)/2,
    p1, p2, (q-m)/2], and L(B) follows from r L(A)^-1 = scale L(B) T(x),
    or from an eta-completion turned onto it when x is too small to
    invert. Returns the unchecked form, or None.
    """
    if mu <= 0:
        return None
    scale = np.sqrt(3 * mu)
    kw, kv = np.linalg.eigh(s - mu * ETA)
    x = 1.0
    if unit_x:
        m = kv[:, -1] * np.sqrt(max(kw[-1], 0.0) * 4.5) / scale
        p = None
    else:
        y = kv[:, 1:] * np.sqrt(np.clip(kw[1:], 0.0, None))
        gw, gv = np.linalg.eigh(y.T @ ETA @ y)
        if gw[1] >= 0:
            return None
        p = y @ gv[:, :2] / np.sqrt(-gw[:2])
        m = y @ gv[:, 2] * np.sqrt(4.5) / scale
        x = float(np.sqrt(np.clip(1 + gw[:2].mean() / mu, 0.0, 1.0)))
    if m[0] < 0:
        m = -m
    if m[0] < 1e-12:
        return None
    if p is None:
        p = _eta_complete([np.eye(4)[0],
                           np.concatenate([[0.0], m[1:] / m[0]])])[:, 2:]
    # q = alpha k + beta m, with k the part of e0 eta-orthogonal to the p's
    k = np.eye(4)[0] + p @ (p.T @ ETA[:, 0])
    alpha = 2.0 / (m @ ETA @ k)
    q = alpha * k - (alpha * (k @ ETA @ k) / (2 * (k @ ETA @ m))) * m
    fa = np.stack([(q + m) / 2, p[:, 0], p[:, 1], (q - m) / 2], axis=1)
    if np.linalg.det(fa) < 0:
        fa[:, 2] *= -1
    rl = r @ ETA @ fa @ ETA / scale
    b3 = 3 * rl[:, 3]
    b0 = rl[:, 0] - 2 * rl[:, 3]
    fb = _eta_complete([b0, b3])
    if fb is None:
        return None
    # rl[:, 1:3] is x / sqrt(3) times the completing pair, turned: its
    # block reads x linearly (the eigenvalues give it to sqrt(eps)), and
    # the inversion amplifies rounding by 1/x
    u, sv, vt = np.linalg.svd(fb[:, 2:].T @ -ETA @ rl[:, 1:3])
    x_s = float(np.sqrt(3) * sv.mean())
    if min(x, x_s) >= np.sqrt(np.finfo(float).eps):
        fb = np.column_stack([b0, rl[:, 1:3] * (np.sqrt(3) / x), b3])
    else:
        x, fb = x_s, np.column_stack([b0, fb[:, 2:] @ u @ vt, b3])
        if np.linalg.det(fb) < 0:
            fb[:, 2] *= -1
    try:
        return SloccNormalForm("NonGeneric", _sl2_nearest(fa.T),
                               _sl2_nearest(fb), float(scale), x=x)
    except ValueError:
        return None


def _polish_frame(r, form):
    """Gauss-Newton steps on r - L(b) T(x) L(a), from the given form.

    The filters carry the scale (each times scale^(1/4)) and x stays in
    [0, 1]; the Jacobian is analytic and the steps are minimum-norm
    least-squares solutions, since the template's symmetries leave it
    rank deficient. Steps stop when the residual stops falling; a form
    that takes no step comes back unchanged. Returns the normalized form.
    """
    k = form.scale ** 0.25
    fit = SloccNormalForm("NonGeneric", k * form.a, k * form.b, 1.0,
                          x=form.x)
    dt = np.diag([0.0, 1.0, 1.0, 0.0]) / np.sqrt(3)
    res = fit.reconstructed_r() - r
    for steps in range(50):
        la, lb = lorentz_from_sl2(fit.a), lorentz_from_sl2(fit.b)
        t = fit.template_r()
        jac = np.concatenate(
            [np.einsum('ij,jkp->ikp', lb @ t, _lorentz_jacobian(fit.a)),
             np.einsum('ijp,jk->ikp', _lorentz_jacobian(fit.b), t @ la),
             (lb @ dt @ la)[:, :, None]], axis=2).reshape(16, 17)
        step = np.linalg.lstsq(jac, res.ravel(), rcond=None)[0]
        trial = SloccNormalForm(
            "NonGeneric", fit.a - (step[0:4] + 1j * step[4:8]).reshape(2, 2),
            fit.b - (step[8:12] + 1j * step[12:16]).reshape(2, 2), 1.0,
            x=float(np.clip(fit.x - step[16], 0.0, 1.0)))
        trial_res = trial.reconstructed_r() - r
        if np.linalg.norm(trial_res) >= np.linalg.norm(res):
            break
        fit, res = trial, trial_res
    if steps == 0:
        return form
    da, db = np.linalg.det(fit.a), np.linalg.det(fit.b)
    return SloccNormalForm("NonGeneric", fit.a / np.sqrt(da),
                           fit.b / np.sqrt(db), float(abs(da) * abs(db)),
                           x=fit.x)


def _rebuild_miss(form, r):
    """Largest entry of the form's rebuilt r minus r."""
    return np.abs(form.reconstructed_r() - r).max()


def slocc_normal_form(ch):
    """Classify a qubit channel under invertible filterings.

    Point is tried first (zero distortion, pure fixed output); then the
    Lorentz diagonalization (generic family); then the sphere-touching
    template, built from the Jordan structure of r^T eta r. Each answer is
    constructed, with no seed and no search (a non-generic frame that
    rounding blurs is polished by Gauss-Newton steps from where it
    stands); the first that rebuilds r within _REBUILD_TOL times its
    scale wins. Every qubit channel should land somewhere, so a channel
    fitting none of the three raises.
    """
    _require_qubit_tp(ch)
    r = ptm(ch).r
    for build in (_slocc_point, _slocc_generic, _slocc_nongeneric):
        form = build(r)
        if form is not None and (_rebuild_miss(form, r)
                                 <= _REBUILD_TOL * form.scale):
            return form
    raise RuntimeError("channel fits no filtering normal form within "
                       "tolerance; not classifiable here")


# --- extremal qubit channels -------------------------------------------------

class ExtremalQubitForm:
    """Two-angle form of an extremal qubit channel.

    Kraus operators are u @ diag(s0, s1) @ v^dag and
    u @ [[0, c1], [c0, 0]] @ v^dag with s0, c0 = |sin|, |cos| of
    (alpha + beta) / 2 and s1, c1 = |sin|, |cos| of (alpha - beta) / 2.
    Half angles keep each entry to rounding; sqrt(1 - s^2) and
    sqrt((1 - cos) / 2) would lose digits near s = 1 and cos = 1.
    """

    def __init__(self, alpha, beta, u, v):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.s0 = abs(float(np.sin((self.alpha + self.beta) / 2)))
        self.s1 = abs(float(np.sin((self.alpha - self.beta) / 2)))
        self.u = u
        self.v = v

    def kraus(self):
        c0 = abs(np.cos((self.alpha + self.beta) / 2))
        c1 = abs(np.cos((self.alpha - self.beta) / 2))
        a1 = np.diag([self.s0, self.s1]).astype(complex)
        a2 = np.array([[0, c1], [c0, 0]], dtype=complex)
        vd = self.v.conj().T
        return [self.u @ a1 @ vd, self.u @ a2 @ vd]

    def reconstruct(self):
        return channel.Channel(self.kraus(), require_tp=True)


def canonical_extremal(alpha, beta):
    """The canonical extremal channel at angles (alpha, beta).

    s0 = |sin((alpha+beta)/2)|, s1 = |sin((alpha-beta)/2)|; trace
    preservation holds for every angle pair. For alpha <= beta and
    alpha + beta <= pi the distortion is diag(cos a, -cos b, -cos a cos b)
    and the translation (0, 0, sin a sin b). The identity sits at
    (pi, 0); sin(alpha) sin(beta) = 0 degenerates to a mixture of
    commuting unitaries, which is not extremal (unless it is unitary).
    """
    eye = np.eye(2, dtype=complex)
    return ExtremalQubitForm(alpha, beta, eye, eye).reconstruct()


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


def extremal_form_of(ch):
    """Recover (alpha, beta, u, v) for an extremal rank <= 2 qubit channel.

    The rotations are read off the LU normal form, which for a rank-2
    extremal channel is the two-angle form with alpha <= pi/2 <= beta and
    alpha + beta <= pi: lambdas (cos a, -cos b, -cos a cos b), shift
    (0, 0, sin a sin b). Where singular values tie, LU leaves the shift
    on the earlier of the tied axes; the minimal rotation R taking the
    shift onto z mixes only those axes, so diag(lambdas) conjugated by R
    still gives cos a and -cos b on its diagonal. The rebuilt Choi matrix
    must match to 1e-9.
    """
    _require_qubit_tp(ch)
    ks = channel.minimal_kraus(ch)
    if len(ks) > 2:
        raise ValueError("channel has rank %d > 2" % len(ks))
    if len(ks) == 1:
        form = ExtremalQubitForm(np.pi, 0.0, ks[0], np.eye(2, dtype=complex))
        if np.abs(form.reconstruct().choi - ch.choi).max() > 1e-9:
            raise RuntimeError("unitary reconstruction failed")
        return form
    if not extremal.is_extremal_tp(ch):
        raise ValueError("channel is not extremal")
    lu = lu_normal_form(ch)
    shift = np.asarray(lu.shift)
    rot = _rotation_between(shift / np.linalg.norm(shift), np.eye(3)[2])
    lam = rot @ np.diag(lu.lambdas) @ rot.T
    wd = su2_from_so3(rot).conj().T
    form = ExtremalQubitForm(np.arccos(np.clip(lam[0, 0], -1, 1)),
                             np.arccos(np.clip(-lam[1, 1], -1, 1)),
                             lu.u_out.conj().T @ wd, lu.u_in @ wd)
    if np.abs(form.reconstruct().choi - ch.choi).max() > 1e-9:
        raise RuntimeError("two-angle form does not reproduce the channel")
    return form


# --- concurrence and decompositions ------------------------------------------

def concurrence(rho):
    """Wootters concurrence of a two-qubit state.

    Computed from the singular values of X^T (sy x sy) X with X a square
    root of rho: C = max(0, sig1 - sig2 - sig3 - sig4).
    """
    x = numkit.psd_factor(*numkit.require_density(rho, 4)[1:], tol=1e-13)
    return _concurrence_of(numkit.svd(x.T @ SFLIP @ x)[1])


def _concurrence_of(sig):
    """C from the preconcurrence singular values, clipped to [0, 1].

    Rounding leaves C = 1 + O(eps) on maximally entangled dual states,
    and sqrt(1 - C) downstream needs it inside the range.
    """
    if sig.size == 0:
        return 0.0
    return float(np.clip(2 * sig[0] - sig.sum(), 0.0, 1.0))


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
    return _equal_concurrence(
        numkit.psd_factor(*numkit.require_density(rho, 4)[1:], tol=1e-13))


def _equal_concurrence(x):
    """equal_concurrence_decomposition of the state x x^dag."""
    r = x.shape[1]
    v, sig = numkit.takagi(x.T @ SFLIP @ x)
    xp = x @ v.conj()
    c = _concurrence_of(sig)
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
        had = np.ones((1, 1))
        while had.shape[0] < k:  # Sylvester: k is 1, 2 or 4
            had = np.kron(had, [[1.0, 1.0], [1.0, -1.0]])
        z = xpp @ (had / np.sqrt(k))
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
    w, v = ch.choi_eigh
    dec = _equal_concurrence(numkit.psd_factor(w / ch.choi_trace, v,
                                               tol=1e-13))
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

def is_entanglement_breaking(ch, tol=numkit.PSD_TOL):
    """Whether the channel output is always separable.

    For a qubit the reduction map X -> Tr(X) I - X is sigma_y X^T sigma_y,
    so for a TP channel the least eigenvalue of the dual state's partial
    transpose is 1/2 - f_max, f_max the top dual-state eigenvalue; and
    for two qubits a positive partial transpose is exactly separability.
    True when f_max <= 1/2 + max(tol, numkit.PSD_TOL): channels within
    the band of the threshold count as breaking.
    """
    _require_qubit_tp(ch)
    return max_entanglement_fidelity(ch)[0] <= 0.5 + max(tol, numkit.PSD_TOL)


def max_entanglement_fidelity(ch):
    """Best overlap with the maximally entangled state across one side.

    The value is the top dual-state eigenvalue (above 1/2 exactly when
    entanglement can pass); the achieving input is the swap-conjugate of
    its eigenvector. The pair is checked by direct evaluation.
    """
    if not channel.is_tp(ch):
        raise ValueError("channel is not trace-preserving")
    n = ch.dim
    w, v = ch.choi_eigh
    f = float(w[-1] / ch.choi_trace)
    # the swap of the two factors
    chi = v[:, -1].conj().reshape(n, n).T.reshape(-1)
    # sum_k |<phi|(I x A_k)|chi>|^2 with phi = vec(I) / sqrt(n): each
    # overlap is sum_ij (A_k)_ij X_ij / sqrt(n), X = chi as an n x n array
    amps = np.einsum("kij,ij->k", np.asarray(ch.kraus), chi.reshape(n, n))
    direct = float(np.vdot(amps, amps).real) / n
    if abs(direct - f) > 1e-10:
        raise RuntimeError("fidelity eigenvector failed direct evaluation")
    return f, chi
