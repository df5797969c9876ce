"""Extremality of trace-preserving CP maps and constructive decompositions.

A TP channel with minimal Kraus list {A_i = |A_i| v_i} is extremal in the
convex body of channels exactly when the m^2 products {v_i^dag v_j} are
linearly independent. A Hermitian Q with sum_jk Q_jk v_k^dag v_j = 0
moves it inside the face of its Choi matrix and keeps it TP; there a
point is an m x k factor F with Kraus operators sum_i F_il v_i. Roots of
det(sum_i c_i A_i) yield rank-reducing inputs.
"""

import collections

import numpy as np

from . import numkit, channel

_NULL_TOL = 1e-10  # products of the v_i count as dependent below this


class AlreadyExtremalError(ValueError):
    """The channel is extremal, so there is nothing to split or peel."""


def _minimal_kraus(ch):
    # extremality assumes TP and independent Kraus operators: the Choi's
    if not channel.is_tp(ch):
        raise ValueError("channel is not trace-preserving")
    return channel.minimal_kraus(ch)


def _directions(ch):
    """The minimal Kraus operators as unit-norm v_i and their norms."""
    ks = np.array(_minimal_kraus(ch))
    norms = np.linalg.norm(ks, axis=(1, 2))
    return ks / norms[:, None, None], norms


def is_extremal_tp(ch):
    """Extremality test for a TP channel.

    False straight away if the rank exceeds the dimension; otherwise the
    products v_i^dag v_j must be linearly independent: no singular value
    of Q -> sum_jk Q_jk v_k^dag v_j at or below _NULL_TOL times the
    largest. Unit-norm v_i make the verdict depend on the range of the
    Choi matrix alone, as extremality does, not on its small eigenvalues.
    """
    return _extremal(_directions(ch)[0], ch.dim)


def _extremal(v, n):
    """is_extremal_tp on the directions v of an n-dimensional channel."""
    return len(v) <= n and _perturbation(v) is None


def is_extremal_constrained(ch, rho1):
    """Extremality among TP channels with the image of rho1 held fixed.

    The test family is {A_i^dag A_j (+) A_j rho1 A_i^dag}; the direct sum
    doubles the ambient dimension, so m <= floor(sqrt(2 n^2)) is applied
    before is_extremal_tp's null test, run on the doubled family.
    """
    v = _directions(ch)[0]
    rho1 = numkit.require_density(rho1, ch.dim)[0]
    return (len(v) ** 2 <= 2 * ch.dim ** 2
            and _perturbation(v, rho1=rho1) is None)


def _perturbation(ks, tol=_NULL_TOL, rho1=None):
    """The unit Hermitian Q with sum_jk Q_jk A_k^dag A_j = 0 (singular
    values up to tol times the largest counting as zero) of least
    off-diagonal mass, its largest-magnitude eigenvalue positive, or None.
    With rho1 given, Q must also annihilate sum_jk Q_jk A_j rho1 A_k^dag,
    the doubled family of is_extremal_constrained.

    A thin SVD of the map itself (a Gram matrix would square the
    conditioning), from Q's coordinates in numkit.hermitian_coords
    (diagonal units first) to its images, gives the null projector
    P = I - U U^T. Least off-diagonal mass is most diagonal mass: P d, d
    the top eigenvector of P's diagonal block or, with no diagonal mass
    above tol, the basis element of largest P_bb. The sign decides which
    side of a split comes first.
    """
    m = len(ks)
    # row b: the image of basis element b, real and imaginary parts
    prods = np.einsum("jax,kay->jkxy", ks.conj(), ks)
    if rho1 is not None:
        prods = np.concatenate([prods, np.einsum(
            "kxa,ab,jyb->jkxy", ks, rho1, ks.conj())], axis=3)
    out = numkit.hermitian_coords(prods).reshape(m * m, -1)
    u, s = np.linalg.svd(np.concatenate([out.real, out.imag], axis=1),
                         full_matrices=False)[:2]
    u = u[:, :np.count_nonzero(s > tol * s[0])]
    if u.shape[1] == m * m:
        return None
    w, e = np.linalg.eigh(np.eye(m) - u[:m] @ u[:m].T)
    d = (np.concatenate([e[:, -1], np.zeros(m * m - m)]) if w[-1] > tol
         else np.eye(m * m)[np.argmin(np.einsum("bi,bi->b", u, u))])
    q = numkit.hermitian_from_coords(d - u @ (u.T @ d))
    # drop float fuzz so that Q is Hermitian to the last bit
    q = (q + q.conj().T) / (2 * np.linalg.norm(q))
    w = np.linalg.eigvalsh(q)
    return q if w[-1] >= -w[0] else -q


def find_perturbation(ch):
    """A Hermitian Q with sum_jk Q_jk A_k^dag A_j = 0, or None.

    None comes back exactly when the channel is extremal. Q is the
    nullspace element of least off-diagonal mass in the v_i (so splits
    follow the Choi eigenstructure whenever they can), written for the
    A_i and normalized to unit Frobenius norm.
    """
    v, norms = _directions(ch)
    q = _perturbation(v)
    if q is None:
        return None
    q = q / np.outer(norms, norms)
    return q / np.linalg.norm(q)


def _face_step(f, w, z):
    """f (I - h / lam_max(h))^(1/2) for h = z diag(w) z^dag (w ascending),
    the point f moved to the boundary of its face, and the step
    1 / lam_max(h). The whole cluster at lam_max drops out, not one
    rounding-split member of it."""
    x = 1 - w / w[-1]
    keep = x > 1e-12
    return f @ (z[:, keep] * np.sqrt(x[keep])), 1 / w[-1]


def _walk(f, v):
    """An extremal point in the face of the point f = p diag(s) r^dag.

    The null test runs on the point's Choi eigenvectors u = p^T v at
    _NULL_TOL / weight (the channel split having weight one), capped at
    1e-8 and never below is_extremal_tp's bound, so every point the walk
    stops at passes that test. A step then moves the trace condition by
    about _NULL_TOL in the channel's units, in which rounding is
    absolute. Each step goes to the nearer boundary, so no coefficient
    grows by more than sqrt(2)."""
    while True:
        p, s = np.linalg.svd(f, full_matrices=False)[:2]
        tol = min(_NULL_TOL * v.shape[1] / np.sum(s ** 2), 1e-8)
        q = _perturbation(np.tensordot(p.T, v, 1), tol)
        if q is None:
            return f
        w, z = numkit.eigh(q / np.outer(s, s))
        if w[-1] < -w[0]:
            w, z = -w[::-1], z[:, ::-1]
        f = _face_step(p * s, w, z)[0]


def _tp_channel(f, v):
    """The channel of the point f made exactly TP by the congruence
    (sum B^dag B)^(-1/2). Its deviation from weight * I, in units where
    the channel split has weight one, is about what the correction
    moves in the mixture; above 1e-9 it is a failed self-check, not
    rounding, and raises RuntimeError."""
    ks = np.tensordot(f.T, v, 1)
    s = np.einsum("lax,lay->xy", ks.conj(), ks)
    dev = np.abs(s - np.trace(s).real / len(s) * np.eye(len(s))).max()
    if dev > 1e-9:
        raise RuntimeError("extremal part is off the trace condition by "
                           "%.3e" % dev)
    w, z = numkit.eigh(s)
    return channel.Channel(list(ks @ (z / np.sqrt(w)) @ z.conj().T))


class ExtremalSplit(collections.namedtuple("ExtremalSplit",
                                            "weight left right q")):
    """One proper convex split of a non-extremal channel.

    weight * left + (1 - weight) * right reproduces the source action;
    q is the perturbation that produced the split.
    """


def split_extremal(ch):
    """Split a non-extremal TP channel into two TP channels.

    Raises on extremal input. find_perturbation's Q moves the channel
    both ways to the boundary of its face, to I + s_- Q and I - s_+ Q,
    which mix back with weight s_+ / (s_+ + s_-); both have rank < m.
    """
    v, norms = _directions(ch)
    q = find_perturbation(ch)
    if q is None:
        raise AlreadyExtremalError("channel is extremal, nothing to split")
    left, s_minus = _face_step(np.diag(norms), *numkit.eigh(-q))
    right, s_plus = _face_step(np.diag(norms), *numkit.eigh(q))
    return ExtremalSplit(float(s_plus / (s_plus + s_minus)),
                         _tp_channel(left, v), _tp_channel(right, v), q)


def decompose_into_extremals(ch):
    """Write a non-extremal TP channel as a mixture of extremal channels.

    A Caratheodory peel: walk from the remainder F to an extremal point
    E = F Y of its face, subtract the largest t E that keeps F F^dag -
    t E E^dag positive, t = 1 / lam_max(Y Y^dag), and repeat; the rank
    drops each time, so at most rank(ch) pairs (weight, Channel) come
    back, weights positive and summing to one. Raises
    AlreadyExtremalError (a ValueError) on extremal input, RuntimeError
    if a part fails _tp_channel's check.
    """
    v, norms = _directions(ch)
    if _extremal(v, ch.dim):
        raise AlreadyExtremalError("channel is already extremal")
    f = np.diag(norms).astype(complex)
    parts = []
    while f.shape[1]:
        e = _walk(f, v)
        y = np.linalg.lstsq(f, e, rcond=None)[0]
        f, t = _face_step(f, *numkit.eigh(y @ y.conj().T))
        parts.append((t * np.linalg.norm(e) ** 2, e))
    total = sum(w for w, _ in parts)
    return [(float(w / total), _tp_channel(e, v)) for w, e in parts]


def _singular_combination(ks):
    """Coefficients c with det(sum_i c_i A_i) = 0, constructed.

    The candidates are c = e_i and, with A_i the best conditioned
    operator, c = e_j + lam e_i for the eigenvalues lam of -A_i^-1 A_j,
    where det(A_j + lam A_i) = 0. The one with the smallest last
    singular value per |c| is kept; RuntimeError if that exceeds 1e-7.
    """
    m = len(ks)
    if m == 1:
        raise ValueError("need at least two operators")
    eye = np.eye(m)
    cands = list(eye)
    sv = [np.linalg.svd(a, compute_uv=False) for a in ks]
    i = int(np.argmax([s[-1] / s[0] for s in sv]))
    if sv[i][-1] > 1e-7:  # else e_i passes already
        for j in range(m):
            if j != i:
                lams = np.linalg.eigvals(-np.linalg.solve(ks[i], ks[j]))
                cands.extend(eye[j] + lam * eye[i] for lam in lams)

    def score(c):
        mat = np.tensordot(c, ks, 1)
        return np.linalg.svd(mat, compute_uv=False)[-1] / np.linalg.norm(c)

    low, k = min((score(c), k) for k, c in enumerate(cands))
    if low > 1e-7:
        raise RuntimeError("no singular combination of the operators found")
    return cands[k]


def _kernel_complement(ks):
    """A unit kernel vector x of a singular combination of the A_i and an
    orthonormal basis of span{A_i x}^perp; that span has dimension < m."""
    m = len(ks)
    c = _singular_combination(ks)
    x = numkit.svd(sum(c[i] * ks[i] for i in range(m)))[2][:, -1]
    u = numkit.svd(np.array([a @ x for a in ks]).T)[0]
    return x, u[:, m - 1:]


def rank_reducing_input(ch):
    """A pure input whose image has rank below the channel rank.

    For a TP channel of rank m with 2 <= m <= n, returns
    (psi, chi, chi_space): psi is the input, chi a unit vector with
    <chi| image |chi> ~ 0, and chi_space an n x k orthonormal basis
    (k >= n - m + 1) of the subspace annihilated by the image.
    """
    ks = _minimal_kraus(ch)
    m, n = len(ks), ch.dim
    if m > n:
        raise ValueError("rank %d exceeds dimension %d" % (m, n))
    if m < 2:
        raise ValueError("a unitary (rank-1) channel maps pure states to "
                         "pure states; no rank drop exists")
    psi, chi_space = _kernel_complement(ks)
    return psi, chi_space[:, 0], chi_space


def orthogonal_product_states(rho, m=None):
    """Product vectors a (x) b orthogonal to a rank-m state on n (x) n.

    Returns at least n - m + 1 linearly independent product vectors with
    <a (x) b| rho |a (x) b> ~ 0. Uses <a (x) b | vec(B)> = <a| B conj(b)>:
    for m >= 2, pick c with sum c_i B_i singular and b from its kernel;
    for m = 1, each basis column of the single B gives a state.
    """
    d = len(rho)
    n = int(round(np.sqrt(d)))
    if n * n != d:
        raise ValueError("state does not live on n (x) n")
    x = numkit.sqrt_psd(rho)
    m_actual = x.shape[1]
    if m is not None and m != m_actual:
        raise ValueError("stated rank %d does not match numerical rank %d"
                         % (m, m_actual))
    m = m_actual
    if m > n:
        raise ValueError("rank %d exceeds local dimension %d" % (m, n))
    bs = [x[:, k].reshape(n, n) for k in range(m)]
    states = []
    if m == 1:
        scale = np.abs(bs[0]).max()
        for k in range(n):
            # the kernel of <col|; a zero column leaves all of C^n
            _, sv, basis = numkit.svd(bs[0][:, k].reshape(1, n).conj())
            kern = basis[:, int(sv[0] > 1e-12 * scale):]
            b = np.eye(n, dtype=complex)[k]
            states.extend(np.kron(a, b.conj()) for a in kern.T)
    else:
        # a must be orthogonal to every range vector B_i bbar
        bbar, u = _kernel_complement(bs)
        states.extend(np.kron(a, bbar.conj()) for a in u.T)
    if len(states) < n - m + 1:
        raise RuntimeError("found %d product states, expected at least %d"
                           % (len(states), n - m + 1))
    return states
