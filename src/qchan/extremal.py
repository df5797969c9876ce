"""Extremality of trace-preserving CP maps and constructive decompositions.

A TP channel with minimal Kraus list {A_i} is extremal in the convex body
of channels exactly when the m^2 products {A_i^dag A_j} are linearly
independent. When they are not, any Hermitian nullspace element Q of the
constraint sum_jk Q_jk A_k^dag A_j = 0 produces a proper two-term convex
split whose parts are again TP and of strictly smaller rank; recursing
yields an all-extremal decomposition. The same nullspace machinery, run on
the polynomial det(sum_i c_i A_i), yields inputs whose image drops rank.
"""

import numpy as np
import scipy.linalg

from . import numkit, channel


def _minimal_kraus(ch):
    # extremality statements assume a linearly independent Kraus set;
    # re-derive one from the Choi matrix regardless of how ch was built
    return channel.kraus_from_choi(ch.choi_pair)


def _require_tp(ch):
    if not channel.is_tp(ch):
        raise ValueError("channel is not trace-preserving")


def is_extremal_tp(ch, tol=1e-8):
    """Extremality test for a TP channel.

    False straight away if the rank exceeds the dimension; otherwise the
    stacked vectors vec(A_i^dag A_j) must have full row rank (smallest
    singular value above tol times the largest).
    """
    _require_tp(ch)
    ks = _minimal_kraus(ch)
    m, n = len(ks), ch.dim
    if m > n:
        return False
    rows = np.array([numkit.mat_to_vec(a.conj().T @ b)
                     for a in ks for b in ks])
    s = numkit.svd(rows)[1]
    return bool(s[-1] > tol * s[0])


def is_extremal_constrained(ch, rho1, tol=1e-8):
    """Extremality among TP channels with the image of rho1 held fixed.

    The test family is {A_i^dag A_j (+) A_j rho1 A_i^dag}; the direct sum
    doubles the ambient dimension, so m <= floor(sqrt(2 n^2)) is applied
    before the rank test.
    """
    _require_tp(ch)
    rho1 = numkit.require_hermitian(rho1)
    w = numkit.eigh(rho1)[0]
    if w.min() < -1e-10 or abs(w.sum() - 1) > 1e-8:
        raise ValueError("rho1 must be a density matrix")
    ks = _minimal_kraus(ch)
    m, n = len(ks), ch.dim
    if m * m > 2 * n * n:
        return False
    rows = np.array([np.concatenate([numkit.mat_to_vec(a.conj().T @ b),
                                     numkit.mat_to_vec(b @ rho1 @ a.conj().T)])
                     for a in ks for b in ks])
    s = numkit.svd(rows)[1]
    return bool(s[-1] > tol * s[0])


def _herm_basis(m):
    """Orthonormal (Frobenius) basis of m x m Hermitian matrices."""
    basis = []
    for i in range(m):
        e = np.zeros((m, m), dtype=complex)
        e[i, i] = 1
        basis.append(e)
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros((m, m), dtype=complex)
            e[i, j] = e[j, i] = 1 / np.sqrt(2)
            basis.append(e)
            e = np.zeros((m, m), dtype=complex)
            e[i, j] = -1j / np.sqrt(2)
            e[j, i] = 1j / np.sqrt(2)
            basis.append(e)
    return basis


def find_perturbation(ch, tol=1e-8):
    """A Hermitian Q with sum_jk Q_jk A_k^dag A_j = 0, or None.

    None comes back exactly when the channel is extremal. Among all
    nullspace elements the returned Q minimizes off-diagonal mass (in the
    Kraus eigenbasis), so convex splits follow the Choi eigenstructure
    whenever they can; Q is normalized to unit Frobenius norm.
    """
    _require_tp(ch)
    ks = _minimal_kraus(ch)
    m, n = len(ks), ch.dim
    basis = _herm_basis(m)
    # column b: the Hermitian matrix sum_jk (B_b)_jk A_k^dag A_j, stacked
    # as real and imaginary parts
    cols = []
    for b in basis:
        out = np.zeros((n, n), dtype=complex)
        for j in range(m):
            for k in range(m):
                if b[j, k] != 0:
                    out += b[j, k] * (ks[k].conj().T @ ks[j])
        cols.append(np.concatenate([out.real.ravel(), out.imag.ravel()]))
    con = np.array(cols).T
    u, s, v = np.linalg.svd(con)
    null_mask = s <= tol * max(s[0], 1.0) if s.size else np.array([])
    null = [v[k] for k in range(len(s)) if null_mask[k]]
    null += [v[k] for k in range(len(s), m * m)]
    if not null:
        return None
    # canonicalize: minimize off-diagonal Frobenius mass over the nullspace
    null_mats = []
    for coeffs in null:
        q = np.zeros((m, m), dtype=complex)
        for c, b in zip(coeffs, basis):
            q += c * b
        null_mats.append(q)
    offd = np.array([numkit.mat_to_vec(q - np.diag(np.diag(q)))
                     for q in null_mats])
    gram = (offd @ offd.conj().T).real
    wg, vg = np.linalg.eigh(gram)
    q = sum(c * mat for c, mat in zip(vg[:, 0], null_mats))
    q = q / np.linalg.norm(q)
    # drop float fuzz so exactly-diagonal solutions stay exactly diagonal
    q = (q + q.conj().T) / 2
    return q


class ExtremalSplit:
    """One proper convex split of a non-extremal channel.

    weight * left + (1 - weight) * right reproduces the source action;
    q is the perturbation that produced the split.
    """

    def __init__(self, weight, left, right, q):
        self.weight = weight
        self.left = left
        self.right = right
        self.q = q


def split_extremal(ch):
    """Split a non-extremal TP channel into two TP channels.

    Raises on extremal input. Both parts have rank at most m-1 because
    the mixing matrix M is built to have eigenvalues at both 0 and 1.
    """
    q = find_perturbation(ch)
    if q is None:
        raise ValueError("channel is extremal, nothing to split")
    x = numkit.sqrt_psd(ch.choi_pair.choi)
    qw = numkit.eigh(q)[0]
    qmin, qmax = qw[0], qw[-1]
    # Q is trace-orthogonal to the positive definite Kraus Gram matrix,
    # so it is indefinite and a in (0, 1) is guaranteed
    b = 1.0 / (qmax - qmin)
    a = -qmin * b
    mmat = a * np.eye(q.shape[0]) + b * q
    left_choi = x @ mmat @ x.conj().T / a
    right_choi = x @ (np.eye(q.shape[0]) - mmat) @ x.conj().T / (1 - a)
    left = channel.Channel(channel.kraus_from_choi(left_choi))
    right = channel.Channel(channel.kraus_from_choi(right_choi))
    return ExtremalSplit(float(a), left, right, q)


def decompose_into_extremals(ch, max_terms=64):
    """Recursively split until every part is extremal.

    Returns a list of (weight, Channel); weights sum to one and the
    weighted parts reconstruct the source action. Parts whose Choi
    matrices coincide are merged. Raises on extremal input and when the
    recursion would exceed max_terms leaves.
    """
    if is_extremal_tp(ch):
        raise ValueError("channel is already extremal")
    leaves = []
    stack = [(1.0, ch)]
    while stack:
        w, c = stack.pop()
        if is_extremal_tp(c):
            leaves.append((w, c))
            continue
        if len(leaves) + len(stack) >= max_terms:
            raise RuntimeError("decomposition exceeded %d terms" % max_terms)
        sp = split_extremal(c)
        stack.append((w * sp.weight, sp.left))
        stack.append((w * (1 - sp.weight), sp.right))
    merged = []
    for w, c in leaves:
        for k, (wk, ck) in enumerate(merged):
            if np.abs(c.choi - ck.choi).max() <= 1e-8:
                merged[k] = (wk + w, ck)
                break
        else:
            merged.append((w, c))
    return merged


def _singular_combination(ks, rng, retries=32):
    """Coefficients c with det(sum_i c_i A_i) = 0, via roots on a line.

    Parameterize c = c0 + t*c1 with random complex directions; the
    determinant is then a degree-n polynomial in t solved by its
    companion matrix. Retries with new lines on conditioning failures.
    """
    m = len(ks)
    n = ks[0].shape[0]
    if m == 1:
        raise ValueError("need at least two operators")
    for _ in range(retries):
        c0 = rng.normal(size=m) + 1j * rng.normal(size=m)
        c1 = rng.normal(size=m) + 1j * rng.normal(size=m)
        # sample det at n+1 points and fit the degree-n polynomial exactly
        ts = np.linspace(-1, 1, n + 1)
        dets = [np.linalg.det(sum((c0[i] + t * c1[i]) * ks[i]
                                  for i in range(m))) for t in ts]
        coeffs = np.polyfit(ts, dets, n)
        lead = np.abs(coeffs).max()
        candidates = [c0]
        if lead >= 1e-12:
            coeffs = coeffs / lead
            nz = np.nonzero(np.abs(coeffs) > 1e-10)[0]
            if nz.size and nz[0] < len(coeffs) - 1:
                for t in np.roots(coeffs[nz[0]:]):
                    candidates.append(c0 + t * c1)
        # lead ~ 0 means the determinant vanishes on the whole line (the
        # operator span sits inside the singular variety) and c0 already works
        best, best_sv = None, np.inf
        for c in candidates:
            mat = sum(c[i] * ks[i] for i in range(m))
            sv = numkit.svd(mat)[1]
            if sv[-1] < best_sv:
                best, best_sv = c, sv[-1]
        if best is not None and best_sv <= 1e-7 * max(1.0, np.linalg.norm(best)):
            return best
    raise RuntimeError("no singular combination found; conditioning kept "
                       "failing across retries")


def rank_reducing_input(ch, seed=0):
    """A pure input whose image has rank below the channel rank.

    For a TP channel of rank m with 2 <= m <= n, returns
    (psi, chi, chi_space): psi is the input, chi a unit vector with
    <chi| image |chi> ~ 0, and chi_space an n x k orthonormal basis
    (k >= n - m + 1) of the subspace annihilated by the image.
    """
    _require_tp(ch)
    ks = _minimal_kraus(ch)
    m, n = len(ks), ch.dim
    if m > n:
        raise ValueError("rank %d exceeds dimension %d" % (m, n))
    if m < 2:
        raise ValueError("a unitary (rank-1) channel maps pure states to "
                         "pure states; no rank drop exists")
    rng = np.random.default_rng(seed)
    c = _singular_combination(ks, rng)
    mat = sum(c[i] * ks[i] for i in range(m))
    psi = numkit.svd(mat)[2][:, -1]
    # the image of psi psi^dag is supported on span{A_i psi}, which has
    # dimension at most m-1 by construction; chi spans the orthocomplement
    span = np.array([a @ psi for a in ks]).T
    u = numkit.svd(span)[0]
    chi_space = u[:, m - 1:]
    return psi, chi_space[:, 0], chi_space


def orthogonal_product_states(rho, m=None, seed=0):
    """Product vectors a (x) b orthogonal to a rank-m state on n (x) n.

    Returns at least n - m + 1 linearly independent product vectors with
    <a (x) b| rho |a (x) b> ~ 0. Uses <a (x) b | vec(B)> = <a| B conj(b)>:
    for m >= 2, pick c with sum c_i B_i singular and b from its kernel;
    for m = 1, each basis column of the single B gives a state.
    """
    rho = numkit.require_hermitian(rho)
    d = rho.shape[0]
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
        for k in range(n):
            col = bs[0][:, k]
            kern = scipy.linalg.null_space(col.reshape(1, n).conj())
            b = np.zeros(n, dtype=complex)
            b[k] = 1
            for j in range(kern.shape[1]):
                states.append(np.kron(kern[:, j], b.conj()))
    else:
        rng = np.random.default_rng(seed)
        c = _singular_combination(bs, rng)
        mat = sum(c[i] * bs[i] for i in range(m))
        bbar = numkit.svd(mat)[2][:, -1]
        # a must be orthogonal to every range vector B_i bbar; their span
        # has dimension at most m-1 since the c-combination annihilates bbar
        span = np.array([b @ bbar for b in bs]).T
        u = numkit.svd(span)[0]
        for j in range(m - 1, n):
            states.append(np.kron(u[:, j], bbar.conj()))
    if len(states) < n - m + 1:
        raise RuntimeError("found %d product states, expected at least %d"
                           % (len(states), n - m + 1))
    return states
