"""Completely positive maps as Kraus lists with cached Choi data.

A Channel stores its Kraus operators together with the unnormalized Choi
matrix (block (i,j) holds the image of |i><j|, trace n for a
trace-preserving map) and the normalized Jamiolkowski state jam = choi/n.
The unnormalized matrix carries the block structure and the dual-action
formula; Channel.choi_eigh is its one factorization, which the rank,
minimal_kraus and jam's spectrum read. Hermitian-preserving maps that
are not CP get a signed Kraus form, with real weights of either sign.
"""

import functools
import math

import numpy as np

from . import numkit

TP_TOL = 1e-10  # largest entry of sum A^dag A - I (or A A^dag - I)


def choi_matrix(kraus):
    """Unnormalized Choi matrix sum_k vec(A_k^T) vec(A_k^T)^dag."""
    n = kraus[0].shape[0]
    c = np.zeros((n * n, n * n), dtype=complex)
    for a in kraus:
        v = numkit.mat_to_vec(a.T)
        c += np.outer(v, v.conj())
    return c


class Channel:
    """A CP map held as Kraus operators; Choi data cached eagerly.

    Values are immutable after construction. The Choi matrix of any Kraus
    list is Hermitian and PSD by construction, so only shape, a positive
    trace and (optionally) trace preservation, within TP_TOL, are checked.
    choi_eigh, made on first read, is the one factorization of choi.
    """

    def __init__(self, kraus, require_tp=False):
        ops = [np.asarray(a, dtype=complex) for a in kraus]
        if not ops:
            raise ValueError("need at least one Kraus operator")
        n = ops[0].shape[0]
        for a in ops:
            if a.shape != (n, n):
                raise ValueError("Kraus operators must be square and share "
                                 "one dimension, got shape %s" % (a.shape,))
        self.dim = n
        self.kraus = ops
        self.choi = choi_matrix(ops)
        self.choi_trace = tr = np.trace(self.choi).real
        if tr <= 0:
            raise ValueError("Choi matrix has nonpositive trace")
        self.jam = self.choi / tr
        # the one trace test, which is_tp reads: largest entry of
        # sum_i A_i^dag A_i - I
        ksum = sum(a.conj().T @ a for a in ops)
        self.tp_deviation = float(np.abs(ksum - np.eye(n)).max())
        self.trace_preserving = self.tp_deviation <= TP_TOL
        if require_tp and not self.trace_preserving:
            raise ValueError("Kraus operators do not preserve the trace "
                             "(deviation %.3e)" % self.tp_deviation)

    @functools.cached_property
    def choi_eigh(self):
        """(w, v), w ascending, read-only; jam's is (w / choi_trace, v)."""
        w, v = numkit.eigh(self.choi)
        w.flags.writeable = v.flags.writeable = False
        return w, v

    def __call__(self, rho):
        return apply(self, rho)


def kraus_from_choi(c):
    """Minimal Kraus list of a raw Choi matrix (a Channel's: minimal_kraus).

    The operators are the reshaped columns of numkit.sqrt_psd, rescaled
    eigenvectors, hence pairwise orthogonal in the Hilbert-Schmidt inner
    product, and their count equals the numerical rank. A matrix that is
    not PSD is not a valid CP dual state and raises.
    """
    n = math.isqrt(len(c))
    return [x.reshape(n, n).T for x in numkit.sqrt_psd(c).T]


def minimal_kraus(ch):
    """kraus_from_choi(ch.choi), read off Channel.choi_eigh."""
    n = ch.dim
    return [x.reshape(n, n).T for x in numkit.psd_factor(*ch.choi_eigh).T]


def apply(ch, rho):
    """Act on a density matrix through the Kraus operators."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError("state dimension %s does not match channel dim %d"
                         % (rho.shape, ch.dim))
    out = np.zeros_like(rho)
    for a in ch.kraus:
        out += a @ rho @ a.conj().T
    return out


def apply_via_dual(c, rho):
    """Act through the Choi matrix: Tr_1(choi^{T_1} (rho tensor I)).

    The partial transpose and the trace are both over the first
    (input-index) factor.
    """
    c = numkit.require_hermitian(c)
    n = math.isqrt(len(c))
    if n * n != len(c):
        raise ValueError("Choi matrix size %d is not a perfect square"
                         % len(c))
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (n, n):
        raise ValueError("state dimension %s does not match Choi dim %d"
                         % (rho.shape, n))
    pt = numkit.partial_transpose(c, n, n, 1)
    return numkit.partial_trace(pt @ numkit.kron(rho, np.eye(n)), n, n, 1)


def is_tp(ch):
    """Trace preservation, sum_i A_i^dag A_i = I within TP_TOL, read from
    Channel.trace_preserving (the Choi marginal is checked in the tests)."""
    return ch.trace_preserving


def is_unital(ch):
    """Unitality (identity fixed): sum_i A_i A_i^dag = I within TP_TOL."""
    ksum = sum(a @ a.conj().T for a in ch.kraus)
    return bool(np.abs(ksum - np.eye(ch.dim)).max() <= TP_TOL)


def rank(ch, tol=numkit.PSD_TOL):
    """Rank of the map: the rank of its Choi matrix."""
    w = ch.choi_eigh[0]
    return int(np.count_nonzero(w > tol * max(w.max(), 1.0)))


class HermitianMap:
    """Signed Kraus form of a Hermitian-preserving map.

    Holds pairs (lam_i, A_i) with lam_i real and nonzero, acting as
    X -> sum_i lam_i A_i X A_i^dag. The (possibly non-PSD) Choi matrix is
    kept for deficit computations.
    """

    def __init__(self, dim, signed_kraus, choi):
        self.dim = dim
        self.signed_kraus = signed_kraus
        self.choi = choi

    def apply(self, x):
        x = np.asarray(x, dtype=complex)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for lam, a in self.signed_kraus:
            out += lam * (a @ x @ a.conj().T)
        return out


def signed_kraus(action):
    """Signed Kraus form from the action on the matrix unit basis.

    action lists the images of |i><j| in row-major (i, j) order. The
    images must be Hermiticity-consistent within numkit.HERM_TOL: the
    image of |j><i| equals the adjoint of the image of |i><j|.
    Eigenvalues of the assembled Choi matrix give the signs, reshaped
    eigenvectors the operators; eigenvalues up to numkit.PSD_TOL of the
    largest magnitude (floored at 1) are dropped as rounding.
    """
    mats = [np.asarray(a, dtype=complex) for a in action]
    n2 = len(mats)
    n = int(round(np.sqrt(n2)))
    if n * n != n2:
        raise ValueError("need n^2 basis images, got %d" % n2)
    scale = max(max(np.abs(a).max() for a in mats), 1.0)
    c = np.zeros((n2, n2), dtype=complex)
    for i in range(n):
        for j in range(n):
            if np.abs(mats[i * n + j] - mats[j * n + i].conj().T).max() \
                    > numkit.HERM_TOL * scale:
                raise ValueError("action is not Hermiticity-consistent at "
                                 "basis element (%d, %d)" % (i, j))
            c[i * n:(i + 1) * n, j * n:(j + 1) * n] = mats[i * n + j]
    w, v = numkit.eigh(c)
    pairs = []
    for k in range(w.size):
        if abs(w[k]) > numkit.PSD_TOL * max(np.abs(w).max(), 1.0):
            pairs.append((float(w[k]), v[:, k].reshape(n, n).T))
    return HermitianMap(n, pairs, c)


class CpDeficit:
    """How far a Hermitian-preserving map sits from being CP.

    epsilon is the minimal admixture of the completely depolarizing map
    that makes the Choi matrix PSD; tilde is the resulting CP channel.
    The source action is recovered as
    (1 + n*epsilon) * tilde(rho) - epsilon * Tr(rho) * I.
    """

    def __init__(self, epsilon, tilde):
        self.epsilon = epsilon
        self.tilde = tilde

    def reconstruct(self, rho):
        n = self.tilde.dim
        return ((1 + n * self.epsilon) * apply(self.tilde, rho)
                - self.epsilon * np.trace(rho) * np.eye(n))


def cp_deficit(hm):
    """CP-deficit decomposition of a HermitianMap.

    epsilon = max(0, -smallest Choi eigenvalue); the tilde channel has
    Choi (choi + eps*I) / (1 + n*eps). A CP input comes back unchanged
    with epsilon 0.
    """
    n = hm.dim
    w = numkit.eigh(hm.choi)[0]
    eps = max(0.0, -float(w.min()))
    tilde_choi = (hm.choi + eps * np.eye(n * n)) / (1 + n * eps)
    tilde = Channel(kraus_from_choi(tilde_choi))
    return CpDeficit(eps, tilde)


def compose(a, b):
    """Channel applying b first, then a (composition a after b)."""
    if a.dim != b.dim:
        raise ValueError("cannot compose channels of dims %d and %d"
                         % (a.dim, b.dim))
    return Channel([x @ y for x in a.kraus for y in b.kraus])


# builders ------------------------------------------------------------------

def identity(n=2):
    return Channel([np.eye(n, dtype=complex)])


def unitary(u):
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if np.abs(u @ u.conj().T - np.eye(n)).max() > TP_TOL:
        raise ValueError("matrix is not unitary")
    return Channel([u])


def depolarizing(p):
    """Mix toward the maximally mixed state: (1-p) rho + p Tr(rho) I/2."""
    if not 0 <= p <= 4 / 3:
        raise ValueError("depolarizing strength out of range")
    w0 = 1 - 3 * p / 4
    return Channel([np.sqrt(w0) * np.eye(2, dtype=complex),
                    np.sqrt(p) / 2 * numkit.SX,
                    np.sqrt(p) / 2 * numkit.SY,
                    np.sqrt(p) / 2 * numkit.SZ])


def amplitude_damping(gamma):
    if not 0 <= gamma <= 1:
        raise ValueError("gamma out of range")
    return Channel([np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
                    np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)])


def phase_flip(p):
    if not 0 <= p <= 1:
        raise ValueError("p out of range")
    return Channel([np.sqrt(1 - p) * np.eye(2, dtype=complex),
                    np.sqrt(p) * numkit.SZ])


def bit_flip(p):
    if not 0 <= p <= 1:
        raise ValueError("p out of range")
    return Channel([np.sqrt(1 - p) * np.eye(2, dtype=complex),
                    np.sqrt(p) * numkit.SX])


def completely_depolarizing(n=2):
    """Send everything to the maximally mixed state."""
    ops = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1 / np.sqrt(n)
            ops.append(e)
    return Channel(ops)


def replacer(rho2):
    """Send every input to the fixed state rho2 (times the input trace)."""
    rho2, w, v = numkit.require_density(rho2)
    x = numkit.psd_factor(w, v, tol=1e-12)
    return Channel([np.outer(col, e) for col in x.T
                    for e in np.eye(len(rho2), dtype=complex)])


def transpose_map(n=2):
    """The transpose action as a HermitianMap (not CP, so not a Channel)."""
    action = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[j, i] = 1
            action.append(e)
    return signed_kraus(action)
