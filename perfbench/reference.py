"""Reference computations in plain numpy, independent of qchan.

The benchmark checks every answer qchan gives against these. Nothing here
imports qchan, so a defect in qchan cannot also hide in its own check.
Conventions follow the documented ones: the Choi block (i, j) holds the
image of |i><j|, the Jamiolkowski state is choi / n, and the Bloch-picture
matrix is R[i, j] = Tr(sigma_i Phi(sigma_j)) / 2.
"""

import numpy as np

PAULIS = [np.eye(2, dtype=complex),
          np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex)]
SY_SY = np.kron(PAULIS[2], PAULIS[2])


def max_entangled(n):
    """The maximally entangled vector sum_i |ii> / sqrt(n)."""
    return np.eye(n, dtype=complex).reshape(-1) / np.sqrt(n)


BELL = max_entangled(2)


def choi(kraus):
    """Unnormalized Choi matrix: block (i, j) is sum_k A_k |i><j| A_k^dag."""
    n = kraus[0].shape[0]
    c = np.zeros((n * n, n * n), dtype=complex)
    for a in kraus:
        v = a.T.reshape(-1)
        c += np.outer(v, v.conj())
    return c


def apply(kraus, rho):
    return sum(a @ rho @ a.conj().T for a in kraus)


def apply_second(kraus, rho):
    """(I (x) Phi)(rho): Phi acts on the second factor of a bipartite state."""
    eye = np.eye(kraus[0].shape[0], dtype=complex)
    return sum(np.kron(eye, a) @ rho @ np.kron(eye, a).conj().T
               for a in kraus)


def tp_deviation(kraus):
    n = kraus[0].shape[0]
    return float(np.abs(sum(a.conj().T @ a for a in kraus) - np.eye(n)).max())


def unital_deviation(kraus):
    n = kraus[0].shape[0]
    return float(np.abs(sum(a @ a.conj().T for a in kraus) - np.eye(n)).max())


def rank(c):
    w = np.linalg.eigvalsh(c)
    return int(np.count_nonzero(w > 1e-9 * max(w.max(), 1.0)))


def minimal_kraus(c):
    n = int(round(np.sqrt(c.shape[0])))
    w, v = np.linalg.eigh(c)
    keep = w > 1e-9 * max(w.max(), 1.0)
    return [np.sqrt(w[k]) * v[:, k].reshape(n, n).T
            for k in np.nonzero(keep)[0]]


def extremality_margin(c):
    """Smallest over largest singular value of the stacked A_i^dag A_j.

    A TP channel is extremal exactly when these products are linearly
    independent; 0.0 when the Kraus rank exceeds the dimension.
    """
    ks = minimal_kraus(c)
    n = ks[0].shape[0]
    if len(ks) > n:
        return 0.0
    rows = np.array([(a.conj().T @ b).reshape(-1) for a in ks for b in ks])
    s = np.linalg.svd(rows, compute_uv=False)
    return float(s[-1] / s[0])


def ptm(kraus):
    r = np.zeros((4, 4))
    for j in range(4):
        out = apply(kraus, PAULIS[j])
        for i in range(4):
            r[i, j] = 0.5 * np.trace(PAULIS[i] @ out).real
    return r


def partial_transpose_min(jam):
    """Smallest eigenvalue of the partial transpose of a two-qubit matrix."""
    t = jam.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    return float(np.linalg.eigvalsh(t)[0])


def concurrence(rho4):
    """Wootters concurrence from the eigenvalues of rho (sy sy) rho* (sy sy)."""
    flipped = SY_SY @ rho4.conj() @ SY_SY
    lam = np.sqrt(np.abs(np.linalg.eigvals(rho4 @ flipped)))
    lam = np.sort(lam)[::-1]
    return float(max(0.0, lam[0] - lam[1:].sum()))


def entropy(rho):
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


def binary_entropy(p):
    p = min(max(float(p), 0.0), 1.0)
    return float(-sum(x * np.log2(x) for x in (p, 1 - p) if x > 0))


def chi_of_ensemble(kraus, weights, states):
    avg = sum(w * s for w, s in zip(weights, states))
    return entropy(apply(kraus, avg)) - sum(
        w * entropy(apply(kraus, s)) for w, s in zip(weights, states))


def cardinal_pair_chi(kraus):
    """Best Holevo value over the antipodal pairs on the three Bloch axes."""
    best = 0.0
    for sigma in PAULIS[1:]:
        states = [(PAULIS[0] + sigma) / 2, (PAULIS[0] - sigma) / 2]
        best = max(best, chi_of_ensemble(kraus, [0.5, 0.5], states))
    return best


def bell_overlap(rho4):
    return float((BELL.conj() @ rho4 @ BELL).real)


def is_density(rho):
    herm = np.abs(rho - rho.conj().T).max() <= 1e-9
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    return bool(herm and w.min() >= -1e-9 and abs(w.sum() - 1) <= 1e-9)


def z_basis_correlation(rho4, side):
    """(J of a Z measurement, S(remote)) for a two-qubit state.

    J is the entropy reduction of the remote qubit; side "b" measures
    qubit A and reads qubit B, side "a" the reverse.
    """
    r = rho4.reshape(2, 2, 2, 2)
    if side == "b":
        remote = np.einsum("abad->bd", r)
        blocks = [r[k, :, k, :] for k in range(2)]
    else:
        remote = np.einsum("abcb->ac", r)
        blocks = [r[:, k, :, k] for k in range(2)]
    s_remote = entropy(remote)
    val = s_remote
    for blk in blocks:
        p = float(np.trace(blk).real)
        if p > 1e-12:
            val -= p * entropy(blk / p)
    return val, s_remote


def nongeneric_template(x):
    r = np.diag([1.0, x / np.sqrt(3), x / np.sqrt(3), 1.0 / 3.0])
    r[3, 0] = 2.0 / 3.0
    return r
