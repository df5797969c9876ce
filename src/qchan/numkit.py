"""Dense complex linear algebra at small fixed dimensions.

Matrices are plain numpy arrays (complex128). Everything here is a pure
function; eigenvalues come back ascending, singular values descending,
and all factorizations are residual-checked against their inputs and
passed on, not redone; a channel's dual state is factored by Channel.
"""

import math

import numpy as np

HERM_TOL = 1e-12  # relative: Hermiticity, takagi's symmetry and zero floor
PSD_TOL = 1e-9  # relative: the rounding floor of psd_floor

# I, sigma_x, sigma_y, sigma_z: the one set of Pauli matrices
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
SX, SY, SZ = PAULIS[1:]


def bloch_state(u):
    """The qubit matrix (I + u . sigma) / 2 of a Bloch vector u."""
    return (PAULIS[0] + (u @ PAULIS[1:].reshape(3, 4)).reshape(2, 2)) / 2


def kron(a, b):
    """Tensor product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def mat_to_vec(a):
    """Row-major flatten: vec(A)[i*cols + j] = A[i, j].

    With this convention (X kron Y) @ vec(A) = vec(X A Y^T).
    """
    return np.asarray(a, dtype=complex).reshape(-1)


def _check_bipartite(m, dim_a, dim_b):
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim_a * dim_b, dim_a * dim_b):
        raise ValueError("matrix shape %s does not match dims (%d, %d)"
                         % (m.shape, dim_a, dim_b))
    return m


def partial_trace(m, dim_a, dim_b, subsystem):
    """Trace out one factor of a (dim_a * dim_b) square matrix.

    subsystem=1 traces out the first factor, subsystem=2 the second.
    """
    m = _check_bipartite(m, dim_a, dim_b)
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if subsystem == 1:
        return np.einsum('abad->bd', t)
    if subsystem == 2:
        return np.einsum('abcb->ac', t)
    raise ValueError("subsystem must be 1 or 2")


def partial_transpose(m, dim_a, dim_b, subsystem):
    """Transpose one factor of a bipartite matrix. Involutive."""
    m = _check_bipartite(m, dim_a, dim_b)
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if subsystem == 1:
        t = t.transpose(2, 1, 0, 3)
    elif subsystem == 2:
        t = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError("subsystem must be 1 or 2")
    return t.reshape(dim_a * dim_b, dim_a * dim_b)


_R2 = 1 / np.sqrt(2)


def _upper_pairs(m):
    """The index pairs i < j of an m x m matrix in row order."""
    r = np.arange(m)
    return np.nonzero(r[:, None] < r)


def hermitian_coords(p):
    """The (m^2, ...) array of Tr(B_b p) for an (m, m, ...) array p.

    B_b runs over the Frobenius-orthonormal basis of the m x m Hermitian
    matrices in a fixed order: the m diagonal units E_ii first, then for
    each i < j in row order the pair (E_ij + E_ji) / sqrt(2) and
    i (E_ji - E_ij) / sqrt(2). For Hermitian p these are its real
    coordinates, the first m its diagonal. Built by index, as a product
    with a dense basis would hand BLAS an m^2 x m^2 matrix.
    """
    r = np.arange(len(p))
    i, j = _upper_pairs(len(p))
    pairs = np.stack([p[i, j] + p[j, i], 1j * (p[i, j] - p[j, i])], axis=1)
    return np.concatenate([p[r, r], _R2 * pairs.reshape(-1, *p.shape[2:])])


def hermitian_from_coords(x):
    """sum_b x_b B_b for real coordinates x in hermitian_coords' order."""
    m = math.isqrt(len(x))
    i, j = _upper_pairs(m)
    q = np.diag(x[:m]).astype(complex)
    q[i, j] = _R2 * (x[m::2] - 1j * x[m + 1::2])
    q[j, i] = q[i, j].conj()
    return q


def require_hermitian(m):
    """Validate hermiticity (HERM_TOL, relative) and return the array."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (m.shape,))
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.conj().T).max() > HERM_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def require_density(rho, dim=None):
    """Validate a density matrix; return it with its eigh, (rho, w, v).

    rho must be of shape dim x dim when dim is given, Hermitian (eigh's
    require_hermitian), PSD (psd_floor) and of trace 1 within 1e-9.
    """
    rho = np.asarray(rho, dtype=complex)
    if dim is not None and rho.shape != (dim, dim):
        raise ValueError("expected a %dx%d density matrix" % (dim, dim))
    w, v = eigh(rho)
    if w[0] < -psd_floor(w) or abs(w.sum() - 1) > 1e-9:
        raise ValueError("input is not a density matrix")
    return rho, w, v


def eigh(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with w real ascending and v orthonormal columns,
    m = v @ diag(w) @ v^dag. Raises on non-Hermitian input and checks the
    reconstruction residual.
    """
    m = require_hermitian(m)
    w, v = np.linalg.eigh(m)
    scale = max(np.abs(w).max(), 1.0)
    if np.abs((v * w) @ v.conj().T - m).max() > 1e-10 * scale:
        raise RuntimeError("eigh reconstruction residual too large")
    return w, v


def svd(m):
    """Singular value decomposition m = U diag(s) V^dag.

    Returns (u, s, v) with s nonnegative descending; note v, not v^dag.
    """
    m = np.asarray(m, dtype=complex)
    u, s, vh = np.linalg.svd(m)
    v = vh.conj().T
    scale = max(s.max() if s.size else 0.0, 1.0)
    if np.abs((u[:, :s.size] * s) @ vh[:s.size] - m).max() > 1e-10 * scale:
        raise RuntimeError("svd reconstruction residual too large")
    return u, s, v


def takagi(s):
    """Factor a complex symmetric matrix as s = V diag(sig) V^T.

    Returns (v, sig) with sig nonnegative descending and v unitary; s
    must be symmetric within HERM_TOL. One real symmetric eigensolve:
    s conj(v) = sig v with v = x + iy reads M [x; y] = sig [x; y] for
    M = [[Re s, Im s], [Im s, -Re s]], whose spectrum is +-sig, so the
    top n eigenvectors are Takagi vectors for any multiplicity of sig.
    sig at the rounding floor HERM_TOL * scale, where +0 and -0 mix, is
    set to 0. A QR of v then makes it unitary to rounding: the columns
    of a small kept sig come out of eigh orthogonal only to about
    rounding / sig, and those of a zeroed sig, which are free, may even
    repeat one another times i. R's diagonal is real, so a kept column
    changes by a sign and that rounding-sized correction at most.
    """
    s = np.asarray(s, dtype=complex)
    n = len(s)
    scale = max(np.abs(s).max(), 1.0)
    if np.abs(s - s.T).max() > HERM_TOL * scale:
        raise ValueError("takagi needs a symmetric matrix")
    w, q = np.linalg.eigh(np.block([[s.real, s.imag], [s.imag, -s.real]]))
    sig, top = w[n:][::-1], q[:, n:][:, ::-1]
    sig = np.where(sig > HERM_TOL * scale, sig, 0.0)
    v = np.linalg.qr(top[:n] + 1j * top[n:])[0]
    if np.abs((v * sig) @ v.T - s).max() > 1e-10 * scale:
        raise RuntimeError("takagi reconstruction residual too large")
    return v, sig


def psd_floor(w):
    """The rounding floor of the ascending eigenvalues w of a matrix that
    should be PSD: PSD_TOL times the largest, floored at 1. An eigenvalue
    below -psd_floor(w) means the matrix is not PSD; one at or above it
    is rounding."""
    return PSD_TOL * max(w[-1], 1.0)


def sqrt_psd(m):
    """Square root factor X of a PSD matrix, m = X X^dag (psd_factor)."""
    return psd_factor(*eigh(m))


def psd_factor(w, v, tol=None):
    """Square root factor X of a PSD matrix from its eigh (w ascending, v).

    Columns are sqrt(w_i) * v_i for eigenvalues above the rank threshold
    tol, psd_floor by default, so the column count equals the numerical
    rank. An eigenvalue below -psd_floor raises, whatever tol.
    """
    floor = psd_floor(w)
    if w[0] < -floor:
        raise ValueError("matrix is not positive semidefinite "
                         "(eigenvalue %.3e)" % w[0])
    keep = w > (floor if tol is None else tol)
    return v[:, keep] * np.sqrt(w[keep])
