"""Dense complex linear algebra at small fixed dimensions.

Matrices are plain numpy arrays (complex128). Everything here is a pure
function; eigenvalues come back ascending, singular values descending,
and all factorizations are residual-checked against their inputs.
"""

import numpy as np
import scipy.linalg

HERM_TOL = 1e-12


def kron(a, b):
    """Tensor product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def mat_to_vec(a):
    """Row-major flatten: vec(A)[i*cols + j] = A[i, j].

    With this convention (X kron Y) @ vec(A) = vec(X A Y^T).
    """
    return np.asarray(a, dtype=complex).reshape(-1)


def vec_to_mat(v, rows, cols):
    """Inverse of mat_to_vec."""
    v = np.asarray(v, dtype=complex)
    if v.size != rows * cols:
        raise ValueError("vector of length %d does not fill a %dx%d matrix"
                         % (v.size, rows, cols))
    return v.reshape(rows, cols)


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


def require_hermitian(m, tol=HERM_TOL):
    """Validate hermiticity (relative tolerance) and return the array."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (m.shape,))
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.conj().T).max() > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def require_density(rho, dim=None):
    """Validate a density matrix; return it with its eigenvalues.

    rho must be Hermitian (require_hermitian), of shape dim x dim when
    dim is given, with eigenvalues above -1e-9 summing to 1 within 1e-9.
    """
    rho = require_hermitian(rho)
    if dim is not None and rho.shape[0] != dim:
        raise ValueError("expected a %dx%d density matrix" % (dim, dim))
    w = eigh(rho)[0]
    if w.min() < -1e-9 or abs(w.sum() - 1) > 1e-9:
        raise ValueError("input is not a density matrix")
    return rho, w


def eigh(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with w real ascending and v orthonormal columns,
    m = v @ diag(w) @ v^dag. Raises on non-Hermitian input and checks the
    reconstruction residual.
    """
    m = require_hermitian(m)
    w, v = np.linalg.eigh(m)
    scale = max(np.abs(w).max(), 1.0)
    if np.abs(v @ np.diag(w) @ v.conj().T - m).max() > 1e-10 * scale:
        raise ArithmeticError("eigh reconstruction residual too large")
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
        raise ArithmeticError("svd reconstruction residual too large")
    return u, s, v


def takagi(s, tol=1e-12):
    """Factor a complex symmetric matrix as s = V diag(sig) V^T.

    Returns (v, sig) with sig nonnegative descending and v unitary.
    Built on the SVD: group columns by singular-value multiplicity, then
    absorb the unitary coupling Z = V_g^T W_g of each group through its
    principal square root.
    """
    s = np.asarray(s, dtype=complex)
    scale = max(np.abs(s).max(), 1.0)
    if np.abs(s - s.T).max() > tol * scale:
        raise ValueError("takagi needs a symmetric matrix")
    u, sig, v = svd(s)
    # cluster equal singular values; exact degeneracy makes Z non-diagonal
    groups = []
    for k in range(sig.size):
        if groups and sig[groups[-1][0]] - sig[k] <= 1e-8 * scale:
            groups[-1].append(k)
        else:
            groups.append([k])
    q = np.zeros((sig.size, sig.size), dtype=complex)
    for g in groups:
        z = u[:, g].T @ v[:, g]
        q[np.ix_(g, g)] = scipy.linalg.sqrtm(z)
    vt = u @ q.conj()
    if np.abs((vt * sig) @ vt.T - s).max() > 1e-10 * scale:
        raise ArithmeticError("takagi reconstruction residual too large")
    return vt, sig


def sqrt_psd(m, tol=None):
    """Square root factor X of a PSD matrix: m = X X^dag.

    Columns are sqrt(w_i) * v_i for eigenvalues above the rank threshold,
    so the column count equals the numerical rank. An eigenvalue below
    -tol raises (input not PSD).
    """
    w, v = eigh(m)
    top = max(w.max(), 0.0)
    if tol is None:
        tol = 1e-9 * max(top, 1.0)
    if w.min() < -tol:
        raise ValueError("matrix is not positive semidefinite "
                         "(eigenvalue %.3e)" % w.min())
    keep = w > tol
    return v[:, keep] * np.sqrt(w[keep])
