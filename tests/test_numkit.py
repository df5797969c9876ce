import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qchan import capacity, channel, extremal, numkit, qubit
from conftest import random_density, random_unitary


def test_vec_is_row_major():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(numkit.mat_to_vec(a), np.array([1, 2, 3, 4]))


def test_kron_matches_numpy():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.abs(numkit.kron(a, b) - np.kron(a, b)).max() < 1e-14


def test_partial_trace_product():
    rng = np.random.default_rng(2)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    ab = np.kron(a, b)
    # tracing out subsystem 2 keeps the first factor and vice versa
    assert np.abs(numkit.partial_trace(ab, 2, 3, 2) - a).max() < 1e-12
    assert np.abs(numkit.partial_trace(ab, 2, 3, 1) - b).max() < 1e-12


def test_partial_trace_linearity_and_trace():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    t1 = numkit.partial_trace(x, 2, 3, 1)
    t2 = numkit.partial_trace(x, 2, 3, 2)
    assert abs(np.trace(t1) - np.trace(x)) < 1e-12
    assert abs(np.trace(t2) - np.trace(x)) < 1e-12
    assert t1.shape == (3, 3) and t2.shape == (2, 2)


def test_partial_transpose_bell():
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = np.outer(psi, psi)
    for sub in (1, 2):
        w = np.linalg.eigvalsh(numkit.partial_transpose(rho, 2, 2, sub))
        assert abs(w.min() + 0.5) < 1e-12
    # applying the same partial transpose twice is the identity
    pt = numkit.partial_transpose(rho, 2, 2, 1)
    assert np.abs(numkit.partial_transpose(pt, 2, 2, 1) - rho).max() < 1e-14


def _documented_basis(m):
    """The Hermitian basis in the order numkit's helpers document: the
    diagonal units E_ii, then for each i < j in row order
    (E_ij + E_ji) / sqrt(2) and i (E_ji - E_ij) / sqrt(2)."""
    def unit(i, j):
        e = np.zeros((m, m))
        e[i, j] = 1
        return e

    basis = [unit(i, i) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            e = unit(i, j)
            basis += [(e + e.T) / np.sqrt(2), 1j * (e.T - e) / np.sqrt(2)]
    return np.array(basis, dtype=complex)


@pytest.mark.parametrize("m", [*range(1, 10), 16])
def test_hermitian_basis_is_orthonormal(m):
    """hermitian_coords and hermitian_from_coords realize the documented
    orthonormal basis of the Hermitian matrices, diagonal units first."""
    basis = _documented_basis(m)
    assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
    gram = np.einsum("aij,bij->ab", basis.conj(), basis)
    assert np.abs(gram - np.eye(m * m)).max() <= 1e-14
    # the diagonal units lead, so a Q's diagonal is its first m coordinates
    assert np.array_equal(basis[:m], np.eye(m)[:, None] * np.eye(m))
    for b, e in enumerate(np.eye(m * m)):
        assert np.abs(numkit.hermitian_from_coords(e) - basis[b]).max() \
            <= 1e-16
    rng = np.random.default_rng(m)
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    h = g + g.conj().T
    x = numkit.hermitian_coords(h)
    assert np.abs(x - np.einsum("bkj,jk->b", basis, h)).max() <= 1e-13
    assert np.abs(x.imag).max() <= 1e-14
    assert np.abs(numkit.hermitian_from_coords(x.real) - h).max() <= 1e-13
    x = rng.normal(size=m * m)
    assert np.abs(numkit.hermitian_coords(numkit.hermitian_from_coords(x))
                  - x).max() <= 1e-14
    # trailing axes ride along
    stack = rng.normal(size=(m, m, 2, 3))
    assert np.abs(numkit.hermitian_coords(stack)
                  - np.einsum("bkj,jkxy->bxy", basis, stack)).max() <= 1e-13


def test_require_hermitian():
    with pytest.raises(ValueError):
        numkit.require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    a = np.array([[1, 1j], [-1j, 2]])
    assert np.abs(numkit.require_hermitian(a) - a).max() < 1e-14


def test_eigh_random():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4, 6):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = g + g.conj().T
        w, v = numkit.eigh(a)
        assert np.all(np.diff(w) >= -1e-12)  # ascending
        assert np.abs(a @ v - v @ np.diag(w)).max() < 1e-9
        assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-10


def test_svd_random():
    rng = np.random.default_rng(5)
    for shape in ((3, 3), (4, 2), (2, 4)):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        u, s, v = numkit.svd(a)
        assert np.all(np.diff(s) <= 1e-12)  # descending
        rebuilt = (u[:, :s.size] * s) @ v[:, :s.size].conj().T
        assert np.abs(rebuilt - a).max() < 1e-9


def test_takagi_symmetric():
    """A = V diag(s) V^T for complex symmetric A, V unitary, s >= 0."""
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = g + g.T
        v, s = numkit.takagi(a)
        assert np.all(s >= -1e-14)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.abs(v @ np.diag(s) @ v.T - a).max() < 1e-8
        assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-9


def test_takagi_rank_deficient():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    a = g @ g.T  # symmetric, rank 2
    v, s = numkit.takagi(a)
    assert np.abs(v @ np.diag(s) @ v.T - a).max() < 1e-8
    assert np.sum(s > 1e-10) == 2


def test_takagi_repeated_minus_one():
    """A repeated eigenvalue -1 of the unitary coupling, where no
    principal square root exists."""
    o = np.linalg.qr(np.random.default_rng(49).normal(size=(3, 3)))[0]
    a = o @ np.diag([1.0, -1.0, -1.0]) @ o.T
    v, s = numkit.takagi(a)
    assert np.abs(s - 1).max() < 1e-12
    assert np.abs(v @ np.diag(s) @ v.T - a).max() < 1e-10
    assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-10


def test_symmetric_unitary_root_keeps_a_cluster_whole():
    """Phases pi -+ 1e-9 straddle the principal branch cut; they get one
    root, so the root of a near-scalar z stays near-scalar."""
    o = np.linalg.qr(np.random.default_rng(3).normal(size=(2, 2)))[0]
    z = o @ np.diag(np.exp(1j * np.pi * np.array([1 - 1e-9, 1 + 1e-9]))) @ o.T
    q = numkit._symmetric_unitary_root(z)
    assert np.abs(q @ q - z).max() < 1e-12
    assert np.abs(q - q[0, 0] * np.eye(2)).max() < 1e-8


_HALF_TURNS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 1 + 1e-9,
                                         1 - 1e-9]),
                        st.floats(0, 2))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.data())
def test_takagi_symmetric_unitaries(seed, n, data):
    """o diag(exp(i pi k)) o^T for a real orthogonal o: one singular
    value n times over, with clustered and repeated phases."""
    o = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]
    k = np.array(data.draw(st.lists(_HALF_TURNS, min_size=n, max_size=n)))
    a = o @ np.diag(np.exp(1j * np.pi * k)) @ o.T
    v, s = numkit.takagi(a)
    assert np.abs(v @ np.diag(s) @ v.T - a).max() < 1e-10
    assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-10


def test_sqrt_psd():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 4, rank=2)
    x = numkit.sqrt_psd(rho)
    assert np.abs(x @ x.conj().T - rho).max() < 1e-10
    assert x.shape[1] == 2  # columns only for the numerical rank
    w, v = numkit.eigh(rho)
    assert np.array_equal(numkit.psd_factor(w, v), x)
    assert numkit.psd_factor(w, v, tol=w[-1]).shape[1] == 0
    with pytest.raises(ValueError):
        numkit.sqrt_psd(np.diag([1.0, -0.5]))


def test_require_density():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 4, rank=3)
    back, w, v = numkit.require_density(rho, 4)
    assert np.array_equal(back, rho)
    assert np.abs(w - np.linalg.eigvalsh(rho)).max() < 1e-12
    assert np.abs((v * w) @ v.conj().T - rho).max() < 1e-12
    numkit.require_density(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="2x2"):
        numkit.require_density(rho, 2)
    with pytest.raises(ValueError, match="not a density matrix"):
        numkit.require_density(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError, match="not a density matrix"):
        numkit.require_density(np.diag([1.2, -0.2]))
    with pytest.raises(ValueError, match="not Hermitian"):
        numkit.require_density(np.array([[0.5, 0.1], [0.3, 0.5]]))


@pytest.mark.parametrize("eps, ok", [(5e-10, True), (2e-9, False)])
def test_density_checks_share_one_tolerance(eps, ok):
    """Every density input goes through require_density."""
    rho2 = np.diag([1 + eps, -eps]).astype(complex)
    rho4 = np.diag([0.5 + eps, 0.5, 0.0, -eps]).astype(complex)
    checks = [
        lambda: numkit.require_density(rho2),
        lambda: channel.replacer(rho2),
        lambda: extremal.is_extremal_constrained(
            channel.amplitude_damping(0.5), rho2),
        lambda: capacity.von_neumann_entropy(rho2),
        lambda: capacity.Ensemble([(1.0, rho2)]),
        lambda: capacity.classical_correlations(rho4),
        lambda: capacity.fidelity_optimize_one_side(rho4),
        lambda: qubit.concurrence(rho4),
        lambda: qubit.equal_concurrence_decomposition(rho4),
    ]
    for check in checks:
        if ok:
            check()
        else:
            with pytest.raises(ValueError, match="not a density matrix"):
                check()
