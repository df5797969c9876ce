import numpy as np
import pytest

from qchan import numkit
from conftest import random_density, random_unitary


def test_vec_is_row_major():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(numkit.mat_to_vec(a), np.array([1, 2, 3, 4]))
    assert np.array_equal(numkit.vec_to_mat(np.array([1, 2, 3, 4]), 2, 2), a)


def test_vec_roundtrip():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.abs(numkit.vec_to_mat(numkit.mat_to_vec(a), n, n) - a).max() == 0


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


def test_sqrt_psd():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 4, rank=2)
    x = numkit.sqrt_psd(rho)
    assert np.abs(x @ x.conj().T - rho).max() < 1e-10
    assert x.shape[1] == 2  # columns only for the numerical rank
    with pytest.raises(ValueError):
        numkit.sqrt_psd(np.diag([1.0, -0.5]))


def test_require_density():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 4, rank=3)
    back, w = numkit.require_density(rho, 4)
    assert np.array_equal(back, rho)
    assert np.abs(w - np.linalg.eigvalsh(rho)).max() < 1e-12
    numkit.require_density(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="2x2"):
        numkit.require_density(rho, 2)
    with pytest.raises(ValueError, match="not a density matrix"):
        numkit.require_density(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError, match="not a density matrix"):
        numkit.require_density(np.diag([1.2, -0.2]))
    with pytest.raises(ValueError, match="not Hermitian"):
        numkit.require_density(np.array([[0.5, 0.1], [0.3, 0.5]]))
