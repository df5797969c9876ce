"""Shared random-object helpers for the test suite."""

import numpy as np

from qchan import channel, qubit


def random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(rng, n, rank=None):
    r = rank if rank is not None else n
    g = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_tp_channel(rng, n, m):
    """Random trace-preserving channel with m Kraus operators.

    Blocks of a Haar-random (n*m, n) isometry; the column orthonormality
    of the isometry is exactly the trace-preserving condition.
    """
    g = rng.normal(size=(n * m, n)) + 1j * rng.normal(size=(n * m, n))
    q = np.linalg.qr(g)[0]
    return channel.Channel([q[k * n:(k + 1) * n, :] for k in range(m)],
                           require_tp=True)


def pauli_channel(s1, s2, s3):
    """Pauli-diagonal channel with distortion diag(s1, s2, s3)."""
    w = np.array([1 + s1 + s2 + s3, 1 + s1 - s2 - s3,
                  1 - s1 + s2 - s3, 1 - s1 - s2 + s3]) / 4
    if w.min() < 0:
        raise ValueError("not completely positive")
    ops = [np.sqrt(w[0]) * np.eye(2, dtype=complex),
           np.sqrt(w[1]) * qubit.SX,
           np.sqrt(w[2]) * qubit.SY,
           np.sqrt(w[3]) * qubit.SZ]
    return channel.Channel(ops, require_tp=True)


def random_sl2(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return g / np.sqrt(np.linalg.det(g))


def template_channel(x):
    """Bloch matrix T(x), the non-generic template: amplitude damping at
    2/3, then a phase flip with 1 - 2p = x."""
    flip = channel.phase_flip((1 - x) / 2)
    damp = channel.amplitude_damping(2 / 3)
    return channel.Channel([f @ d for f in flip.kraus for d in damp.kraus])


def filtered_tp(ch, a, b):
    """Filter on both sides, then renormalize back to trace preservation."""
    ks = [b @ k @ a for k in ch.kraus]
    s = sum(k.conj().T @ k for k in ks)
    w, v = np.linalg.eigh(s)
    s_inv_half = (v / np.sqrt(w)) @ v.conj().T
    return channel.Channel([k @ s_inv_half for k in ks], require_tp=True)


def count_choi_factorizations(monkeypatch, choi):
    """Patch numpy's Hermitian eigensolvers to record each call whose
    matrix is choi up to scale; returns the list of recorded calls."""
    target = choi / np.trace(choi)
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, solve=getattr(np.linalg, name), **kwargs):
            m = np.asarray(a)
            if m.shape == target.shape and abs(np.trace(m)) > 0 \
                    and np.abs(m / np.trace(m) - target).max() < 1e-12:
                calls.append(solve.__name__)
            return solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls
