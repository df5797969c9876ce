"""Channel capacities and correlation measures.

Covers the quantities that reduce to finite optimizations for qubit
channels: the quantum capacity of rank-2 unital channels (closed form in
the top dual-state eigenvalue), the Holevo quantity by multi-start
ensemble search, its exact fixed-average form for extremal channels via
the channel concurrence, classical correlations of bipartite states
under local measurement, and the best local-channel improvement of
entanglement fidelity, solved as a semidefinite program through its
dual: the value is a primal one, certified by a dual bound within 1e-8.
"""

import numpy as np
import scipy.optimize

from . import numkit, channel, extremal, qubit

LOG2 = np.log(2.0)


def binary_entropy(p):
    """H(p) = -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0."""
    p = float(p)
    if p < -1e-12 or p > 1 + 1e-12:
        raise ValueError("probability out of range: %r" % p)
    p = min(max(p, 0.0), 1.0)
    out = 0.0
    if p > 0:
        out -= p * np.log(p) / LOG2
    if p < 1:
        out -= (1 - p) * np.log(1 - p) / LOG2
    return out


def von_neumann_entropy(rho):
    """Entropy in bits from the eigenvalues, with 0 log 0 = 0."""
    rho = numkit.require_hermitian(rho)
    w = numkit.eigh(rho)[0]
    if w.min() < -1e-9 or abs(w.sum() - 1) > 1e-9:
        raise ValueError("input is not a density matrix")
    w = w[w > 1e-15]
    return float(-(w * np.log(w)).sum() / LOG2)


class Ensemble:
    """Weighted input states {(p_j, rho_j)}."""

    def __init__(self, items):
        items = [(float(p), np.asarray(r, dtype=complex)) for p, r in items]
        total = sum(p for p, _ in items)
        if abs(total - 1) > 1e-12:
            raise ValueError("ensemble weights sum to %r" % total)
        for _, r in items:
            w = numkit.eigh(numkit.require_hermitian(r))[0]
            if w.min() < -1e-9 or abs(w.sum() - 1) > 1e-9:
                raise ValueError("ensemble contains a non-density entry")
        self.items = items

    def average(self):
        return sum(p * r for p, r in self.items)


class Povm:
    """Measurement elements {E_j} with sum E_j = I."""

    def __init__(self, elements):
        elements = [np.asarray(e, dtype=complex) for e in elements]
        dim = elements[0].shape[0]
        for e in elements:
            if numkit.eigh(numkit.require_hermitian(e))[0].min() < -1e-9:
                raise ValueError("POVM element is not PSD")
        if np.abs(sum(elements) - np.eye(dim)).max() > 1e-10:
            raise ValueError("POVM elements do not sum to identity")
        self.elements = elements


class ChiResult:
    """A Holevo-quantity value with the ensemble achieving it."""

    def __init__(self, chi, ensemble, method):
        self.chi = chi
        self.ensemble = ensemble
        self.method = method


def quantum_capacity_rank2_unital(ch):
    """1 - H(p) with p the top dual-state eigenvalue.

    Valid for unital qubit channels of rank at most two (mixtures of two
    unitaries); anything outside that hypothesis is refused rather than
    extrapolated.
    """
    if ch.dim != 2 or not channel.is_tp(ch):
        raise ValueError("need a trace-preserving qubit channel")
    if not channel.is_unital(ch):
        raise ValueError("channel is not unital; formula does not apply")
    if channel.rank(ch) > 2:
        raise ValueError("channel rank exceeds 2; formula does not apply")
    p = float(numkit.eigh(ch.jam)[0][-1])
    return 1.0 - binary_entropy(min(p, 1.0))


# --- Holevo quantity ----------------------------------------------------------

def _bloch_rho(u):
    return (np.eye(2, dtype=complex) + u[0] * qubit.SX + u[1] * qubit.SY
            + u[2] * qubit.SZ) / 2


def _entropy_bloch(v):
    r = min(np.linalg.norm(v), 1.0)
    return binary_entropy((1 + r) / 2)


def _chi_value(lam, t, weights, dirs):
    outs = [t + lam @ u for u in dirs]
    avg = sum(w * v for w, v in zip(weights, outs))
    return _entropy_bloch(avg) - sum(
        w * _entropy_bloch(v) for w, v in zip(weights, outs))


def _angles_to_dirs(ang):
    dirs = []
    for k in range(0, len(ang), 2):
        th, ph = ang[k], ang[k + 1]
        dirs.append(np.array([np.sin(th) * np.cos(ph),
                              np.sin(th) * np.sin(ph), np.cos(th)]))
    return dirs


def holevo_chi(ch, config=None):
    """Maximize S(out of average) - average output entropy over ensembles.

    Pure-state ensembles of two and three states are searched by seeded
    Nelder-Mead restarts in Bloch coordinates, after direct evaluation
    of the cardinal-axis candidates (which makes clean channels like the
    identity exact). The winner is rebuilt as density matrices and the
    value recomputed from them before returning.
    """
    if ch.dim != 2 or not channel.is_tp(ch):
        raise ValueError("need a trace-preserving qubit channel")
    config = dict(config or {})
    seed = config.pop("seed", 0)
    restarts = config.pop("restarts", 64)
    kvals = tuple(config.pop("kvals", (2, 3)))
    if config:
        raise ValueError("unknown config keys: %s" % sorted(config))
    p = qubit.ptm(ch)
    lam, t = p.lam, p.t
    rng = np.random.default_rng(seed)

    best = (-1.0, None, None)
    # antipodal pairs along the cardinal axes, evaluated exactly
    for axis in np.eye(3):
        ws = [0.5, 0.5]
        ds = [axis, -axis]
        val = _chi_value(lam, t, ws, ds)
        if val > best[0]:
            best = (val, ws, ds)

    for k in kvals:
        def objective(x, k=k):
            raw = np.concatenate([x[:k - 1], [0.0]])
            w = np.exp(raw - raw.max())
            w /= w.sum()
            dirs = _angles_to_dirs(x[k - 1:])
            return -_chi_value(lam, t, w, dirs)

        npar = (k - 1) + 2 * k
        for trial in range(restarts):
            angles = np.concatenate([
                [np.arccos(rng.uniform(-1, 1)), rng.uniform(-np.pi, np.pi)]
                for _ in range(k)])
            x0 = np.concatenate([rng.normal(scale=0.5, size=k - 1), angles])
            res = scipy.optimize.minimize(
                objective, x0, method="Nelder-Mead",
                options={"maxiter": 600 * npar, "xatol": 1e-10,
                         "fatol": 1e-12})
            if -res.fun > best[0]:
                raw = np.concatenate([res.x[:k - 1], [0.0]])
                w = np.exp(raw - raw.max())
                w /= w.sum()
                best = (-res.fun, list(w), _angles_to_dirs(res.x[k - 1:]))

    val, ws, ds = best
    keep = [(w, d) for w, d in zip(ws, ds) if w > 1e-12]
    total = sum(w for w, _ in keep)
    ens = Ensemble([(w / total, _bloch_rho(d)) for w, d in keep])
    avg_out = channel.apply(ch, ens.average())
    recomputed = von_neumann_entropy(avg_out) - sum(
        w * von_neumann_entropy(channel.apply(ch, r))
        for w, r in ens.items)
    if abs(recomputed - val) > 1e-9:
        raise RuntimeError("ensemble does not reproduce the reported value")
    return ChiResult(float(recomputed), ens, "multistart")


def _channel_concurrence_pair(a1, a2):
    return a1.T @ qubit.SY @ a2 - a2.T @ qubit.SY @ a1


def chi_given_average(ch, rho_avg):
    """Exact ensemble-entropy minimum at a fixed average input.

    For an extremal rank-2 qubit channel the minimal average output
    entropy over all decompositions of rho_avg is f(C) with C the
    concurrence of X^T (A1^T sy A2 - A2^T sy A1) X, X a square root of
    rho_avg, and f(C) = H((1 + sqrt(1-C^2))/2). Returns
    S(out of rho_avg) - f(C). Unitary channels give f = 0.
    """
    if ch.dim != 2 or not channel.is_tp(ch):
        raise ValueError("need a trace-preserving qubit channel")
    rho_avg = numkit.require_hermitian(np.asarray(rho_avg, dtype=complex))
    ks = channel.kraus_from_choi(ch.choi_pair)
    if len(ks) == 1:
        cval = 0.0
    elif len(ks) == 2:
        if not extremal.is_extremal_tp(ch):
            raise ValueError("rank-2 channel is not extremal; the "
                             "closed form does not apply")
        x = numkit.sqrt_psd(rho_avg, tol=1e-13)
        tau = x.T @ _channel_concurrence_pair(ks[0], ks[1]) @ x
        sig = numkit.svd(tau)[1]
        sig = np.concatenate([sig, np.zeros(2)])[:2]
        cval = float(min(max(sig[0] - sig[1], 0.0), 1.0))
    else:
        raise ValueError("channel rank exceeds 2")
    f = binary_entropy((1 + np.sqrt(max(1 - cval * cval, 0.0))) / 2)
    return von_neumann_entropy(channel.apply(ch, rho_avg)) - f


# --- classical correlations ---------------------------------------------------

def _steered(rho_ab, element, measured_first):
    """Probability and steered remote state for one POVM element."""
    eye = np.eye(2, dtype=complex)
    if measured_first:
        op = numkit.kron(element, eye)
        traced = 1
    else:
        op = numkit.kron(eye, element)
        traced = 2
    weighted = numkit.partial_trace(op @ rho_ab, 2, 2, traced)
    weighted = (weighted + weighted.conj().T) / 2
    p = float(np.trace(weighted).real)
    return p, weighted


def _correlation_value(rho_ab, elements, measured_first, s_remote):
    val = s_remote
    for e in elements:
        p, weighted = _steered(rho_ab, e, measured_first)
        if p < 1e-12:
            continue
        val -= p * von_neumann_entropy(weighted / p)
    return val


def _fibonacci_sphere(m):
    k = np.arange(m)
    golden = (1 + np.sqrt(5)) / 2
    z = 1 - 2 * (k + 0.5) / m
    r = np.sqrt(1 - z * z)
    phi = 2 * np.pi * k / golden
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def classical_correlations(rho_ab, side="b", seed=0):
    """Correlations extractable by measuring one qubit of a pair.

    side "b": measure subsystem A and quantify the entropy reduction of
    B (and symmetrically for side "a"). Two-outcome projective
    measurements are scanned over a dense Bloch grid and polished;
    seeded random 3- and 4-outcome rank-1 POVMs then refine the result,
    which therefore never decreases with the extra stage. A lower bound
    by construction.
    """
    rho_ab = numkit.require_hermitian(np.asarray(rho_ab, dtype=complex))
    if rho_ab.shape != (4, 4):
        raise ValueError("expected a two-qubit density matrix")
    w = numkit.eigh(rho_ab)[0]
    if w.min() < -1e-9 or abs(w.sum() - 1) > 1e-9:
        raise ValueError("input is not a density matrix")
    if side not in ("a", "b"):
        raise ValueError("side must be 'a' or 'b'")
    measured_first = side == "b"
    remote = numkit.partial_trace(rho_ab, 2, 2, 1 if measured_first else 2)
    s_remote = von_neumann_entropy(remote)

    def proj_value(direction):
        p_plus = _bloch_rho(direction)
        return _correlation_value(rho_ab, [p_plus, np.eye(2) - p_plus],
                                  measured_first, s_remote)

    best = 0.0
    dirs = _fibonacci_sphere(400)
    vals = [proj_value(d) for d in dirs]
    best_idx = int(np.argmax(vals))
    best = max(best, vals[best_idx])
    d0 = dirs[best_idx]
    th0, ph0 = np.arccos(np.clip(d0[2], -1, 1)), np.arctan2(d0[1], d0[0])
    res = scipy.optimize.minimize(
        lambda a: -proj_value(np.array([np.sin(a[0]) * np.cos(a[1]),
                                        np.sin(a[0]) * np.sin(a[1]),
                                        np.cos(a[0])])),
        np.array([th0, ph0]), method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12})
    best = max(best, -res.fun)

    rng = np.random.default_rng(seed)
    for outcomes in (3, 4):
        for _ in range(120):
            vecs = rng.normal(size=(outcomes, 2)) \
                + 1j * rng.normal(size=(outcomes, 2))
            g = sum(np.outer(v, v.conj()) for v in vecs)
            gw, gv = np.linalg.eigh(g)
            if gw.min() < 1e-9:
                continue
            gis = gv @ np.diag(gw ** -0.5) @ gv.conj().T
            els = [np.outer(gis @ v, (gis @ v).conj()) for v in vecs]
            els = Povm(els).elements
            best = max(best, _correlation_value(rho_ab, els,
                                                measured_first, s_remote))
    return float(max(best, 0.0))


# --- one-sided fidelity optimization -------------------------------------------

def _fidelity_weight_matrix(rho_ab):
    """M with F(Phi) = Tr(choi(Phi) M) for the fixed input state."""
    r4 = np.asarray(rho_ab, dtype=complex).reshape(2, 2, 2, 2)
    m = 0.5 * r4.transpose(3, 2, 1, 0).reshape(4, 4)
    return numkit.require_hermitian(m)


# Tr(C (sigma_mu (x) I)), mu = 0..3, are the Pauli coordinates of Tr_out C:
# (2, 0, 0, 0) exactly when C is the Choi matrix of a trace-preserving map
_PAULI_IN = np.array([numkit.kron(s, np.eye(2)) for s in qubit.PAULIS])
_TP_COORDS = np.array([2.0, 0.0, 0.0, 0.0])
# smoothing temperatures of the dual, each stage warm-started by the last
_TEMPERATURES = (1e-2, 1e-5, 1e-8, 1e-11)


def _smoothed_dual(z, m, t):
    """t log Tr exp(A / t) for A = M - (z . sigma) (x) I, and its gradient."""
    w, v = np.linalg.eigh(m - np.tensordot(z, _PAULI_IN[1:], 1))
    e = np.exp((w - w[-1]) / t)
    rho = (v * (e / e.sum())) @ v.conj().T
    grad = -np.einsum("ij,kji->k", rho, _PAULI_IN[1:]).real
    return w[-1] + t * np.log(e.sum()), grad


def _tp_map(w):
    """The trace condition on Choi matrices w Q w^dag, as a real matrix.

    Returns an orthonormal basis of the Hermitian k x k matrices Q (k
    columns in w) and the matrix taking the coordinates of Q in that
    basis to the Pauli coordinates of Tr_out(w Q w^dag).
    """
    basis = np.array(extremal._herm_basis(w.shape[1]))
    g = np.einsum("ai,mab,bj->mij", w.conj(), _PAULI_IN, w)
    return basis, np.einsum("bij,mji->mb", basis, g).real


def _channel_on(w, m):
    """At most two Kraus operators of a TP map with Choi support in span(w).

    Solves Tr_out(w P w^dag) = I for P and keeps its positive part. Above
    rank two it steps along trace-condition-preserving directions that do
    not lower Tr(C M) until an eigenvalue of P vanishes, which ends at an
    extreme point. The congruence by (sum A^dag A)^(-1/2) then makes the
    map exactly TP. None when the positive part is too far from TP.
    """
    basis, lmat = _tp_map(w)
    x = np.linalg.lstsq(lmat, _TP_COORDS, rcond=None)[0]
    p = np.tensordot(x, basis, 1)
    while True:
        pw, pv = np.linalg.eigh(p)
        w, d = w @ pv[:, pw > 1e-12], pw[pw > 1e-12]
        if d.size <= 2:
            break
        basis, lmat = _tp_map(w)
        q = np.tensordot(np.linalg.svd(lmat)[2][-1], basis, 1)
        if np.trace(q @ w.conj().T @ m @ w).real < 0:
            q = -q
        # Q is traceless, so P + s Q turns singular at a finite s > 0
        s = -1 / np.linalg.eigvalsh(q / np.sqrt(np.outer(d, d)))[0]
        p = np.diag(d) + s * q
    ks = [np.sqrt(dk) * wk.reshape(2, 2).T for dk, wk in zip(d, w.T)]
    kw, kv = np.linalg.eigh(sum((a.conj().T @ a for a in ks),
                                np.zeros((2, 2))))
    if kw.min() < 0.5:
        return None
    return [a @ (kv / np.sqrt(kw)) @ kv.conj().T for a in ks]


def _fidelity_primal_dual(m):
    """Certified maximum of Tr(C M) over Choi matrices C of qubit channels.

    The dual, min Tr Y s.t. Y (x) I >= M, becomes the minimum over z in R^3
    of 2 lam_max(M - (z . sigma) (x) I) with Y = Z + lam_max(M - Z (x) I) I
    and Z = z . sigma traceless. BFGS minimizes a smoothed maximum at
    falling temperatures. The primal channel lives on the top eigenspace
    of M - Z (x) I; each eigenspace dimension is tried, the best kept.
    Returns (primal value, dual bound, Channel).
    """
    z = np.zeros(3)
    for t in _TEMPERATURES:
        z = scipy.optimize.minimize(_smoothed_dual, z, args=(m, t), jac=True,
                                    method="BFGS", options={"gtol": 1e-9}).x
    w, v = np.linalg.eigh(m - np.tensordot(z, _PAULI_IN[1:], 1))
    # allowance for eigenvalue rounding, so the bound stays a bound
    bound = 2 * (w[-1] + 16 * np.finfo(float).eps * max(np.abs(w).max(), 1))
    cands = [ks for ks in (_channel_on(v[:, k:], m) for k in range(4)) if ks]
    ch = channel.Channel(max(cands, key=lambda ks: np.trace(
        channel.choi_matrix(ks) @ m).real))
    return float(np.trace(ch.choi @ m).real), float(bound), ch


def fidelity_optimize_one_side(rho_ab):
    """Best singlet-fraction improvement by a channel on one qubit.

    Maximizes the overlap of (I x Phi)(rho) with the maximally entangled
    state over trace-preserving Phi, a linear functional Tr(C M) of the
    Choi matrix C of Phi. Solved as a semidefinite program through its
    three-parameter dual: the returned value is the primal Tr(C M) of
    the returned channel, which is trace-preserving and of Choi rank at
    most two, and a dual bound certifies it to within 1e-8. Raises
    RuntimeError if the bound is further away.
    """
    rho_ab = numkit.require_hermitian(np.asarray(rho_ab, dtype=complex))
    if rho_ab.shape != (4, 4):
        raise ValueError("expected a two-qubit density matrix")
    w = numkit.eigh(rho_ab)[0]
    if w.min() < -1e-9 or abs(w.sum() - 1) > 1e-9:
        raise ValueError("input is not a density matrix")
    val, bound, ch = _fidelity_primal_dual(_fidelity_weight_matrix(rho_ab))
    if bound - val > 1e-8:
        raise RuntimeError("fidelity optimum not certified: primal %.12f, "
                           "dual bound %.12f" % (val, bound))
    return val, ch
