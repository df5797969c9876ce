"""Channel capacities and correlation measures.

Covers the quantities that reduce to finite optimizations for qubit
channels: the quantum capacity of rank-2 unital channels (closed form in
the top dual-state eigenvalue), the Holevo quantity, its exact
fixed-average form for extremal channels via the channel concurrence,
classical correlations of bipartite states under local measurement, and
the best local-channel improvement of entanglement fidelity, solved as a
semidefinite program through its dual. All three optimizers certify
their answer with a bound within 1e-8: the Holevo quantity a lower
bound from an ensemble and the minimax upper bound, classical
correlations the value of a POVM and the dual bound of the measurement
linear program, the fidelity a primal value and its dual bound.
"""

import numpy as np
import scipy.optimize
import scipy.special

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
    w = numkit.require_density(rho)[1]
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
            numkit.require_density(r)
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
    """A Holevo-quantity value, the ensemble achieving it, and a bound.

    upper_bound is the minimax bound; the true chi lies between chi and
    upper_bound.
    """

    def __init__(self, chi, ensemble, method, upper_bound):
        self.chi = chi
        self.ensemble = ensemble
        self.method = method
        self.upper_bound = upper_bound


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


def _fibonacci_sphere(m):
    k = np.arange(m)
    golden = (1 + np.sqrt(5)) / 2
    z = 1 - 2 * (k + 0.5) / m
    r = np.sqrt(1 - z * z)
    phi = 2 * np.pi * k / golden
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


# input directions of the Blahut-Arimoto stage and of the grid maximum
_GRID = _fibonacci_sphere(400)
_BA_ITERATIONS = 300
# gap at which column generation stops; holevo_chi accepts up to 1e-8
_CHI_TARGET_GAP = 1e-10
_CHI_ROUNDS = 4


def _entropy(r):
    """H((1 + |r|) / 2) in bits for Bloch vectors r of shape (..., 3)."""
    n = np.minimum(np.linalg.norm(r, axis=-1), 1.0)
    p, q = (1 + n) / 2, (1 - n) / 2
    return -(scipy.special.xlogy(p, p) + scipy.special.xlogy(q, q)) / LOG2


def _entropy_slopes(r):
    """c1, c2 with grad H = -c1 r / ln 2, Hess H = -(c1 I + c2 r r^T) / ln 2.

    H is _entropy at Bloch vectors r of shape (k, 3). The norm is capped
    just below 1, where the slope is infinite; series replace the
    ratios near 0.
    """
    n = np.minimum(np.sqrt(np.sum(r * r, axis=-1)), 1 - 1e-12)
    small = n < 1e-4
    ns = np.where(small, 0.5, n)
    c1 = np.where(small, 1 + n * n / 3, np.arctanh(ns) / ns)
    c2 = np.where(small, 2 / 3 + 4 * n * n / 5,
                  (1 / (1 - ns * ns) - c1) / (ns * ns))
    return c1, c2


def _tangent_bases(u):
    """Orthonormal bases (k, 3, 2) of the tangent planes at unit vectors u."""
    e = np.eye(3)[np.argmin(np.abs(u), axis=1)]
    b1 = e - np.sum(e * u, axis=1)[:, None] * u
    b1 /= np.sqrt(np.sum(b1 * b1, axis=1))[:, None]
    b2 = u[:, [1, 2, 0]] * b1[:, [2, 0, 1]] - u[:, [2, 0, 1]] * b1[:, [1, 2, 0]]
    return np.stack([b1, b2], axis=2)


def _output_hessians(lam, u, r, c1, c2):
    """Tangent-plane images l = lam B of the inputs and the Hessians of H
    along them, B^T lam^T Hess H(r) lam B, formed from l^T r so that
    the large radial curvature of nearly pure outputs cancels exactly."""
    l = np.einsum("ab,ibc->iac", lam, _tangent_bases(u))
    lr = np.einsum("iac,ia->ic", l, r)
    return l, -(c1[:, None, None] * np.einsum("iac,iad->icd", l, l)
                + c2[:, None, None] * lr[:, :, None] * lr[:, None, :]) / LOG2


def _simplex_basis(k):
    """Orthonormal basis (k, k - 1) of the weight changes summing to 0."""
    return np.linalg.svd(np.ones((1, k)))[2][1:].T


def _chi_terms(lam, t, w, u):
    """chi of the pure-state ensemble (w, u), with gradient and Hessian.

    Derivatives are taken in the weights, restricted to sum(w) = 1 by
    the orthonormal basis z of that plane, and in the tangent planes of
    the input directions, with the sphere's curvature term.
    """
    k = len(w)
    r = t + u @ lam.T
    rbar = w @ r
    h = _entropy(r)
    c1, c2 = _entropy_slopes(np.vstack([rbar, r]))
    gb = -c1[0] * rbar / LOG2
    hb = -(c1[0] * np.eye(3) + c2[0] * np.outer(rbar, rbar)) / LOG2
    dg = gb + c1[1:, None] * r / LOG2
    l, own = _output_hessians(lam, u, r, c1[1:], c2[1:])
    slope = np.einsum("iac,ia->ic", l, dg)
    lhb = np.einsum("iac,ab->icb", l, hb)
    hdd = np.einsum("i,j,icb,jbd->icjd", w, w, lhb, l)
    curv = w * np.sum((r - t) * dg, axis=1)
    for i in range(k):
        hdd[i, :, i, :] -= w[i] * own[i] + curv[i] * np.eye(2)
    hwd = w[None, :, None] * np.einsum("icb,jb->jic", lhb, r)
    hwd[np.arange(k), np.arange(k)] += slope
    z = _simplex_basis(k)
    hwd = z.T @ hwd.reshape(k, 2 * k)
    grad = np.concatenate([z.T @ (r @ gb - h), (w[:, None] * slope).ravel()])
    hess = np.block([[z.T @ r @ hb @ r.T @ z, hwd],
                     [hwd.T, hdd.reshape(2 * k, 2 * k)]])
    return _entropy(rbar) - w @ h, grad, hess


def _divergence(lam, t, s, u):
    """D(Phi(u) || sigma_s) in bits for input directions u (k, 3)."""
    r = t + u @ lam.T
    ns = np.linalg.norm(s)
    shat = s / ns if ns > 0 else s
    a = 0.5 * np.log((1 - ns * ns) / 4)
    return -_entropy(r) - (a + np.arctanh(ns) * (r @ shat)) / LOG2


def _divergence_terms(lam, t, s, u):
    """D(Phi(u) || sigma_s) at one direction u, with tangent derivatives."""
    r = t + lam @ u
    ns = np.linalg.norm(s)
    c1, c2 = _entropy_slopes(r[None])
    slope = (c1[0] * r - np.arctanh(ns) * s / max(ns, 1e-300)) / LOG2
    l, own = _output_hessians(lam, u[None], r[None], c1, c2)
    hess = -own[0] - ((r - t) @ slope) * np.eye(2)
    return _divergence(lam, t, s, u[None])[0], l[0].T @ slope, hess


def _ascend(terms, move, x, cutoff=1e-10, iterations=100):
    """Maximize by Newton steps on |Hessian|, halving until no decrease.

    terms(x) gives (value, gradient, Hessian) in local coordinates and
    move(x, step) the point those coordinates name. Eigenvalues of the
    Hessian are taken by magnitude, so every step points uphill;
    directions whose curvature is below cutoff times the largest are
    left alone. Stops when the gradient along the others is at rounding
    level or no step gains.
    """
    f, g, h = terms(x)
    for _ in range(iterations):
        mu, v = np.linalg.eigh(h)
        mu = np.abs(mu)
        gv = np.where(mu > cutoff * max(mu.max(), 1e-2), v.T @ g, 0.0)
        if np.abs(gv).max(initial=0.0) <= 1e-12:
            break
        step = v @ (gv / np.maximum(mu, 1e-300))
        tau = 1.0
        while tau > 1e-12:
            x_new = move(x, tau * step)
            f_new, g_new, h_new = terms(x_new)
            if f_new >= f - 1e-14:
                break
            tau /= 2
        else:
            break
        x, f, g, h = x_new, f_new, g_new, h_new
    return x, f


def _move_on_sphere(u, step):
    """The unit vector a tangent-plane step away from u."""
    v = u + _tangent_bases(u[None])[0] @ step
    return v / np.linalg.norm(v)


def _move_ensemble(ens, step):
    """Step an ensemble, stopping where a weight reaches 0; it then leaves."""
    w, u = ens
    k = len(w)
    dw = _simplex_basis(k) @ step[:k - 1]
    falling = dw < 0
    frac = min(1.0, (w[falling] / -dw[falling]).min(initial=np.inf))
    w = w + frac * dw
    u = u + frac * np.einsum("iac,ic->ia", _tangent_bases(u),
                             step[k - 1:].reshape(k, 2))
    keep = w > 1e-15
    return (w[keep] / w[keep].sum(),
            u[keep] / np.linalg.norm(u[keep], axis=1)[:, None])


def _polish_ensemble(lam, t, w, u):
    """Newton ascent of chi in the weights and directions of (w, u).

    A second pass moves only along well-curved directions. Nearly flat
    ones (inputs whose outputs are almost pure) can keep the first pass
    taking long steps, which leaves the average output off balance; the
    second pass settles it.
    """
    def terms(ens):
        return _chi_terms(lam, t, *ens)

    ens = _ascend(terms, _move_ensemble, (w, u))[0]
    return _ascend(terms, _move_ensemble, ens, cutoff=1e-4)[0]


def _divergence_max(lam, t, s, starts):
    """max over the sphere of D(Phi(u) || sigma_s): grid, then polish.

    The three best grid points and the given starts are polished by
    Newton ascent on the sphere. Returns (value, u).
    """
    vals = _divergence(lam, t, s, _GRID)
    starts = np.concatenate([_GRID[np.argsort(vals)[-3:]], starts])

    best = (-np.inf, None)
    for u0 in starts:
        u, val = _ascend(lambda v: _divergence_terms(lam, t, s, v),
                         _move_on_sphere, u0)
        best = max(best, (val, u), key=lambda p: p[0])
    return best


def _blahut_arimoto(lam, t):
    """Weights on _GRID after _BA_ITERATIONS of w <- w 2^D(r_i || rbar)."""
    r = t + _GRID @ lam.T
    w = np.full(len(_GRID), 1 / len(_GRID))
    for _ in range(_BA_ITERATIONS):
        d = _divergence(lam, t, (1 - 1e-12) * (w @ r), _GRID)
        w = w * np.exp2(d - d.max())
        w /= w.sum()
    return w


def _cluster(w, dirs):
    """Merge weights on directions into at most four weighted directions.

    Directions within 0.35 rad (two spacings of _GRID) of a heavier
    group join it. Four is enough: an optimal qubit ensemble needs at
    most four pure states, an optimal qubit POVM at most four outcomes.
    """
    groups = []
    for j in np.argsort(-w):
        if w[j] < 1e-4 * w.max():
            break
        for grp in groups:
            if dirs[j] @ grp[1] / np.linalg.norm(grp[1]) > np.cos(0.35):
                grp[0] += w[j]
                grp[1] += w[j] * dirs[j]
                break
        else:
            groups.append([w[j], w[j] * dirs[j]])
    groups = sorted(groups, key=lambda grp: -grp[0])[:4]
    ws = np.array([grp[0] for grp in groups])
    us = np.array([grp[1] / np.linalg.norm(grp[1]) for grp in groups])
    return ws / ws.sum(), us


def _chi_bounds(lam, t, w, u):
    """chi of the ensemble (w, u), the minimax bound at its average output,
    and the input direction attaining that bound."""
    r = t + u @ lam.T
    rbar = w @ r
    # any sigma gives a bound; mixing in 1e-12 of I/2 keeps log sigma finite
    s = (1 - 1e-12) * rbar
    upper, u_star = _divergence_max(lam, t, s, u)
    # allowance for rounding in terms up to atanh|s|, so the bound stays one
    upper += 256 * np.finfo(float).eps * (1 + np.arctanh(np.linalg.norm(s)))
    return _entropy(rbar) - w @ _entropy(r), upper, u_star


def _chi_primal_dual(lam, t):
    """Ensemble (w, u) with its chi and a minimax upper bound."""
    w, u = _cluster(_blahut_arimoto(lam, t), _GRID)
    if len(w) < 2:  # one state carries no information; start from a pair
        w, u = np.array([0.5, 0.5]), np.concatenate([u, -u])
    for k in range(_CHI_ROUNDS):
        w, u = _polish_ensemble(lam, t, w, u)
        lower, upper, u_star = _chi_bounds(lam, t, w, u)
        if upper - lower <= _CHI_TARGET_GAP or k == _CHI_ROUNDS - 1:
            break
        w, u = np.append(0.99 * w, 0.01), np.vstack([u, u_star])
    # antipodal pairs along the cardinal axes, exact for clean channels;
    # every sigma gives a bound, so the lower of the two is kept
    for axis in np.eye(3):
        pair = (np.array([0.5, 0.5]), np.array([axis, -axis]))
        r = t + pair[1] @ lam.T
        if _entropy(pair[0] @ r) - pair[0] @ _entropy(r) >= lower:
            (w, u), (lower, pair_upper, _) = pair, _chi_bounds(lam, t, *pair)
            upper = min(upper, pair_upper)
    return w, u, lower, upper


def holevo_chi(ch):
    """Maximize S(out of average) - average output entropy over ensembles.

    Works on the Bloch map r = t + lam u of the channel. A lower bound
    comes from a pure-state ensemble: Blahut-Arimoto weights on a grid
    of input directions, merged into at most four points and polished
    by Newton steps on weights and directions, with the cardinal
    antipodal pairs as extra candidates (exact for clean channels like
    the identity). The upper bound is the minimax one,
    chi <= max over pure psi of D(Phi(psi) || sigma), at sigma the output
    of the ensemble's average; the inner maximum comes from a grid plus
    local polish. While the gap is wide the maximizer joins the ensemble
    and the polish runs again. The ensemble is rebuilt as density
    matrices and its value recomputed from them. Raises RuntimeError if
    the upper bound is more than 1e-8 above that value.
    """
    if ch.dim != 2 or not channel.is_tp(ch):
        raise ValueError("need a trace-preserving qubit channel")
    p = qubit.ptm(ch)
    w, u, val, upper = _chi_primal_dual(p.lam, p.t)
    ens = Ensemble([(wk, _bloch_rho(uk)) for wk, uk in zip(w, u)])
    avg_out = channel.apply(ch, ens.average())
    recomputed = von_neumann_entropy(avg_out) - sum(
        wk * von_neumann_entropy(channel.apply(ch, r))
        for wk, r in ens.items)
    if abs(recomputed - val) > 1e-9:
        raise RuntimeError("ensemble does not reproduce the reported value")
    if upper - recomputed > 1e-8:
        raise RuntimeError("Holevo chi not certified: ensemble %.12f, "
                           "upper bound %.12f" % (recomputed, upper))
    # chi >= 0; a constant channel's entropies cancel to 0 or -0.0
    return ChiResult(max(0.0, float(recomputed)), ens,
                     "blahut-arimoto minimax", float(upper))


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

def _correlation_value(rho_ab, elements, measured_first, s_remote):
    """S(remote) less the average remote entropy the POVM leaves.

    Outcome E leaves p S(W / p) with W = Tr_measured((E (x) I) rho) and
    p = Tr W, taken as -(sum l log l - p log p) over the eigenvalues l
    of W, which stays accurate for improbable outcomes.
    """
    eye = np.eye(2)
    val = s_remote
    for e in elements:
        if measured_first:
            w = numkit.partial_trace(numkit.kron(e, eye) @ rho_ab, 2, 2, 1)
        else:
            w = numkit.partial_trace(numkit.kron(eye, e) @ rho_ab, 2, 2, 2)
        lam = np.maximum(numkit.eigh((w + w.conj().T) / 2)[0], 0.0)
        val += (scipy.special.xlogy(lam, lam).sum()
                - scipy.special.xlogy(lam.sum(), lam.sum())) / LOG2
    return val


_PAULI_PAIRS = np.array([[numkit.kron(s, t) for t in qubit.PAULIS]
                         for s in qubit.PAULIS])
# gap at which column generation stops; classical_correlations accepts 1e-8
_CORRELATION_TARGET_GAP = 1e-10
_CORRELATION_ROUNDS = 4


def _correlation_frame(rho_ab, measured_first):
    """Bloch data (a, b, T) of rho_ab with the measured qubit's first:
    rho = (I + a.sigma (x) I + I (x) b.sigma + T_ij sigma_i (x) sigma_j) / 4
    in the order (measured, remote)."""
    r = np.einsum("mnij,ji->mn", _PAULI_PAIRS, rho_ab).real
    if not measured_first:
        r = r.T
    return r[1:, 0], r[0, 1:], r[1:, 1:]


def _conditional(frame, u):
    """f(u) = p S(v / p) in bits for measured directions u (k, 3).

    The outcome c (I + u.sigma) has probability c p, p = 1 + a.u, and
    leaves the remote qubit at Bloch vector v / p, v = b + T^T u. Written
    as the perspective -(q+ log q+ + q- log q- - p log p) / ln 2 with
    q+- = (p +- |v|) / 2, so it stays finite as p -> 0.
    """
    a, b, tt = frame
    p = np.maximum(1 + u @ a, 0.0)
    nv = np.sqrt(np.sum((b + u @ tt) ** 2, axis=-1))
    qp, qm = (p + nv) / 2, np.maximum((p - nv) / 2, 0.0)
    return -(scipy.special.xlogy(qp, qp) + scipy.special.xlogy(qm, qm)
             - scipy.special.xlogy(p, p)) / LOG2


def _conditional_terms(frame, u):
    """_conditional at directions u (k, 3) with its gradient (k, 3) and
    Hessian (k, 3, 3) in the ambient coordinates of u.

    With rho = v / p and l = p d rho / du = T^T - rho a^T, the Hessian
    is l^T Hess H(rho) l / p, formed from l^T rho so that the large
    radial curvature of nearly pure remote states cancels exactly.
    """
    a, b, tt = frame
    p = np.maximum(1 + u @ a, 1e-100)
    v = b + u @ tt
    # |v| <= p but for rounding; a pure remote state stays pure
    rho = v / np.maximum(p, np.sqrt(np.sum(v * v, axis=1)))[:, None]
    c1, c2 = _entropy_slopes(rho)
    dh = -c1[:, None] * rho / LOG2
    l = tt.T[None] - rho[:, :, None] * a[None, None, :]
    lr = np.einsum("kji,kj->ki", l, rho)
    grad = (_entropy(rho) - np.sum(rho * dh, axis=1))[:, None] * a \
        + dh @ tt.T
    hess = -(c1[:, None, None] * np.einsum("kji,kjl->kil", l, l)
             + c2[:, None, None] * lr[:, :, None] * lr[:, None, :]) \
        / (LOG2 * p[:, None, None])
    return _conditional(frame, u), grad, hess


def _tangent_curvature(bases, u, hess, slope):
    """B^T Hess B - (u . slope) I: the Hessian along the sphere at u."""
    return (np.einsum("kai,kab,kbj->kij", bases, hess, bases)
            - np.sum(u * slope, axis=1)[:, None, None] * np.eye(2))


def _measurement_lp(frame, u):
    """Weights c >= 0 on directions u minimizing sum c f(u) subject to
    sum c = 1 and sum c u = 0, with the LP dual (y0, y)."""
    res = scipy.optimize.linprog(
        _conditional(frame, u), A_eq=np.vstack([np.ones(len(u)), u.T]),
        b_eq=np.array([1.0, 0.0, 0.0, 0.0]), method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError("measurement LP failed: %s" % res.message)
    return res.x, res.eqlin.marginals[0], res.eqlin.marginals[1:]


def _kkt_system(frame, c, u, y, y0):
    """Residual and Jacobian of the optimality conditions of a POVM.

    Conditions: f(u_i) = y0 + y.u_i and the tangent part of grad f(u_i)
    equals that of y (each u_i minimizes f - y.u at level y0), sum c = 1
    and sum c u = 0. Unknowns in order: tangent steps of the u_i, c, y,
    y0.
    """
    k = len(c)
    f, grad, hess = _conditional_terms(frame, u)
    bases = _tangent_bases(u)
    gy = grad - y
    slope = np.einsum("kab,ka->kb", bases, gy)
    curv = _tangent_curvature(bases, u, hess, gy)
    res = np.concatenate([f - y0 - u @ y, slope.ravel(), [c.sum() - 1],
                          c @ u])
    jac = np.zeros((3 * k + 4, 3 * k + 4))
    for i in range(k):
        s, r = slice(2 * i, 2 * i + 2), slice(k + 2 * i, k + 2 * i + 2)
        jac[i, s], jac[i, 3 * k:3 * k + 3], jac[i, -1] = slope[i], -u[i], -1
        jac[r, s], jac[r, 3 * k:3 * k + 3] = curv[i], -bases[i].T
        jac[3 * k, 2 * k + i] = 1
        jac[3 * k + 1:, 2 * k + i] = u[i]
        jac[3 * k + 1:, s] = c[i] * bases[i]
    return res, jac


def _move_measurement(c, u, y, y0, step):
    """Apply a step in the unknowns of _kkt_system; a weight that falls
    to 0 leaves the support."""
    k = len(c)
    u = u + np.einsum("kai,ki->ka", _tangent_bases(u),
                      step[:2 * k].reshape(k, 2))
    c = c + step[2 * k:3 * k]
    keep = c > 1e-12
    return (c[keep], u[keep] / np.linalg.norm(u[keep], axis=1)[:, None],
            y + step[3 * k:3 * k + 3], y0 + step[-1])


def _polish_measurement(frame, c, u, y, y0, iterations=30):
    """Levenberg-Marquardt steps on _kkt_system, halving until the
    residual falls.

    The damping |residual|^2 keeps convergence quadratic where optimal
    POVMs are not unique and the Jacobian is singular. A step that would
    take a weight below 0 stops where it reaches 0.
    """
    res, jac = _kkt_system(frame, c, u, y, y0)
    for _ in range(iterations):
        norm = np.linalg.norm(res)
        if norm <= 1e-12:
            break
        step = -np.linalg.solve(jac.T @ jac + norm ** 2 * np.eye(len(res)),
                                jac.T @ res)
        k = len(c)
        dc = step[2 * k:3 * k]
        frac = min(1.0, (c[dc < 0] / -dc[dc < 0]).min(initial=np.inf))
        for tau in frac * 0.5 ** np.arange(10):
            cand = _move_measurement(c, u, y, y0, tau * step)
            res_new, jac_new = _kkt_system(frame, *cand)
            if len(cand[0]) < k or np.linalg.norm(res_new) < norm:
                break
        else:
            break
        (c, u, y, y0), res, jac = cand, res_new, jac_new
    # sum c = 1 and sum c u = 0 to rounding: the stationarity rows can
    # stall at a rounding floor that the least-squares step shares out
    for _ in range(2):
        step = -np.linalg.lstsq(jac[-4:], res[-4:], rcond=None)[0]
        c, u, y, y0 = _move_measurement(c, u, y, y0, step)
        res, jac = _kkt_system(frame, c, u, y, y0)
    return c, u, y, y0


def _conditional_min(frame, y, starts):
    """min over the sphere of f(u) - y.u: grid, then polish.

    The three best grid points and the given starts are polished by
    Newton steps on the sphere. Returns (value, u).
    """
    vals = _conditional(frame, _GRID) - _GRID @ y
    starts = np.concatenate([_GRID[np.argsort(vals)[:3]], starts])

    def terms(u):
        f, grad, hess = _conditional_terms(frame, u[None])
        bases = _tangent_bases(u[None])
        gy = grad - y
        slope = bases[0].T @ gy[0]
        curv = _tangent_curvature(bases, u[None], hess, gy)[0]
        return y @ u - f[0], -slope, -curv

    u, val = max((_ascend(terms, _move_on_sphere, u0) for u0 in starts),
                 key=lambda p: p[1])
    return -val, u


def _correlation_primal_dual(rho_ab, side):
    """Certified minimum of the measured conditional entropy.

    Returns (value, bound, povm): value = S(remote) - sum_i p_i S(remote
    given outcome i) of the POVM, recomputed from density matrices, and
    bound >= J(rho_ab) from the LP dual.
    """
    measured_first = side == "b"
    frame = _correlation_frame(rho_ab, measured_first)
    remote = numkit.partial_trace(rho_ab, 2, 2, 1 if measured_first else 2)
    s_remote = von_neumann_entropy(remote)
    points = _GRID
    for k in range(_CORRELATION_ROUNDS):
        c, y0, y = _measurement_lp(frame, points)
        c, u = _cluster(c, points)
        c, u, y, y0 = _polish_measurement(frame, c, u, y, y0)
        low, u_star = _conditional_min(frame, y, u)
        cond = c @ _conditional(frame, u)
        if cond - low <= _CORRELATION_TARGET_GAP or \
                k == _CORRELATION_ROUNDS - 1:
            break
        points = np.vstack([_GRID, u, u_star])
    # allowance for rounding in f (below 2 bits) and in y.u
    low -= 256 * np.finfo(float).eps * (1 + np.linalg.norm(y))
    povm = Povm([2 * ck * _bloch_rho(uk) for ck, uk in zip(c, u)])
    value = _correlation_value(rho_ab, povm.elements, measured_first,
                               s_remote)
    if abs(value - (s_remote - cond)) > 1e-9:
        raise RuntimeError("POVM does not reproduce the reported value")
    return value, s_remote - low, povm


def classical_correlations(rho_ab, side="b"):
    """Correlations extractable by measuring one qubit of a pair.

    side "b": measure subsystem A and quantify the entropy reduction of
    B (and symmetrically for side "a"). A POVM {c_i (I + u_i.sigma)}
    with sum c_i = 1 and sum c_i u_i = 0 leaves conditional entropy
    sum c_i f(u_i); rank-1 POVMs of at most four outcomes suffice for a
    qubit. A linear program over a 400-point grid of directions picks
    the weights, and damped Newton (Levenberg-Marquardt) steps on its
    optimality conditions polish weights and directions. Any y in R^3
    gives the dual bound J <= S(remote) - min over the sphere of
    f(u) - y.u, which holds for every POVM because f is concave on the
    Bloch ball; the minimum comes from a grid plus local polish, so the
    bound is exact if that finds the global minimum. While the gap is
    wide the minimizers join the LP and the polish runs again. The POVM
    is built as matrices and its value recomputed from them. Raises
    RuntimeError if the bound is more than 1e-8 above that value.
    """
    rho_ab = numkit.require_density(rho_ab, 4)[0]
    if side not in ("a", "b"):
        raise ValueError("side must be 'a' or 'b'")
    value, bound, _ = _correlation_primal_dual(rho_ab, side)
    if bound - value > 1e-8:
        raise RuntimeError("classical correlations not certified: POVM "
                           "%.12f, dual bound %.12f" % (value, bound))
    return max(0.0, float(value))


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
    rho_ab = numkit.require_density(rho_ab, 4)[0]
    val, bound, ch = _fidelity_primal_dual(_fidelity_weight_matrix(rho_ab))
    if bound - val > 1e-8:
        raise RuntimeError("fidelity optimum not certified: primal %.12f, "
                           "dual bound %.12f" % (val, bound))
    return val, ch
