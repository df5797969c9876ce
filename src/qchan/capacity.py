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

The Holevo quantity and classical correlations are one problem in the
Bloch picture: weights on at most four sphere directions, weighed by a
concave entropy f(u) in the channel's or the state's Bloch frame. Both
first try the pair of antipodes on the frame's top singular axis, with
a closed-form lower bound on f over the sphere; it certifies the closed
forms of unital channels (King) and of states with maximally mixed
marginals (Luo) without a search. Otherwise they share one route:
damped Newton steps on the optimality conditions, which differ only in
how the weighted average of the directions is balanced, from a start
that a four-row linear program over a grid of directions, solved by a
dense simplex, provides. Classical correlations first polish from the
pair itself, often already optimal, and solve the LP only when that
round leaves a gap. Both bounds are the minimum over the sphere of f
less a plane: the LP dual's for correlations, for chi the tangent plane
at the ensemble's average. It is found by Newton steps from the best
grid directions and the solution's own, all polished in one batch. The
fidelity dual has
three variables and is minimized by damped Newton steps; primal
channels are built on its top eigenspaces, smallest first, until one
is within 1e-10 of the dual bound.
"""

import numpy as np

from . import numkit, channel, extremal, qubit

LOG2 = np.log(2.0)


def _xlogx(x):
    """x ln x elementwise, with 0 ln 0 = 0."""
    return x * np.log(np.where(x > 0, x, 1.0))


def binary_entropy(p):
    """H(p) = -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0."""
    p = float(p)
    if p < -1e-12 or p > 1 + 1e-12:
        raise ValueError("probability out of range: %r" % p)
    p = min(max(p, 0.0), 1.0)
    # from 0.0, so that H(0) and H(1) are +0.0
    return float((0.0 - _xlogx(p) - _xlogx(1 - p)) / LOG2)


def von_neumann_entropy(rho):
    """Entropy in bits from the eigenvalues, with 0 log 0 = 0."""
    w = numkit.require_density(rho)[1]
    w = w[w > 1e-15]
    return float(-(w * np.log(w)).sum() / LOG2)


class Ensemble:
    """Weighted input states {(p_j, rho_j)}."""

    def __init__(self, items):
        items = [(float(p), np.asarray(r, dtype=complex)) for p, r in items]
        if any(p < 0 for p, _ in items):
            raise ValueError("negative ensemble weight")
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
        if not elements:
            raise ValueError("POVM has no elements")
        dim = elements[0].shape[0]
        for e in elements:
            w = numkit.eigh(e)[0]
            if w[0] < -numkit.psd_floor(w):
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
    qubit._require_qubit_tp(ch)
    if not channel.is_unital(ch):
        raise ValueError("channel is not unital; formula does not apply")
    if channel.rank(ch) > 2:
        raise ValueError("channel rank exceeds 2; formula does not apply")
    return 1.0 - binary_entropy(ch.choi_eigh[0][-1] / ch.choi_trace)


# --- the Bloch sphere toolkit of both certified solvers ----------------------
#
# Both solvers work on a frame (a, b, T): the point u of the Bloch ball
# stands for p = 1 + a.u and v = b + T^T u, and f(u) = p H(v / p) in bits.
# For classical correlations u is a measured direction and v / p the
# remote state it leaves; for Holevo chi the frame (0, t, lam^T) of the
# Bloch map r = t + lam u gives f(u) = H(r), the output entropy. Each
# bound is a minimum over the sphere of f less an affine function.

def _fibonacci_sphere(m):
    k = np.arange(m)
    golden = (1 + np.sqrt(5)) / 2
    z = 1 - 2 * (k + 0.5) / m
    r = np.sqrt(1 - z * z)
    phi = 2 * np.pi * k / golden
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


# directions of the linear program that starts both solvers and the
# starting points of the sphere minimum
_GRID = _fibonacci_sphere(400)
# gap at which column generation stops; _certify accepts up to 1e-8
_TARGET_GAP = 1e-10
_ROUNDS = 4


def _certify(value, bound, what):
    """Raise RuntimeError when bound is more than 1e-8 above value."""
    if bound - value > 1e-8:
        raise RuntimeError("%s not certified: value %.12f, bound %.12f"
                           % (what, value, bound))


def _entropy_terms(r):
    """H, c1, c2 with H = H((1 + |r|) / 2) in bits, grad H = -c1 r / ln 2
    and Hess H = -(c1 I + c2 r r^T) / ln 2, at Bloch vectors r (k, 3).

    The norm is capped just below 1 for the slopes, which are infinite
    there; series replace the ratios near 0.
    """
    n = np.minimum(np.sqrt(np.sum(r * r, axis=-1)), 1.0)
    h = -(_xlogx((1 + n) / 2) + _xlogx((1 - n) / 2)) / LOG2
    n = np.minimum(n, 1 - 1e-12)
    small = n < 1e-4
    ns = np.where(small, 0.5, n)
    c1 = np.where(small, 1 + n * n / 3, np.arctanh(ns) / ns)
    c2 = np.where(small, 2 / 3 + 4 * n * n / 5,
                  (1 / (1 - ns * ns) - c1) / (ns * ns))
    return h, c1, c2


def _tangent_bases(u):
    """Orthonormal bases (k, 3, 2) of the tangent planes at unit vectors u,
    in the branch-free form of Duff et al. (JCGT 6(1), 2017)."""
    x, y, z = u.T
    s = np.copysign(1.0, z)
    a = -1 / (s + z)
    b = x * y * a
    return np.stack([np.stack([1 + s * x * x * a, s * b, -s * x], axis=1),
                     np.stack([b, s + y * y * a, -y], axis=1)], axis=2)


def _perspective(p, nv):
    """p H(v / p) in bits for |v| = nv, written as the perspective
    -(q+ log q+ + q- log q- - p log p) / ln 2 with q+- = (p +- nv) / 2,
    so it stays finite as p -> 0."""
    qp, qm = (p + nv) / 2, np.maximum((p - nv) / 2, 0.0)
    return -(_xlogx(qp) + _xlogx(qm) - _xlogx(p)) / LOG2


def _remote(frame, u):
    """p = 1 + a.u and v = b + T^T u at points u (k, 3), summed in one
    order for any k; a matmul's order varies with k, shifting f by 1e-14."""
    a, b, tt = frame
    return 1 + np.einsum("...i,i", u, a), b + np.einsum("...i,ij", u, tt)


def _frame_entropy(frame, u):
    """f(u) = p H(v / p) in bits at points u (k, 3) of the frame."""
    p, v = _remote(frame, u)
    return _perspective(np.maximum(p, 0.0), np.sqrt(np.sum(v ** 2, axis=-1)))


def _frame_terms(frame, u, bases):
    """f at points u (k, 3), its gradient (k, 3) and its Hessian along
    the columns of bases (k, 3, m).

    With rho = v / p and l = p d rho / du = T^T - rho a^T, the Hessian is
    l^T Hess H(rho) l / p. l is taken along the bases before any product
    is formed: at a sphere point whose remote state is nearly pure, the
    tangent images l B are nearly orthogonal to rho, and the large radial
    curvature c2 then meets only the small projections (l B)^T rho.
    """
    a, _, tt = frame
    p, v = _remote(frame, u)
    p = np.maximum(p, 1e-100)
    nv = np.sqrt(np.sum(v * v, axis=1))
    # |v| <= p but for rounding; a pure remote state stays pure
    rho = v / np.maximum(p, nv)[:, None]
    h, c1, c2 = _entropy_terms(rho)
    dh = -c1[:, None] * rho / LOG2
    grad = (h - np.sum(rho * dh, axis=1))[:, None] * a + dh @ tt.T
    l = tt.T @ bases - rho[:, :, None] * (a @ bases)[:, None, :]
    lr = np.einsum("kjm,kj->km", l, rho)
    hess = -(c1[:, None, None] * np.einsum("kjm,kjn->kmn", l, l)
             + c2[:, None, None] * lr[:, :, None] * lr[:, None, :]) \
        / (LOG2 * p[:, None, None])
    # f as _frame_entropy has it, so that both give one value at u
    return _perspective(p, nv), grad, hess


def _tangent_curvature(u, hess, slope):
    """hess - (u . slope) I: the Hessian along the sphere at u of a
    function with tangent Hessian hess and ambient gradient slope."""
    return hess - np.sum(u * slope, axis=-1)[..., None, None] * np.eye(2)


def _sphere_min(frame, y0, y, starts):
    """A lower bound on min over the sphere of f(u) - y0 - y.u, and the
    direction attaining the minimum found.

    The three best points of _GRID and the given starts are polished
    together by Newton steps on the sphere: each pass evaluates every
    start still moving once. A start's step takes the Hessian's
    eigenvalues by magnitude, so it always points downhill, and leaves
    alone directions whose curvature is below 1e-10 times the largest. A
    step that raises the value by more than 1e-14 is halved instead.
    A start stops when its gradient is at rounding level, when its step
    is halved below 1e-12 or after 100 steps. The minimum found is
    lowered by an allowance for rounding in the affine part and in f.
    Near a pure remote state q- = (p - |v|) / 2 is a few eps of rounding,
    where x log x has slope log(1/eps): f's allowance is 8 eps log2(1/eps).
    """
    vals = _frame_entropy(frame, _GRID) - _GRID @ y
    u = np.concatenate([_GRID[np.argsort(vals)[:3]], starts])
    k = len(u)
    # per start: its value, its Newton step, tried at tau times its
    # length, and the number of steps it has taken
    val, step = np.full(k, np.inf), np.zeros((k, 3))
    tau, steps, done = np.ones(k), np.zeros(k, dtype=int), np.zeros(k, bool)
    live, cand = np.arange(k), u
    while live.size:
        bases = _tangent_bases(cand)
        f, grad, hess = _frame_terms(frame, cand, bases)
        cval = f - cand @ y
        ok = cval <= val[live] + 1e-14
        i, bases, gy = live[ok], bases[ok], grad[ok] - y
        u[i], val[i] = cand[ok], cval[ok]
        mu, v = np.linalg.eigh(_tangent_curvature(u[i], hess[ok], gy))
        mu = np.abs(mu)
        gv = np.where(mu > 1e-10 * np.maximum(mu.max(axis=1), 1e-2)[:, None],
                      np.einsum("kab,ka->kb", v,
                                np.einsum("kab,ka->kb", bases, gy)), 0.0)
        step[i] = -np.einsum("kab,kb->ka", bases, np.einsum(
            "kab,kb->ka", v, gv / np.maximum(mu, 1e-300)))
        tau[i] = 1.0
        tau[live[~ok]] /= 2
        done[i] = (np.abs(gv).max(axis=1) <= 1e-12) | (steps[i] == 100)
        steps[i] += 1
        live = live[~done[live] & (tau[live] > 1e-12)]
        cand = u[live] + tau[live, None] * step[live]
        cand /= np.linalg.norm(cand, axis=1)[:, None]
    best = np.argmin(val)
    return val[best] - y0 - _allowance(abs(y0) + np.linalg.norm(y)), u[best]


def _allowance(affine):
    """Rounding allowance of a sphere minimum of f less an affine part of
    size affine = |y0| + |y|: 8 eps log2(1/eps) for f, 256 eps per unit
    of the affine part."""
    eps = np.finfo(float).eps
    return eps * (-8 * np.log2(eps) + 256 * affine)


def _axis_pair(frame):
    """The antipodal pair +-u* on the top singular axis of T, and a lower
    bound on min f over the sphere.

    On the sphere p = 1 + a.u >= 1 - |a| and |v| <= |b| + s_max, s_max
    the top singular value of T. p h(|v| / p), h(r) = H((1 + r) / 2),
    falls as |v| grows and rises with p (its p-derivative is h - r h'
    >= 0), so f >= (1 - |a|) h(min(1, (|b| + s_max) / (1 - |a|))), less
    the rounding allowance of _sphere_min. Where a and b vanish, +-u*
    attain it: f(+-u*) = h(s_max).
    """
    a, b, tt = frame
    axes, s = np.linalg.svd(tt)[:2]
    p = max(1 - np.linalg.norm(a), 0.0)
    low = _perspective(p, min(p, np.linalg.norm(b) + s[0]))
    return np.array([axes[:, 0], -axes[:, 0]]), low - _allowance(0.0)


def _cluster(w, dirs):
    """Merge weights on directions into at most four weighted directions.

    Directions within 0.35 rad (two spacings of _GRID) of a heavier
    group join it. Four is enough: an optimal qubit ensemble needs at
    most four pure states, an optimal qubit POVM at most four outcomes.
    """
    order = np.argsort(-w)
    order = order[w[order] >= 1e-4 * w.max()]
    mass = np.zeros(order.size)
    total = np.zeros((order.size, 3))  # weighted direction sums
    unit = np.zeros((order.size, 3))  # their unit directions
    n, near = 0, np.cos(0.35)
    for j in order:
        hit = np.flatnonzero(unit[:n] @ dirs[j] > near)
        if hit.size:
            g = hit[0]
        else:
            g, n = n, n + 1
        mass[g] += w[j]
        total[g] += w[j] * dirs[j]
        unit[g] = total[g] / np.sqrt(total[g] @ total[g])
    top = np.argsort(-mass[:n], kind="stable")[:4]
    return mass[top] / mass[top].sum(), unit[top]


# the _GRID points nearest the corners of a regular tetrahedron; they hold
# the origin strictly inside, so they are a feasible basis of every
# measurement LP whose first columns are _GRID
_TETRAHEDRON = np.argmax(_GRID @ np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]).T, axis=0)
# simplex pivots allowed per LP; up to about 15 are taken from that basis
_PIVOTS = 100


def _measurement_lp(frame, u):
    """Weights c >= 0 on directions u minimizing sum c f(u) subject to
    sum c = 1 and sum c u = 0, with the LP dual (y0, y).

    A dense revised simplex on the four constraint rows, started from
    the _TETRAHEDRON basis. The column of most negative reduced cost
    f(u_j) - y0 - y.u_j enters, the lowest index on ties, and the ratio
    test picks the column that leaves. Returns a vertex, so at most four
    weights are nonzero, and the duals (y0, y) = f_B B^-1 of its basis.
    Raises RuntimeError past _PIVOTS pivots.
    """
    cost = _frame_entropy(frame, u)
    rows = np.vstack([np.ones(len(u)), u.T])
    basis = _TETRAHEDRON.copy()
    for _ in range(_PIVOTS):
        inv = np.linalg.inv(rows[:, basis])
        weights = np.maximum(inv[:, 0], 0.0)  # B^-1 (1, 0, 0, 0)
        dual = cost[basis] @ inv
        reduced = cost - dual @ rows
        j = np.argmin(reduced)
        if reduced[j] >= -1e-12:
            c = np.zeros(len(u))
            c[basis] = weights
            return c, dual[0], dual[1:]
        # the entries of d sum to 1 (the first row of B is ones), so
        # some entry rises and the ratio test always has a candidate
        d = inv @ rows[:, j]
        rising = d > 1e-12
        basis[np.argmin(np.where(rising, weights / np.where(rising, d, 1.0),
                                 np.inf))] = j
    raise RuntimeError("measurement LP not solved in %d pivots" % _PIVOTS)


def _kkt_system(frame, c, u, y, y0, ensemble=False):
    """Residual and Jacobian of the optimality conditions of a POVM or,
    with ensemble set, of a pure-state ensemble for Holevo chi.

    Both share: f(u_i) = y0 + y.u_i and the tangent part of grad f(u_i)
    equals that of y (each u_i minimizes f - y.u at level y0), and sum c
    = 1. The last three rows balance the average m = sum c u: a POVM
    pins it, m = 0; an ensemble lets it float and ties the dual to it,
    y = grad f(m). Unknowns in order: tangent steps of the u_i, c, y,
    y0.
    """
    k = len(c)
    m = c @ u
    bases = _tangent_bases(u)
    jac = np.zeros((3 * k + 4, 3 * k + 4))
    if ensemble:
        # f at m in ambient coordinates, at the u_i along (tangent, radial)
        f, grad, hess = _frame_terms(frame, np.vstack([m, u]), np.concatenate(
            [np.eye(3)[None], np.concatenate([bases, u[:, :, None]], axis=2)]))
        balance, dm = y - grad[0], -hess[0]
        f, grad, hess = f[1:], grad[1:], hess[1:, :2, :2]
        jac[3 * k + 1:, 3 * k:3 * k + 3] = np.eye(3)
    else:
        f, grad, hess = _frame_terms(frame, u, bases)
        balance, dm = m, np.eye(3)
    gy = grad - y
    slope = np.einsum("kab,ka->kb", bases, gy)
    curv = _tangent_curvature(u, hess, gy)
    res = np.concatenate([f - y0 - u @ y, slope.ravel(), [c.sum() - 1],
                          balance])
    for i in range(k):
        s, r = slice(2 * i, 2 * i + 2), slice(k + 2 * i, k + 2 * i + 2)
        jac[i, s], jac[i, 3 * k:3 * k + 3], jac[i, -1] = slope[i], -u[i], -1
        jac[r, s], jac[r, 3 * k:3 * k + 3] = curv[i], -bases[i].T
        jac[3 * k, 2 * k + i] = 1
        jac[3 * k + 1:, 2 * k + i] = dm @ u[i]
        jac[3 * k + 1:, s] = dm @ (c[i] * bases[i])
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


def _polish_measurement(frame, c, u, y, y0, iterations=30, ensemble=False):
    """Levenberg-Marquardt steps on _kkt_system, halving until the
    residual falls.

    The damping |residual| keeps convergence quadratic where the optimum
    is not unique and the Jacobian is singular. Each step is the least-
    squares solution of the Jacobian stacked on the damping: the normal
    equations would square its condition number, which is already large
    on near-constant channels. A step that would take a weight below 0
    stops where it reaches 0. A start whose residual is at most 1e-12
    comes back unchanged.
    """
    res, jac = _kkt_system(frame, c, u, y, y0, ensemble)
    if np.linalg.norm(res) <= 1e-12:
        return c, u, y, y0
    for _ in range(iterations):
        norm = np.linalg.norm(res)
        if norm <= 1e-12:
            break
        step = -np.linalg.lstsq(np.vstack([jac, norm * np.eye(len(res))]),
                                np.concatenate([res, np.zeros_like(res)]),
                                rcond=None)[0]
        k = len(c)
        dc = step[2 * k:3 * k]
        frac = min(1.0, (c[dc < 0] / -dc[dc < 0]).min(initial=np.inf))
        for tau in frac * 0.5 ** np.arange(10):
            cand = _move_measurement(c, u, y, y0, tau * step)
            res_new, jac_new = _kkt_system(frame, *cand, ensemble)
            if len(cand[0]) < k or np.linalg.norm(res_new) < norm:
                break
        else:
            break
        (c, u, y, y0), res, jac = cand, res_new, jac_new
    # the last four rows to rounding: the stationarity rows can stall at a
    # rounding floor that the least-squares step shares out
    for last in (False, True):
        step = -np.linalg.lstsq(jac[-4:], res[-4:], rcond=None)[0]
        c, u, y, y0 = _move_measurement(c, u, y, y0, step)
        if not last:
            res, jac = _kkt_system(frame, c, u, y, y0, ensemble)
    return c, u, y, y0


# --- Holevo quantity ----------------------------------------------------------

def _chi_primal_dual(frame):
    """Ensemble (w, u) with its chi, an upper bound and the route taken.

    First the pair +-u* of _axis_pair, equal weights: chi <= 1 - min f
    over the sphere, as no qubit output has entropy above 1. That closes
    for unital channels (King), where f(0) = 1 and f(+-u*) = min f.
    Otherwise, with m = sum w u, any plane T through (m, f(m)) has sum w
    T(u_i) = f(m), so chi = f(m) - sum w f(u_i) = sum w (T - f)(u_i) <=
    max over the sphere of T - f, whatever T's slope. The polish ties y
    to grad f(m), which makes T the tangent plane at m and the bound the
    minimax one. While the gap is wide the sphere's maximizer of T - f
    joins the ensemble at weight 1/100, merged by _cluster, so the
    ensemble keeps at most four states across rounds.
    """
    u, low = _axis_pair(frame)
    w = np.array([0.5, 0.5])
    f = _frame_entropy(frame, np.vstack([w @ u, u]))
    lower, upper = f[0] - w @ f[1:], 1 - low
    if upper - lower <= _TARGET_GAP:
        return w, u, lower, upper, "axis pair"
    c, y0, y = _measurement_lp(frame, _GRID)
    w, u = _cluster(c, _GRID)
    for k in range(_ROUNDS):
        w, u, y, y0 = _polish_measurement(frame, w, u, y, y0, ensemble=True)
        if len(w) < 2:  # one state carries no information; use a pair
            w, u = np.array([0.5, 0.5]), np.concatenate([u, -u])
        m = w @ u
        f = _frame_entropy(frame, np.vstack([m, u]))
        low, u_star = _sphere_min(frame, f[0] - y @ m, y, u)
        lower, upper = f[0] - w @ f[1:], -low
        if upper - lower <= _TARGET_GAP or k == _ROUNDS - 1:
            break
        w, u = _cluster(np.append(0.99 * w, 0.01), np.vstack([u, u_star]))
        y0 = w @ (_frame_entropy(frame, u) - u @ y)
    return w, u, lower, upper, "lp-kkt minimax"


def holevo_chi(ch):
    """Maximize S(out of average) - average output entropy over ensembles.

    Works on the Bloch map r = t + lam u of the channel, as the frame
    (0, t, lam^T) of the sphere toolkit with f(u) = H(r), and takes the
    route of classical correlations. First the two inputs on the top
    singular axis of lam, in equal weights: their chi is a lower bound,
    and 1 less the closed-form bound of _axis_pair on min f over the
    sphere an upper one. Within 1e-10 of each other they answer, with
    method "axis pair", as they do for unital channels, where chi =
    1 - H((1 + s_max) / 2) (King). Otherwise, method "lp-kkt minimax",
    a lower bound comes from a pure-state ensemble (w, u): the
    measurement linear program over a grid of input directions gives the
    best grid ensemble of average input I / 2, merged into at most four
    points; damped Newton (Levenberg-Marquardt) steps on the optimality
    conditions then polish weights and directions with the average m =
    sum w u free and the dual y tied to it, y = grad f(m). The upper
    bound is the sphere minimum that also bounds classical correlations,
    of f less the tangent plane T at m: chi = sum w (T - f)(u_i) <= max
    over the sphere of T - f. T - f is D(Phi(u) || Phi(m)), so this is
    the minimax bound of Schumacher and Westmoreland. While the gap is
    wide the maximizer joins the ensemble and the polish runs again.
    Either way the ensemble is rebuilt as density matrices and its value
    recomputed from them. Raises RuntimeError if the upper bound is more
    than 1e-8 above that value.
    """
    qubit._require_qubit_tp(ch)
    p = qubit.ptm(ch)
    w, u, val, upper, method = _chi_primal_dual((np.zeros(3), p.t, p.lam.T))
    try:
        ens = Ensemble([(wk, numkit.bloch_state(uk))
                        for wk, uk in zip(w, u)])
    except ValueError as exc:  # built here, so a fault of the solver
        raise RuntimeError("ensemble is not valid: %s" % exc) from exc
    avg_out = channel.apply(ch, ens.average())
    recomputed = von_neumann_entropy(avg_out) - sum(
        wk * von_neumann_entropy(channel.apply(ch, r))
        for wk, r in ens.items)
    if abs(recomputed - val) > 1e-9:
        raise RuntimeError("ensemble does not reproduce the reported value")
    _certify(recomputed, upper, "Holevo chi")
    # 0 <= chi <= 1 for a qubit; a constant channel's entropies cancel to
    # 0 or -0.0, a unitary's to 1 plus rounding
    return ChiResult(min(max(0.0, float(recomputed)), 1.0), ens, method,
                     float(upper))


def _channel_concurrence_pair(a1, a2):
    return a1.T @ numkit.SY @ a2 - a2.T @ numkit.SY @ a1


def chi_given_average(ch, rho_avg):
    """Exact ensemble-entropy minimum at a fixed average input.

    For an extremal rank-2 qubit channel the minimal average output
    entropy over all decompositions of rho_avg is f(C) with C the
    concurrence of X^T (A1^T sy A2 - A2^T sy A1) X, X a square root of
    rho_avg, and f(C) = H((1 + sqrt(1-C^2))/2). Returns
    S(out of rho_avg) - f(C). Unitary channels give f = 0.
    """
    qubit._require_qubit_tp(ch)
    rho_avg, w, v = numkit.require_density(rho_avg, 2)
    ks = channel.minimal_kraus(ch)
    if len(ks) == 1:
        cval = 0.0
    elif len(ks) == 2:
        if not extremal.is_extremal_tp(ch):
            raise ValueError("rank-2 channel is not extremal; the "
                             "closed form does not apply")
        x = numkit.psd_factor(w, v, tol=1e-13)
        tau = x.T @ _channel_concurrence_pair(ks[0], ks[1]) @ x
        cval = qubit._concurrence_of(numkit.svd(tau)[1])
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
        val += (_xlogx(lam).sum() - _xlogx(lam.sum())) / LOG2
    return val


_PAULI_PAIRS = np.array([[numkit.kron(s, t) for t in numkit.PAULIS]
                         for s in numkit.PAULIS])


def _correlation_frame(rho_ab, measured_first):
    """Bloch data (a, b, T) of rho_ab with the measured qubit's first:
    rho = (I + a.sigma (x) I + I (x) b.sigma + T_ij sigma_i (x) sigma_j) / 4
    in the order (measured, remote). The outcome c (I + u.sigma) has
    probability c p, p = 1 + a.u, and leaves the remote qubit at Bloch
    vector v / p, v = b + T^T u: the sphere toolkit's f(u) = p S(v / p)
    is its share of the conditional entropy."""
    r = np.einsum("mnij,ji->mn", _PAULI_PAIRS, rho_ab).real
    if not measured_first:
        r = r.T
    return r[1:, 0], r[0, 1:], r[1:, 1:]


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
    # sum c f(u) >= min f for every POVM; the pair closes it when a = b = 0
    u, low = _axis_pair(frame)
    c = np.array([0.5, 0.5])
    f = _frame_entropy(frame, u)
    cond = c @ f
    # the pair's dual: its value rows hold, y0 + y.(+-u*) = f(+-u*)
    y0, y = cond, u[0] * (f[0] - f[1]) / 2
    for k in range(_ROUNDS):
        if cond - low <= _TARGET_GAP:
            break
        if k:
            c, y0, y = _measurement_lp(frame, points)
            c, u = _cluster(c, points)
        c, u, y, y0 = _polish_measurement(frame, c, u, y, y0)
        # sum c f(u) >= y0 + min(f - y0 - y.u) for every POVM
        low, u_star = _sphere_min(frame, y0, y, u)
        low += y0
        cond = c @ _frame_entropy(frame, u)
        # the antipode makes a projective measurement along u_star feasible
        points = np.vstack([_GRID, u, u_star, -u_star])
    try:
        povm = Povm([2 * ck * numkit.bloch_state(uk) for ck, uk in zip(c, u)])
    except ValueError as exc:  # built here, so a fault of the solver
        raise RuntimeError("measurement is not a POVM: %s" % exc) from exc
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
    qubit, and every POVM leaves at least min f over the sphere. The
    projective measurement on the top singular axis of the correlation
    matrix T comes first, against the closed-form bound of _axis_pair on
    min f from |a|, |b| and T's top singular value. Within 1e-10 of each
    other they answer, as they do when both marginals are maximally
    mixed, where J = 1 - H((1 + s_max) / 2) (Luo). Otherwise damped
    Newton (Levenberg-Marquardt) steps on the optimality conditions
    polish weights and directions, first from that pair, with the dual
    (y0, y) whose plane y0 + y.u meets f at both antipodes; a pair that
    is already stationary, as for noisy pure states, is kept as it is.
    Any y in R^3 gives the dual bound J <= S(remote) - min over the
    sphere of f(u) - y.u, which holds for every POVM because f is
    concave on the Bloch ball; the minimum comes from a grid plus local
    polish, so the bound is exact if that finds the global minimum.
    While the gap is wide a linear program over a 400-point grid of
    directions, the last round's directions, the sphere's minimizer and
    its antipode, solved by a four-row simplex, picks new weights and
    the polish runs again. The POVM is built as matrices and its
    value recomputed from them. Raises RuntimeError if the bound is more
    than 1e-8 above that value.
    """
    rho_ab = numkit.require_density(rho_ab, 4)[0]
    if side not in ("a", "b"):
        raise ValueError("side must be 'a' or 'b'")
    value, bound, _ = _correlation_primal_dual(rho_ab, side)
    _certify(value, bound, "classical correlations")
    return max(0.0, float(value))


# --- one-sided fidelity optimization -------------------------------------------

def _fidelity_weight_matrix(rho_ab):
    """M with F(Phi) = Tr(choi(Phi) M) for the fixed input state."""
    r4 = np.asarray(rho_ab, dtype=complex).reshape(2, 2, 2, 2)
    m = 0.5 * r4.transpose(3, 2, 1, 0).reshape(4, 4)
    return numkit.require_hermitian(m)


# Tr(C (sigma_mu (x) I)), mu = 0..3, are the Pauli coordinates of Tr_out C:
# (2, 0, 0, 0) exactly when C is the Choi matrix of a trace-preserving map
_PAULI_IN = np.array([numkit.kron(s, np.eye(2)) for s in numkit.PAULIS])
_TP_COORDS = np.array([2.0, 0.0, 0.0, 0.0])
# smoothing temperatures of the dual, each stage warm-started by the last
_TEMPERATURES = (1e-2, 1e-5, 1e-8, 1e-11)


def _smoothed_dual(z, m, t):
    """t log Tr exp(A / t) for A = M - (z . sigma) (x) I, with its gradient
    g and Hessian in z.

    With p = softmax(w / t) over the eigenvalues w of A and B_k the
    matrix of sigma_k (x) I in its eigenbasis, g_k = -sum_i p_i B_k,ii
    and the Hessian is sum_ij G_ij B_k,ij B_l,ji - g g^T / t, where
    G_ij = (p_i - p_j) / (w_i - w_j) and G_ii = p_i / t. G is taken as
    p_hi (1 - exp(-|w_i - w_j| / t)) / |w_i - w_j|, p_hi the larger of
    p_i and p_j, which does not cancel when w_i and w_j nearly tie.
    """
    w, v = np.linalg.eigh(m - np.tensordot(z, _PAULI_IN[1:], 1))
    e = np.exp((w - w[-1]) / t)
    p = e / e.sum()
    b = v.conj().T @ _PAULI_IN[1:] @ v
    grad = -np.einsum("i,kii->k", p, b).real
    gap = np.abs(w[:, None] - w[None, :])
    split = np.where(gap > 0, -np.expm1(-gap / t) / np.where(gap > 0, gap, 1),
                     1 / t)
    hess = (np.einsum("ij,kij,lji->kl", np.maximum.outer(p, p) * split, b, b)
            .real - np.outer(grad, grad) / t)
    return w[-1] + t * np.log(e.sum()), grad, hess


def _descend_dual(m, z, t, radius):
    """Minimize _smoothed_dual(., m, t) by damped Newton steps from z.

    The step's part along each eigenvector of the Hessian is capped at
    radius. Curvature here runs from 0 (product states with a pure
    factor leave a flat direction) to about 1/t across a split of the
    top eigenvalue, so no cutoff on it separates the two; the cap keeps
    a small gradient along a flat direction from throwing z away. A step
    that does not lower the value cuts the radius to a quarter of its
    length. Stops when the quadratic model promises less than 1e-15.
    """
    f, g, h = _smoothed_dual(z, m, t)
    for _ in range(100):
        mu, v = np.linalg.eigh(h)
        gv = v.T @ g
        step = -v @ (gv / np.maximum(np.maximum(mu, np.abs(gv) / radius),
                                     1e-300))
        if -(g @ step + step @ h @ step / 2) <= 1e-15:
            break
        f_new, g_new, h_new = _smoothed_dual(z + step, m, t)
        if f_new < f:
            z, f, g, h = z + step, f_new, g_new, h_new
        else:
            radius = np.linalg.norm(step) / 4
    return z


def _tp_map(w):
    """The trace condition on Choi matrices w Q w^dag, as a real matrix.

    It takes the coordinates of a Hermitian k x k matrix Q (k columns in
    w), in the basis of numkit.hermitian_coords, to the Pauli
    coordinates of Tr_out(w Q w^dag).
    """
    g = np.einsum("ai,mab,bj->ijm", w.conj(), _PAULI_IN, w)
    return numkit.hermitian_coords(g).real.T


def _channel_on(w, m):
    """At most two Kraus operators of a TP map with Choi support in span(w).

    Solves Tr_out(w P w^dag) = I for P and keeps its positive part. Above
    rank two it steps along trace-condition-preserving directions that do
    not lower Tr(C M) until an eigenvalue of P vanishes, which ends at an
    extreme point. The congruence by (sum A^dag A)^(-1/2) then makes the
    map exactly TP. None when the positive part is too far from TP.
    """
    x = np.linalg.lstsq(_tp_map(w), _TP_COORDS, rcond=None)[0]
    p = numkit.hermitian_from_coords(x)
    while True:
        pw, pv = np.linalg.eigh(p)
        w, d = w @ pv[:, pw > 1e-12], pw[pw > 1e-12]
        if d.size <= 2:
            break
        q = numkit.hermitian_from_coords(np.linalg.svd(_tp_map(w))[2][-1])
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


def _fidelity_dual(m):
    """The dual bound on max Tr(C M) and the eigenvectors of M - Z (x) I
    at the dual optimum, in ascending order of eigenvalue.

    The dual, min Tr Y s.t. Y (x) I >= M, becomes the minimum over z in R^3
    of 2 lam_max(M - (z . sigma) (x) I) with Y = Z + lam_max(M - Z (x) I) I
    and Z = z . sigma traceless. Damped Newton steps minimize a smoothed
    maximum at falling temperatures.
    """
    z, radius = np.zeros(3), 1.0
    for t in _TEMPERATURES:
        z = _descend_dual(m, z, t, radius)
        # the next stage's optimum lies about t away
        radius = t
    w, v = np.linalg.eigh(m - np.tensordot(z, _PAULI_IN[1:], 1))
    # allowance for eigenvalue rounding, so the bound stays a bound
    return 2 * (w[-1] + 16 * np.finfo(float).eps * max(np.abs(w).max(), 1)), v


def _fidelity_primal_dual(m):
    """Certified maximum of Tr(C M) over Choi matrices C of qubit channels.

    The bound is _fidelity_dual's. The primal channel lives on the top
    eigenspace of M - Z (x) I, whose dimension the dual leaves open: the
    spans of the top 1, 2, 3 and 4 eigenvectors are tried in turn, and
    the first channel within _TARGET_GAP of the bound is taken. When none
    is, the best of the four is. Returns (primal value, dual bound,
    Channel).
    """
    bound, v = _fidelity_dual(m)
    best, best_val = None, -np.inf
    for k in range(3, -1, -1):
        ks = _channel_on(v[:, k:], m)
        if ks is None:
            continue
        val = np.trace(channel.choi_matrix(ks) @ m).real
        if val > best_val:
            best, best_val = ks, val
        if bound - val <= _TARGET_GAP:
            break
    if best is None:
        raise RuntimeError("no trace-preserving channel on the top "
                           "eigenspaces of the dual")
    ch = channel.Channel(best)
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
    _certify(val, bound, "fidelity optimum")
    return val, ch
