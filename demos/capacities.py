"""Capacities, entanglement breaking, and fidelity enhancement at a glance.

This one runs a couple of optimizers, so give it a few seconds.
"""

import numpy as np

from qchan import capacity, channel, qubit


def werner(x):
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return x * np.outer(phi, phi.conj()) + (1 - x) * np.eye(4) / 4


def main():
    print("quantum capacity of the phase flip channel")
    for p in (0.05, 0.1, 0.25, 0.5):
        cq = capacity.quantum_capacity_rank2_unital(channel.phase_flip(p))
        print("  p = %.2f   C_Q = %.6f" % (p, cq))

    print("\nHolevo chi: an ensemble's value and an upper bound")
    for name, ch in [
            ("identity", channel.identity(2)),
            ("phase flip 0.3", channel.phase_flip(0.3)),
            ("amplitude damping 0.5", channel.amplitude_damping(0.5))]:
        res = capacity.holevo_chi(ch)
        print("  %-24s chi = %.9f  (%s, %d-state ensemble, gap %.1e)"
              % (name, res.chi, res.method, len(res.ensemble.items),
                 res.upper_bound - res.chi))

    print("\nwhere the depolarizing channel stops distributing entanglement")
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if qubit.concurrence(channel.depolarizing(mid).jam) > 1e-9:
            lo = mid
        else:
            hi = mid
    print("  dual-state concurrence hits zero at p = %.6f" % (0.5 * (lo + hi)))
    print("  entanglement breaking at p = 0.65:",
          qubit.is_entanglement_breaking(channel.depolarizing(0.65)))
    print("  entanglement breaking at p = 0.68:",
          qubit.is_entanglement_breaking(channel.depolarizing(0.68)))

    print("\nequal-concurrence decomposition of a Werner state")
    rho = werner(0.8)
    dec = qubit.equal_concurrence_decomposition(rho)
    print("  concurrence %.4f split into %d pure states, weights %s"
          % (dec.c, len(dec.states), np.round(dec.weights, 4)))

    print("\nentanglement fidelity: the Bell input is not always best")
    f, chi = qubit.max_entanglement_fidelity(channel.amplitude_damping(0.5))
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    out = np.zeros((4, 4), dtype=complex)
    for a in channel.amplitude_damping(0.5).kraus:
        ext = np.kron(np.eye(2), a)
        out += ext @ np.outer(phi, phi.conj()) @ ext.conj().T
    print("  best input reaches f = %.6f" % f)
    print("  the Bell input only reaches %.6f"
          % float((phi.conj() @ out @ phi).real))

    print("\nlocal filtering can raise the overlap with the Bell state")
    th = 0.2
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = np.cos(th), np.sin(th)
    noise = np.zeros((4, 4), dtype=complex)
    noise[1, 1] = 1.0
    rho = 0.6 * np.outer(psi, psi.conj()) + 0.4 * noise
    f0 = float((phi.conj() @ rho @ phi).real)
    fstar, ch_b = capacity.fidelity_optimize_one_side(rho)
    print("  fidelity before %.6f, after a one-sided channel %.6f"
          % (f0, fstar))
    print("  (the primal value of the returned channel, certified optimal"
          " by a dual bound\n   of the semidefinite program within 1e-8)")
    print("  optimizing channel rank:", channel.rank(ch_b))


if __name__ == "__main__":
    main()
