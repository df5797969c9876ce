"""Extreme points of the channel set, and what non-extremal ones split into.

A channel is extremal exactly when the products {A_i^dag A_j} of its
minimal Kraus operators are linearly independent. Everything else is a
mixture, and the splitting can be carried out constructively: walk
inside the face of the Choi matrix to an extremal point, subtract as
much of it as positivity allows, and repeat on what is left. Each round
lowers the Choi rank, so at most rank(C) parts come out.
"""

import numpy as np

from qchan import channel, extremal, numkit


def main():
    np.set_printoptions(precision=4, suppress=True)

    print("extremality of some standard channels")
    table = [
        ("identity", channel.identity(2)),
        ("amplitude damping 0.5", channel.amplitude_damping(0.5)),
        ("phase flip 0.3", channel.phase_flip(0.3)),
        ("depolarizing 0.7", channel.depolarizing(0.7)),
    ]
    for name, ch in table:
        print("  %-24s rank %d  extremal %s"
              % (name, channel.rank(ch), extremal.is_extremal_tp(ch)))

    # rank-2 unital qubit channels are never extremal; the constrained
    # test (fixing the image of one input) shows the same failure
    pf = channel.phase_flip(0.3)
    print("\nphase flip 0.3, constrained at the maximally mixed input:",
          extremal.is_extremal_constrained(pf, np.eye(2) / 2))

    print("\none splitting step of the depolarizing channel at p = 0.7")
    split = extremal.split_extremal(channel.depolarizing(0.7))
    print("  weights %.4f / %.4f, part ranks %d and %d"
          % (split.weight, 1 - split.weight,
             channel.rank(split.left), channel.rank(split.right)))

    print("\nfull decomposition into extremal parts")
    parts = extremal.decompose_into_extremals(channel.depolarizing(0.7))
    for w, part in parts:
        kind = "unitary" if channel.rank(part) == 1 else "rank-2 extremal"
        print("  weight %.4f  %s" % (w, kind))
    rho = np.array([[0.8, 0.3], [0.3, 0.2]], dtype=complex)
    mixed = sum(w * channel.apply(p, rho) for w, p in parts)
    print("  action rebuilt from the parts, error %.2e"
          % np.abs(mixed - channel.apply(channel.depolarizing(0.7), rho)).max())

    # a qutrit replacer has Choi rank 9: at most nine parts
    rep = channel.replacer(np.diag([0.5, 0.3, 0.2]))
    parts = extremal.decompose_into_extremals(rep)
    print("  qutrit replacer diag(.5, .3, .2), Choi rank %d: %d parts of "
          "ranks %s" % (channel.rank(rep), len(parts),
                        [channel.rank(p) for _, p in parts]))

    print("\nrank-reducing inputs")
    # any TP channel with rank m <= n has a pure input whose image drops
    # to rank m - 1; here a random qutrit channel of rank 3
    rng = np.random.default_rng(4)
    g = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    q = np.linalg.qr(g)[0]
    ch = channel.Channel([q[3 * k:3 * (k + 1), :] for k in range(3)],
                         require_tp=True)
    psi, chi, chi_space = extremal.rank_reducing_input(ch)
    out = channel.apply(ch, np.outer(psi, psi.conj()))
    print("  channel rank %d, image eigenvalues %s"
          % (channel.rank(ch), np.round(numkit.eigh(out)[0], 6)))
    print("  annihilated direction, <chi|image|chi> = %.2e"
          % float((chi.conj() @ out @ chi).real))

    print("\nproduct states orthogonal to a low-rank dual state")
    states = extremal.orthogonal_product_states(ch.jam)
    for v in states:
        print("  |<ab| jam |ab>| = %.2e"
              % abs(complex(v.conj() @ ch.jam @ v)))


if __name__ == "__main__":
    main()
