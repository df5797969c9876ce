"""Quantum channels through their dual Choi states.

Submodules:
  numkit    dense complex linear algebra primitives
  channel   Kraus/Choi representations, duality, channel builders
  extremal  extremality tests and constructive decompositions
  qubit     qubit-channel geometry, normal forms, entanglement results
  capacity  capacities, correlation measures, fidelity optimization
  cli       command-line front end
"""

from . import numkit, channel, extremal, qubit, capacity, cli

__all__ = ["numkit", "channel", "extremal", "qubit", "capacity", "cli"]
__version__ = "0.1.0"
