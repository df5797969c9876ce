"""Quantum channels through their dual Choi states.

Submodules:
  numkit    dense complex linear algebra primitives
  channel   Kraus/Choi representations, duality, channel builders
  extremal  extremality tests and constructive decompositions
  qubit     qubit-channel geometry, normal forms, entanglement results
  capacity  capacities, correlation measures, fidelity optimization
  cli       command-line front end
"""

import importlib

from . import numkit, channel, extremal, qubit, capacity

__all__ = ["numkit", "channel", "extremal", "qubit", "capacity", "cli"]
__version__ = "0.1.0"


def __getattr__(name):
    # cli loads on first use, so `python -m qchan.cli` does not find it
    # already imported by the package
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
