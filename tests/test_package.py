import types

import qchan


def test_all_lists_the_documented_submodules():
    listing = qchan.__doc__.split("Submodules:")[1].strip().splitlines()
    named = [line.split()[0] for line in listing]
    assert qchan.__all__ == named
    namespace = {}
    exec("from qchan import *", namespace)
    for name in named:
        assert isinstance(namespace[name], types.ModuleType)
