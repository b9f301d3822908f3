"""Combinatorial workbench for ribbon presentations of higher-dimensional
ribbon knots: encode presentations, apply equivalence moves, compute
quandle coloring counts and Alexander polynomials, and search for
replayable equivalence certificates.

The package imports its modules lazily (PEP 562).  ``import ribbonlab``
loads no submodule, ``ribbonlab.<module>`` imports that module alone, and
a public name imports ``ribbon``, ``moves``, ``quandle``, ``alexander``
and ``search`` in that order up to the first whose ``__all__`` lists it;
``from ribbonlab import *`` imports all five.  The command line runs one
command per process, and importing every module would cost more than
most commands compute: compiled from source (no bytecode cache) on
CPython 3.11, ``ribbon`` takes about 30 ms to import (12 of them for
``dataclasses``), ``moves`` 20, ``quandle`` and ``search`` 11-14 each and
``alexander`` 7-12, while ``canon``, ``color`` and ``alex`` on a 12-base
knot compute for under 1 ms.  So ``ribbonlab.cli`` imports what each
command runs (see its docstring).
"""

import importlib

__version__ = "0.1.0"

# Each module's ``__all__`` is the one list of its public names; a name
# is looked up in the first of these that lists it.
_MODULES = ("ribbon", "moves", "quandle", "alexander", "search")


def _submodule(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        # the import system binds the submodule in this namespace
        return _submodule(name)
    if name == "__all__":
        value = [public for module in _MODULES for public in _submodule(module).__all__]
    else:
        for module_name in _MODULES:
            module = _submodule(module_name)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
