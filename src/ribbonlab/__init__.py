"""Combinatorial workbench for ribbon presentations of higher-dimensional
ribbon knots: encode presentations, apply equivalence moves, compute
quandle coloring counts and Alexander polynomials, and search for
replayable equivalence certificates.

The package imports its modules lazily (PEP 562).  ``import ribbonlab``
loads no submodule, ``ribbonlab.<module>`` imports that module alone, and
a public name imports the one module that defines it, looked up in a
table of each module's public names; ``from ribbonlab import *`` imports
all five.  The command line runs one command per process, and importing
every module would cost more than most commands compute: compiled from
source (no bytecode cache) on CPython 3.11 (Intel Xeon, 2 cores, medians
of 21 ``-X importtime`` runs), ``ribbon`` takes about 10 ms to import,
``moves``, ``quandle`` and ``search`` about 6 each and ``alexander`` 4
(7 when its gcd imported ``fractions``), while ``canon``, ``color`` and
``alex`` on a 12-base knot compute for under 1 ms.  So ``ribbonlab.cli``
imports what each command runs (see its docstring), and the value
classes are built without ``dataclasses`` (see ``ribbon._Value``), whose
import and class creation took about 40 % of the five modules' import
time.
"""

import importlib

__version__ = "0.1.0"

# Each module's public names, written once: each module sets its
# ``__all__`` from this table (the package runs before any of its
# submodules), and resolving one name reads the table instead of importing
# every module to read its ``__all__``.
_PUBLIC = {
    "ribbon": (
        "SignedLetter", "Handle", "RibbonData", "RibbonFormatError", "parse_ribbon", "serialize",
        "validate", "component_count", "genus", "is_sphere_knot", "free_reduce_word", "free_reduce",
        "reverse_flip", "reversed_handle", "canonical_form", "canonical_bytes",
    ),
    "moves": (
        "MoveError", "ScriptFormatError", "Stab", "Destab", "CancelInsert", "CancelDelete", "Slide",
        "CrossSlide", "TrivialHandle", "RemoveTrivialHandle", "ReverseHandle", "MoveScript",
        "parse_script", "serialize_script", "apply_move", "apply_script", "apply_stabilize",
        "apply_destabilize", "apply_cancel_insert", "apply_cancel_delete", "apply_slide",
        "apply_cross_slide", "apply_trivial_handle", "remove_trivial_handle", "reverse_handle",
        "slides", "enumerate_moves",
    ),
    "quandle": (
        "FiniteQuandle", "check_quandle_axioms", "dihedral_quandle", "trivial_quandle",
        "builtin_quandle", "parse_quandle", "serialize_quandle", "quandle_presentation",
        "group_presentation", "count_colorings", "list_colorings", "coloring_profile",
    ),
    "alexander": ("LaurentPolynomial", "alexander_polynomial"),
    "search": (
        "Equivalent", "Refuted", "Unknown", "MergeWitness", "search_equiv", "certify",
        "replay_canonical", "serialize_outcome", "macro_merge_bases", "macro_clone_handle",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _PUBLIC or name == "cli":
        # the import system binds the submodule in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
