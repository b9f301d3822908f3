"""Combinatorial workbench for ribbon presentations of higher-dimensional
ribbon knots: encode presentations, apply equivalence moves, compute
quandle coloring counts and Alexander polynomials, and search for
replayable equivalence certificates."""

# Each module's ``__all__`` is the one list of its public names.
from .ribbon import *
from .moves import *
from .quandle import *
from .alexander import *
from .search import *

__version__ = "0.1.0"
