"""Exact average-kernel-size computations over truncated rings Z/p^n.

A library and CLI for module representations given by structure-constant
tensors: Knuth duals, direct and collapsed sums, alternating hulls, average
kernel sizes and their zeta coefficients, closed-form zeta functions, and
class numbers of the associated finite p-groups. Every result is an exact
integer or rational; the verification suite replays all identities by
independent brute-force enumeration.

The acceptance suite (``verify``) and the polynomial module (``polynom``)
load on first use of one of their names, so that importing the package for
a query compiles neither.
"""

from .ask import (
    DEFAULT_BUDGET,
    AskResult,
    BudgetExceededError,
    ZetaSeries,
    ask_m,
    kernel_census,
    zeta_coeffs,
)
from .catalog import make as make_example
from .groups import FiniteGroupSpec, build_group, class_number, lazard_group
from .mrep import (
    Dual,
    HomotopyTriple,
    MRep,
    adjoint_rep,
    collapse,
    collapsed_power,
    constant_rank_check,
    kminimality_check,
    verify_homotopy,
)
from .ring import TruncatedRing, image_size, kernel_size, smith_exponents
from .zeta import QPolynomial, RationalFunction, closed_form

__version__ = "0.1.0"

__all__ = [
    "AskResult",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "Dual",
    "FiniteGroupSpec",
    "HomotopyTriple",
    "MRep",
    "MultiPoly",
    "QPolynomial",
    "RationalFunction",
    "TruncatedRing",
    "ZetaSeries",
    "adjoint_rep",
    "ask_m",
    "build_group",
    "class_number",
    "closed_form",
    "collapse",
    "collapsed_power",
    "constant_rank_check",
    "count_hypersurface_points",
    "det_linear_matrix",
    "generic_rank",
    "image_size",
    "kernel_census",
    "kernel_size",
    "kminimality_check",
    "lazard_group",
    "make_example",
    "smith_exponents",
    "verify_class_identities",
    "verify_homotopy",
    "zeta_coeffs",
]

# public names resolved on first access, by the module that defines them
_LAZY = {
    "MultiPoly": "polynom",
    "count_hypersurface_points": "polynom",
    "det_linear_matrix": "polynom",
    "generic_rank": "polynom",
    "verify_class_identities": "verify",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
