"""dfan: V-multifiltrations, analytic standard fans and Rees-module
flatness certificates over the Weyl algebra, with exact rational
arithmetic throughout."""

__version__ = "0.1.0"

from .basis import DivisionResult, StandardBasis, reduce_basis
from .fan import Fan, FanCone, standard_fan
from .filtration import in_V_gamma, in_V_s, multi_weight, newton_diagram
from .flatness import (
    FlatCertificate,
    MonomialIdeal,
    flat_decompose,
    intersection_oracle,
    kernel_normalize,
    monomial_filtration,
    offsets,
)
from .grammar import format_op, format_vec, parse_op, parse_vec
from .problem import ProblemFile, format_problem, parse_problem
from .rees import ReesElement, fiber_V_zero_test, from_A, rees_mul, to_A
from .toric import BasicCone, refine_to_basic
from .weights import GeneralForm, LinearForm, TermOrder, privileged_exponent
from .weyl import (
    DtOp,
    DtVec,
    RingDescriptor,
    WeylOp,
    WeylVec,
    dehomogenize,
    homogenize,
    homogenize_vec,
)

__all__ = [
    "BasicCone",
    "DivisionResult",
    "DtOp",
    "DtVec",
    "Fan",
    "FanCone",
    "FlatCertificate",
    "GeneralForm",
    "LinearForm",
    "MonomialIdeal",
    "ProblemFile",
    "ReesElement",
    "RingDescriptor",
    "StandardBasis",
    "TermOrder",
    "WeylOp",
    "WeylVec",
    "dehomogenize",
    "fiber_V_zero_test",
    "flat_decompose",
    "format_op",
    "format_problem",
    "format_vec",
    "from_A",
    "homogenize",
    "homogenize_vec",
    "in_V_gamma",
    "in_V_s",
    "intersection_oracle",
    "kernel_normalize",
    "monomial_filtration",
    "multi_weight",
    "newton_diagram",
    "offsets",
    "parse_op",
    "parse_problem",
    "parse_vec",
    "privileged_exponent",
    "reduce_basis",
    "rees_mul",
    "refine_to_basic",
    "standard_fan",
    "to_A",
    "__version__",
]
