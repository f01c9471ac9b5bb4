"""dfan: V-multifiltrations, analytic standard fans and Rees-module
flatness certificates over the Weyl algebra, with exact rational
arithmetic throughout."""

__version__ = "0.1.0"

from .basis import DivisionResult, StandardBasis, reduce_basis
from .fan import Fan, FanCone, standard_fan
from .filtration import in_V_gamma, multi_weight
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
from .problem import ProblemFile, parse_problem
from .rees import fiber_V_zero_test
from .toric import BasicCone, refine_to_basic
from .weights import LinearForm, TermOrder
from .weyl import (
    DtOp,
    DtVec,
    RingDescriptor,
    WeylOp,
    WeylVec,
    dehomogenize,
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
    "LinearForm",
    "MonomialIdeal",
    "ProblemFile",
    "RingDescriptor",
    "StandardBasis",
    "TermOrder",
    "WeylOp",
    "WeylVec",
    "dehomogenize",
    "fiber_V_zero_test",
    "flat_decompose",
    "format_op",
    "format_vec",
    "homogenize_vec",
    "in_V_gamma",
    "intersection_oracle",
    "kernel_normalize",
    "monomial_filtration",
    "multi_weight",
    "offsets",
    "parse_op",
    "parse_problem",
    "parse_vec",
    "reduce_basis",
    "refine_to_basic",
    "standard_fan",
    "__version__",
]
