"""Exact arithmetic for Jordan types of nilpotent operators and their
propagation along stable translation quivers."""

from .errors import ParseError, ValidationError
from .jtypes import (
    DominanceConvention,
    DominanceResult,
    JordanType,
    dominance_compare,
    restrict,
    restrict_type,
)
from .oracle import NilpotentModel, jordan_type_of, pi_point_sweep
from .components import (
    SplitProfile,
    TubeProfile,
    solve_multiplicities,
    split_propagate,
)
from .quiver import (
    QuiverWindow,
    TreeClass,
    VertexFunction,
    build_window,
    check_admissible,
    classify_function,
    extrapolate,
    minimal_additive_function,
    orbit_valued_graph,
)
from .classify import (
    CohomologyClassDescriptor,
    Verdict,
    VerdictKind,
    carlson_indecomposability,
    carlson_type_set,
    endo_trivial,
)

__version__ = "0.1.0"

__all__ = [
    "CohomologyClassDescriptor",
    "DominanceConvention",
    "DominanceResult",
    "JordanType",
    "NilpotentModel",
    "ParseError",
    "QuiverWindow",
    "SplitProfile",
    "TreeClass",
    "TubeProfile",
    "ValidationError",
    "Verdict",
    "VerdictKind",
    "VertexFunction",
    "build_window",
    "carlson_indecomposability",
    "carlson_type_set",
    "check_admissible",
    "classify_function",
    "dominance_compare",
    "endo_trivial",
    "extrapolate",
    "jordan_type_of",
    "minimal_additive_function",
    "orbit_valued_graph",
    "pi_point_sweep",
    "restrict",
    "restrict_type",
    "solve_multiplicities",
    "split_propagate",
]
