"""Major-index distributions over pattern-avoiding permutation classes."""

from .errors import (
    InvalidInputError,
    MajpatError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedPatternError,
    VerificationError,
)
from .perms import (
    Magnitude,
    Perm,
    avoids,
    contains,
    delete_at,
    descents,
    format_perm,
    insert,
    magnitude,
    maj_plus,
    major_index,
    order_pattern,
    parse_perm,
    set_magnitude,
    slope,
    tail,
)
from .decomp import (
    CoreDecomposition,
    cap_profile,
    co_layered,
    compose,
    decompose,
    format_profile,
)
from .poly import Polynomial
from .enumeration import (
    CoreSet,
    MajTable,
    PatternSet,
    core_polynomial,
    core_set,
    count_avoiders,
    count_by_core,
    eventual_polynomial,
    generate_avoiders,
    maj_table,
    major_count_series,
)
from .monotone import (
    InjectionCase,
    InjectionTag,
    MonotonicityReport,
    monotone_injection,
    verify_monotonicity,
)
from .asymptotics import (
    DegreePrediction,
    DegreeReport,
    DetectedDegree,
    PredictionKind,
    Verdict,
    bounded_degree_criterion,
    degree_for_magnitude,
    degree_report,
    detect_degree,
    largest_triangular_index,
    limit_probability,
    magnitude_two_core,
    max_length_core,
    predicted_degree,
)

__version__ = "0.1.0"

__all__ = [
    "CoreDecomposition", "CoreSet", "DegreePrediction", "DegreeReport",
    "DetectedDegree", "InjectionCase", "InjectionTag", "InvalidInputError",
    "Magnitude", "MajTable", "MajpatError", "MonotonicityReport", "PatternSet",
    "Perm", "Polynomial", "PreconditionError", "PredictionKind",
    "ResourceLimitError", "UnsupportedPatternError", "Verdict",
    "VerificationError", "avoids", "bounded_degree_criterion", "cap_profile",
    "co_layered", "compose", "contains", "core_polynomial", "core_set",
    "count_avoiders", "count_by_core", "decompose", "degree_for_magnitude",
    "degree_report", "delete_at", "descents", "detect_degree",
    "eventual_polynomial", "format_perm", "format_profile",
    "generate_avoiders", "insert", "largest_triangular_index",
    "limit_probability", "magnitude", "magnitude_two_core", "maj_plus",
    "maj_table", "major_count_series", "major_index", "max_length_core",
    "monotone_injection", "order_pattern", "parse_perm", "predicted_degree",
    "set_magnitude", "slope", "tail", "verify_monotonicity",
]
