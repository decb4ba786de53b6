"""Logarithmic-coefficient bounds for Janowski-type (j,k)-symmetric starlike
functions: truncated-series pipeline, dilogarithm-based sharp bounds, and
numerical verification."""

from .bounds import extremal_tail_bound, thm2_bound, thm3_bound, thm_a_bound
from .members import (
    ClassMember,
    ClassParams,
    ExpDamp,
    Identity,
    Polynomial,
    Rotation,
    SchwarzSeed,
    extremal_function,
    member_from_seed,
    suggested_order,
)
from .polylog import li
from .search import SearchReport, adversarial_search
from .verify import CheckRow, check_sharpness, verify_member

__version__ = "0.1.0"

__all__ = [
    "CheckRow",
    "ClassMember",
    "ClassParams",
    "ExpDamp",
    "Identity",
    "Polynomial",
    "Rotation",
    "SchwarzSeed",
    "SearchReport",
    "adversarial_search",
    "check_sharpness",
    "extremal_function",
    "extremal_tail_bound",
    "li",
    "member_from_seed",
    "suggested_order",
    "thm2_bound",
    "thm3_bound",
    "thm_a_bound",
    "verify_member",
]
