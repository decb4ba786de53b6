"""Logarithmic-coefficient bounds for Janowski-type (j,k)-symmetric
starlike functions: truncated-series pipeline, dilogarithm-based sharp
bounds, and numerical verification."""

from .bounds import extremal_tail_bound, thm2_bound, thm3_bound, thm_a_bound
from .logcoeffs import (
    LogCoeffVector,
    extremal_log_coefficient,
    log_coefficients,
    sum_n2,
    sum_sq,
    sum_weighted,
)
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
    seed_series,
    suggested_order,
)
from .polylog import li
from .search import SearchReport, adversarial_search
from .series import TruncatedSeries
from .verify import (
    CheckRow,
    abel_weight_transfer,
    check_sharpness,
    rogosinski_l2_check,
    telescoping_weight,
    verify_member,
)

__version__ = "0.1.0"

__all__ = [
    "CheckRow",
    "ClassMember",
    "ClassParams",
    "ExpDamp",
    "Identity",
    "LogCoeffVector",
    "Polynomial",
    "Rotation",
    "SchwarzSeed",
    "SearchReport",
    "TruncatedSeries",
    "abel_weight_transfer",
    "adversarial_search",
    "check_sharpness",
    "extremal_function",
    "extremal_log_coefficient",
    "extremal_tail_bound",
    "li",
    "log_coefficients",
    "member_from_seed",
    "rogosinski_l2_check",
    "seed_series",
    "suggested_order",
    "sum_n2",
    "sum_sq",
    "sum_weighted",
    "telescoping_weight",
    "thm2_bound",
    "thm3_bound",
    "thm_a_bound",
    "verify_member",
]
