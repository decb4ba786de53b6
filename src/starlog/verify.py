"""Inequality and sharpness checks on generated class members.

Partial sums of nonnegative terms can only understate the left-hand sides,
so a pass verdict is sound at any truncation; sharpness certification adds
an analytic tail bound to bracket the bound value from both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import extremal_tail_bound, h_factor, thm2_bound, thm3_bound, thm_a_bound
from .errors import (
    BExcluded,
    DivergentSeries,
    HypothesisViolated,
    SharpnessFailure,
    SlowModeRequired,
    WeightOutOfRange,
)
from .logcoeffs import LogCoeffVector, log_coefficients, sum_n2, sum_sq, sum_weighted
from .members import ClassMember, ClassParams, Identity, extremal_function, suggested_order
from .series import TruncatedSeries

DEFAULT_TOL = 1e-9
SHARPNESS_TOL = 1e-8
#: term-by-term equality tolerance for extremal coefficients
COEFF_TOL = 1e-11


@dataclass(frozen=True)
class CheckRow:
    """Outcome of one inequality check."""

    theorem: str
    t: float | None
    partial_sum: float | None
    bound: float | None
    ratio: float | None
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """All checks for one (params, seed) member."""

    params: ClassParams
    seed_label: str
    order: int
    n_terms: int
    tol: float
    tail_bound: float | None
    rows: list[CheckRow] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def verify_member(
    member: ClassMember,
    t_values: tuple[float, ...] = (-1.0, 0.0, 1.0, 2.0),
    tol: float = DEFAULT_TOL,
    d1_offset: complex = 0j,
) -> VerificationReport:
    """Check every bound on one member; pass means ratio <= 1 + tol.

    `d1_offset` is a fault-injection hook: it perturbs d_1 before checking,
    so a sound pipeline with a nonzero offset must fail.
    """
    params = member.params
    d = log_coefficients(member)
    if d1_offset != 0:
        shifted = d.d.copy()
        shifted[0] += complex(d1_offset)
        d = LogCoeffVector(d=shifted, m=d.m)

    rows: list[CheckRow] = []

    def ineq(theorem: str, t: float | None, s: float, bound: float):
        # fail closed: a NaN, zero or negative bound gives a NaN ratio, which never passes
        ratio = s / bound if math.isfinite(bound) and bound > 0 else math.nan
        rows.append(
            CheckRow(
                theorem=theorem,
                t=t,
                partial_sum=s,
                bound=bound,
                ratio=ratio,
                passed=ratio <= 1.0 + tol,
            )
        )

    ineq("ThmA", None, sum_sq(d), thm_a_bound(params).bound)

    try:
        ineq("Thm2", None, sum_n2(d), thm2_bound(params).bound)
    except BExcluded:
        rows.append(
            CheckRow(
                theorem="Thm2",
                t=None,
                partial_sum=sum_n2(d),
                bound=None,
                ratio=None,
                passed=True,
                note="skipped: B = -1 excluded by the theorem hypothesis",
            )
        )

    for t in t_values:
        tag = f"Thm3(t={t:g})"
        try:
            ineq(tag, t, sum_weighted(d, t), thm3_bound(params, t).bound)
        except DivergentSeries:
            rows.append(
                CheckRow(
                    theorem=tag,
                    t=t,
                    partial_sum=sum_weighted(d, t),
                    bound=math.inf,
                    ratio=0.0,
                    passed=True,
                    note="bound series diverges at B = -1; inequality vacuous",
                )
            )

    tail = extremal_tail_bound(params, d.n_terms) if isinstance(member.seed, Identity) else None
    return VerificationReport(
        params=params,
        seed_label=member.seed.label(),
        order=member.order,
        n_terms=d.n_terms,
        tol=tol,
        tail_bound=tail,
        rows=rows,
    )


def check_sharpness(
    params: ClassParams,
    order: int | None = None,
    tol: float = SHARPNESS_TOL,
    slow: bool = False,
) -> dict:
    """Certify equality of the plain-squares bound at the extremal member.

    Verifies |d_n(K)|^2 = H(A,B) B^{2n}/n^2 term by term, then brackets the
    bound by partial sum plus analytic tail.  |B| > 0.9 decays too slowly
    for the default budget and requires slow=True (B = -1 then uses the
    exact trigamma tail with N_d >= 10^4).
    """
    if abs(params.B) > 0.9 and not slow:
        raise SlowModeRequired(
            f"|B| = {abs(params.B)} > 0.9: equality certification needs slow mode "
            "(pass slow=True / --slow); the tail decays too slowly otherwise"
        )
    if order is None:
        if params.B == -1.0:
            order = 10_000 * params.m
        else:
            order = suggested_order(params)
    member = extremal_function(params, order)
    d = log_coefficients(member)
    h = h_factor(params)
    b2 = params.B * params.B

    if params.B == 0.0:
        expected_first = abs(params.A / (2.0 * params.m)) ** 2
        if abs(abs(d[0]) ** 2 - expected_first) > COEFF_TOL:
            raise SharpnessFailure(f"|d_1|^2 = {abs(d[0])**2} != {expected_first}", n=1)
        bad = np.nonzero(np.abs(d.d[1:]) > COEFF_TOL)[0]
        if bad.size:
            n = int(bad[0]) + 2
            raise SharpnessFailure(f"d_{n} = {d[n - 1]} should vanish for B = 0", n=n)
    else:
        sq = np.abs(d.d) ** 2
        expected = h * b2 ** np.arange(1, d.n_terms + 1) / np.arange(1, d.n_terms + 1) ** 2.0
        bad = np.nonzero(np.abs(sq - expected) > COEFF_TOL)[0]
        if bad.size:
            n = int(bad[0]) + 1
            raise SharpnessFailure(
                f"|d_{n}|^2 = {sq[n - 1]} != {expected[n - 1]} (diff {sq[n - 1] - expected[n - 1]})",
                n=n,
            )

    partial = sum_sq(d)
    tail = extremal_tail_bound(params, d.n_terms)
    bound = thm_a_bound(params).bound
    bracket_err = abs(partial + tail - bound)
    passed = bracket_err <= tol * bound
    return {
        "params": params,
        "order": member.order,
        "n_terms": d.n_terms,
        "partial_sum": partial,
        "tail_bound": tail,
        "bound": bound,
        "bracket_err": bracket_err,
        "pass": passed,
    }


def rogosinski_l2_check(
    subordinate: TruncatedSeries, superordinate: TruncatedSeries, upto: int
) -> tuple[bool, float]:
    """Partial-sum l^2 dominance of a subordinate pair.

    For every K <= upto checks sum_{n<=K} |b_n|^2 <= sum_{n<=K} |c_n|^2 + 1e-10
    (coefficients counted from exponent 1) and returns (ok, minimum slack).
    """
    upto = min(upto, subordinate.order, superordinate.order)
    b = np.abs(subordinate.array[1 : upto + 1]) ** 2
    c = np.abs(superordinate.array[1 : upto + 1]) ** 2
    slack = np.cumsum(c) - np.cumsum(b)
    min_slack = float(slack.min()) if slack.size else 0.0
    return min_slack >= -1e-10, min_slack


def telescoping_weight(k, t: float):
    """(k+1)^t / k^2 - (k+2)^t / (k+1)^2, positive for t <= 2; elementwise on arrays."""
    return (k + 1.0) ** t / k**2 - (k + 2.0) ** t / (k + 1.0) ** 2


def abel_weight_transfer(
    x, y, C: float, t: float, n_terms: int | None = None
) -> tuple[bool, float]:
    """Transfer partial-sum dominance to (n+1)^t/n^2-weighted dominance.

    Hypothesis (re-verified here): sum_{n<=K} x_n <= C sum_{n<=K} y_n for
    all K, with nonnegative x, y.  Multiplying the K-th inequality by the
    positive factor (K+1)^t/K^2 - (K+2)^t/(K+1)^2 and summing telescopes to
    sum w_n x_n <= C sum w_n y_n with w_n = (n+1)^t / n^2.  Returns
    (conclusion holds, margin = C * rhs - lhs).
    """
    if not (math.isfinite(t) and t <= 2.0):
        raise WeightOutOfRange(f"weight exponent t = {t}: need a finite t <= 2")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    N = min(len(x), len(y)) if n_terms is None else min(n_terms, len(x), len(y))
    x, y = x[:N], y[:N]
    cx, cy = np.cumsum(x), np.cumsum(y)
    scale = 1.0 + np.abs(C) * np.maximum(cy, 1.0)
    bad = np.nonzero(cx > C * cy + 1e-12 * scale)[0]
    if bad.size:
        K = int(bad[0]) + 1
        raise HypothesisViolated(
            f"partial-sum dominance fails at K = {K}: {cx[K - 1]} > {C} * {cy[K - 1]}"
        )
    ks = np.arange(1, N, dtype=np.float64)
    if np.any(telescoping_weight(ks, t) <= 0.0):
        raise WeightOutOfRange(f"telescoping weight factor not positive for t = {t}")
    n = np.arange(1, N + 1, dtype=np.float64)
    w = (n + 1.0) ** t / n**2
    lhs = float(np.dot(w, x))
    rhs = float(np.dot(w, y))
    margin = C * rhs - lhs
    return margin >= -1e-12 * (1.0 + abs(C * rhs)), margin
