"""Inequality and sharpness checks on generated class members.

Partial sums of nonnegative terms can only understate the left-hand sides,
so a pass verdict is sound at any truncation; sharpness certification adds
the extremal tail, summed to rounding, and compares partial + tail with the
bound.  A member's bounds come from its point's plan, and its sums from one
weighted reduction of |d_n|^2; a skipped or vacuous check makes no sum.
Since |d_n|^2 = G |q_n|^2 with q the seed's unit coefficients at (B, N_d),
a sweep reduces |q_n|^2 once per (B, seed, N_d) and scales the sums by each
point's G, lifting a tiny q by a power of two first so that a sum of
subnormal squares rounds once, not twice; both feed one row builder,
`plan_rows`.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .bounds import _check_weight, extremal_tail_bound, thm2_bound, thm3_bound, thm_a_bound
from .errors import BExcluded, DivergentSeries, HypothesisViolated, WeightOutOfRange
from .members import ClassMember, ClassParams, Identity, extremal_function, suggested_order

DEFAULT_TOL = 1e-9
SHARPNESS_TOL = 1e-8
#: term-by-term equality tolerance for extremal coefficients
COEFF_TOL = 1e-11
#: slack floor of a partial-sum dominance B_K <= C_K: absolute, and relative to C_K
SLACK_ABS, SLACK_REL = 1e-10, 1e-12
#: the notes of a row with nothing to compare: its bound is excluded, or infinite
SKIPPED = "skipped: B = -1 excluded by the theorem hypothesis"
VACUOUS = "bound series diverges at B = -1; inequality vacuous"


class CheckRow(NamedTuple):
    """One check, as one report row: the report's columns, in order, but the
    parameters and the timing, with `passed` for the report's `pass`."""

    theorem: str
    seed: str
    t: float | None
    N: int | None
    N_d: int | None
    partial_sum: float | None
    bound: float | None
    ratio: float | None
    passed: bool
    tail_bound: float | None
    note: str


def bound_plan(params: ClassParams, t_values: tuple[float, ...]) -> tuple[tuple, tuple]:
    """A point's checks, each (theorem, t, bound, ratio, note, weight key), and
    the keys of the compared ones, in order.  Every bound is asked for here,
    before any sum, so one out of range raises before a sum can overflow.  A
    skipped or vacuous check has its ratio and note, and no key; a key is
    "sq" (weight 1), "n2" (n^2) or t ((n+1)^t)."""

    def plan(theorem: str, t: float | None, key, bound_fn, *args) -> tuple:
        try:
            return theorem, t, bound_fn(params, *args), None, "", key
        except BExcluded:
            return theorem, t, None, None, SKIPPED, None
        except DivergentSeries:
            return theorem, t, math.inf, 0.0, VACUOUS, None

    checks = (
        plan("ThmA", None, "sq", thm_a_bound),
        plan("Thm2", None, "n2", thm2_bound),
        *(plan(f"Thm3(t={t:g})", t, t, thm3_bound, t) for t in t_values),
    )
    return checks, tuple(c[5] for c in checks if c[5] is not None)


@functools.lru_cache(maxsize=32)  # a command asks for a few N_d
def _weight_stack(n_terms: int, keys: tuple) -> np.ndarray:
    """The weight rows of `keys` for n = 1..n_terms, one row each (read-only):
    1, n^2 or (n+1)^t, each with the bits of its `logcoeffs` sum's weights."""
    n = np.arange(1.0, n_terms + 1.0)
    named = {"sq": np.ones(n_terms), "n2": n**2}
    rows = [named[key] if isinstance(key, str) else (n + 1.0) ** key for key in keys]
    stack = np.array(rows).reshape(len(keys), n_terms)  # no keys: no rows
    stack.flags.writeable = False
    return stack


def weighted_sums(c: np.ndarray, keys: tuple, c1_offset: complex = 0j) -> list[float]:
    """The sums of |c_n|^2 against the weight rows of `keys`, in order: one
    reduction, each sum bit-equal to its `logcoeffs` sum on c.  A nonzero
    `c1_offset` is added to c_1 of a copy first."""
    if c1_offset == 0:
        sq = np.abs(c) ** 2
    else:
        c = np.array(c, dtype=np.complex128)  # the caller's c stays as it is
        c[0] += complex(c1_offset)
        # past about 1.3e154 it squares to inf, silently: every sum is inf, and fails closed
        with np.errstate(over="ignore"):
            sq = np.abs(c) ** 2
    return (_weight_stack(len(sq), keys) * sq).sum(axis=1).tolist()


def lifted(c: np.ndarray, c1_offset: complex = 0j) -> tuple[np.ndarray, complex, int]:
    """c and `c1_offset` times 2^e, and e >= 0: the least e that brings the
    larger of max |c_n| and |c1_offset| to 1/2 or above.  Squares of the
    lifted values stay out of the subnormal range, so a sum that a scale
    multiplies later rounds there once, in `plan_rows`, not twice.  The
    scaling is exact: above the subnormal range each sum is 2^2e times the
    sum on c, bit for bit."""
    peak = max(float(np.max(np.abs(c), initial=0.0)), abs(c1_offset))
    e = max(0, -math.frexp(peak)[1])  # 0 for a peak of 0, inf or NaN
    if e == 0:
        return c, c1_offset, 0
    c = np.ldexp(c.view(np.float64), e).view(np.complex128)
    return c, complex(math.ldexp(c1_offset.real, e), math.ldexp(c1_offset.imag, e)), e


def plan_rows(plan, sums, scale: float, params: ClassParams, seed, order: int, n_d: int,
              tol: float, shift: int = 0) -> list[CheckRow]:
    """The rows of `bound_plan`'s plan for the point `params`, the seed `seed`
    and N = order, N_d = n_d: each compared check's sum is `scale` times the
    next of `sums`, one per plan key, times 2^shift.  `verify_member` gives
    the sums of |d_n 2^e|^2 at scale 1, d `lifted` by 2^e, and shift -2e;
    `starlog verify` gives those of |q_n 2^e|^2 at scale G, q the seed's
    lifted `unit_log_coefficients`, shared by every point at its B and N_d."""
    checks, _ = plan
    sums = iter(sums)
    label = seed.label()
    tail = extremal_tail_bound(params, n_d) if isinstance(seed, Identity) else None
    rows = []
    for theorem, t, bound, ratio, note, key in checks:
        # a skipped or vacuous row makes no sum
        s = None if key is None else math.ldexp(scale * next(sums), shift)
        if s is not None:  # fail closed: a NaN, zero or negative bound gives a NaN ratio
            ratio = s / bound if math.isfinite(bound) and bound > 0 else math.nan
        passed = s is None or ratio <= 1.0 + tol
        rows.append(CheckRow(theorem, label, t, order, n_d, s, bound, ratio, passed, tail, note))
    return rows


def verify_member(
    member: ClassMember,
    t_values: tuple[float, ...] = (-1.0, 0.0, 1.0, 2.0),
    tol: float = DEFAULT_TOL,
    d1_offset: complex = 0j,
) -> list[CheckRow]:
    """Check every bound on one member; pass means ratio <= 1 + tol.

    `d1_offset` is a fault-injection hook: it perturbs a copy of d_1 before
    checking, so a sound pipeline with a nonzero offset must fail.
    """
    plan = bound_plan(member.params, t_values)
    d, d1_offset, e = lifted(member.d, d1_offset)
    sums = weighted_sums(d, plan[1], d1_offset)
    return plan_rows(plan, sums, 1.0, member.params, member.seed, member.order, len(member.d), tol,
                     -2 * e)


def check_sharpness(
    params: ClassParams,
    order: int | None = None,
    tol: float = SHARPNESS_TOL,
) -> CheckRow:
    """Certify equality of the plain-squares bound at the extremal member.

    Verifies |d_n(K)|^2 = G B^{2(n-1)}/n^2 term by term, by one rule at every
    B: within `COEFF_TOL`, or, where the closed form vanishes (every n > 1 at
    B = 0), |d_n| <= `COEFF_TOL`.  Then it checks that the partial sum plus
    the tail `extremal_tail_bound`, summed to rounding, is the bound within
    `tol`.  A term that differs, or is not finite, gives a failed row with no
    sum, whose note names the first such n.  The member has
    `suggested_order(params)` terms by default (512 m at B = -1): the tail
    covers whatever the partial sum leaves.
    """
    if order is None:
        order = suggested_order(params)
    member = extremal_function(params, order)
    d, n_d = member.d, len(member.d)
    ran_at = ("ThmA-sharpness", "identity", None, member.order, n_d)

    # one rule for every B: |d_n|^2 against G B^{2(n-1)}/n^2; where that vanishes (each
    # n > 1 at B = 0, or an underflow) |d_n| itself must; a NaN fails either comparison
    sq = np.abs(d) ** 2
    expected = params.G * (params.B * params.B) ** np.arange(n_d) / np.arange(1.0, n_d + 1.0) ** 2
    close = np.where(expected == 0.0, np.abs(d), np.abs(sq - expected)) <= COEFF_TOL
    n = int(np.argmin(close)) + 1
    if not close[n - 1]:
        s, e = sq[n - 1], expected[n - 1]
        note = f"term-by-term equality failed at n={n}: |d_{n}|^2 = {s} != {e} (d_{n} = {d[n - 1]})"
        return CheckRow(*ran_at, None, None, None, False, None, note)

    partial = float(sq.sum())
    tail = extremal_tail_bound(params, n_d)
    bound = thm_a_bound(params)
    # fail closed, as verify_member does: only a positive finite bound can pass
    ok = math.isfinite(bound) and bound > 0
    ratio = (partial + tail) / bound if ok else math.nan
    passed = ok and abs(partial + tail - bound) <= tol * bound
    return CheckRow(*ran_at, partial, bound, ratio, passed, tail, "")


def rogosinski_l2_check(subordinate, superordinate, upto: int) -> tuple[bool, float]:
    """Partial-sum l^2 dominance of a subordinate pair of coefficient arrays.

    Entry n of each array is the coefficient of z^n.  For every K <= upto
    checks B_K <= C_K + max(SLACK_ABS, SLACK_REL * C_K), where B_K and C_K
    are the partial sums of |b_n|^2 and |c_n|^2 (coefficients counted from
    exponent 1), and returns (ok, minimum slack C_K - B_K).  Equal sums
    computed apart differ by a few ulps of C_K, so the floor scales with C_K;
    it stays absolute for tiny sums.  A NaN fails.
    """
    upto = min(upto, len(subordinate) - 1, len(superordinate) - 1)
    b = np.abs(np.asarray(subordinate)[1 : upto + 1]) ** 2
    c = np.cumsum(np.abs(np.asarray(superordinate)[1 : upto + 1]) ** 2)
    slack = c - np.cumsum(b)
    min_slack = float(slack.min()) if slack.size else 0.0
    return bool(np.all(slack >= -np.maximum(SLACK_ABS, SLACK_REL * c))), min_slack


def telescoping_weight(k, t: float):
    """(k+1)^t / k^2 - (k+2)^t / (k+1)^2, positive for t <= 2; elementwise on arrays."""
    return (k + 1.0) ** t / k**2 - (k + 2.0) ** t / (k + 1.0) ** 2


def abel_weight_transfer(x, y, C: float, t: float) -> tuple[bool, float]:
    """Transfer partial-sum dominance to (n+1)^t/n^2-weighted dominance.

    Hypothesis (re-verified here): sum_{n<=K} x_n <= C sum_{n<=K} y_n for
    all K, with nonnegative x, y.  Multiplying the K-th inequality by the
    positive factor (K+1)^t/K^2 - (K+2)^t/(K+1)^2 and summing telescopes to
    sum w_n x_n <= C sum w_n y_n with w_n = (n+1)^t / n^2.  Returns
    (conclusion holds, margin = C * rhs - lhs).
    """
    _check_weight(t)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    N = min(len(x), len(y))
    x, y = x[:N], y[:N]
    cx, cy = np.cumsum(x), np.cumsum(y)
    scale = 1.0 + np.abs(C) * np.maximum(cy, 1.0)
    bad = np.nonzero(cx > C * cy + 1e-12 * scale)[0]
    if bad.size:
        K = int(bad[0]) + 1
        raise HypothesisViolated(
            f"partial-sum dominance fails at K = {K}: {cx[K - 1]} > {C} * {cy[K - 1]}"
        )
    n = np.arange(1, N + 1, dtype=np.float64)
    w = (n + 1.0) ** t / n**2
    # the telescoping factors, with the bits of `telescoping_weight` at k = 1..N-1
    if np.any(w[:-1] - w[1:] <= 0.0):
        raise WeightOutOfRange(f"telescoping weight factor not positive for t = {t}")
    lhs = float(np.dot(w, x))
    rhs = float(np.dot(w, y))
    margin = C * rhs - lhs
    return margin >= -1e-12 * (1.0 + abs(C * rhs)), margin
