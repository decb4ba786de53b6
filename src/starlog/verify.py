"""Inequality and sharpness checks on generated class members.

Partial sums of nonnegative terms can only understate the left-hand sides,
so a pass verdict is sound at any truncation; sharpness certification adds
the extremal tail, summed to rounding, and compares partial + tail with the
bound.  A member's bounds come from its point's plan, and its sums from one
weighted reduction of |d_n|^2; a skipped or vacuous check makes no sum.
Since |d_n|^2 = G |q_n|^2 with q the seed's unit coefficients at (B, N_d),
a sweep reduces |q_n|^2 once per (B, seed, N_d) and scales the sums by each
point's G.  The reduction first lifts a coefficient peak below 1/2 into
[1/2, 1), and a weight row below 1/2 up to it, by powers of two, so that a
subnormal sum rounds once, not twice; it lowers a large peak only as far as
keeps every sum finite, so no square or sum overflows.  Both paths feed one
row builder, `plan_rows`.  ThmA's plain squares are the t = 0 row.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .bounds import extremal_tail_bound, thm2_bound, thm3_bound, thm_a_bound
from .errors import BExcluded, DivergentSeries
from .members import ClassMember, ClassParams, Identity, log_order, suggested_order
from .members import unit_log_coefficients

DEFAULT_TOL = 1e-9
SHARPNESS_TOL = 1e-8
#: term-by-term equality tolerance for the extremal unit coefficients |q_n|^2
COEFF_TOL = 1e-11
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
    the distinct keys of the compared ones, in order.  Every bound is asked for here,
    before any sum, so one out of range raises before a sum can overflow.  A
    skipped or vacuous check has its ratio and note, and no key; a key is
    "n2" (n^2) or t ((n+1)^t), and ThmA's is 0.0, whose weights are exactly 1."""

    def plan(theorem: str, t: float | None, key, bound_fn, *args) -> tuple:
        try:
            return theorem, t, bound_fn(params, *args), None, "", key
        except BExcluded:
            return theorem, t, None, None, SKIPPED, None
        except DivergentSeries:
            return theorem, t, math.inf, 0.0, VACUOUS, None

    checks = (
        plan("ThmA", None, 0.0, thm_a_bound),
        plan("Thm2", None, "n2", thm2_bound),
        *(plan(f"Thm3(t={t:g})", t, t, thm3_bound, t) for t in t_values),
    )
    return checks, tuple(dict.fromkeys(c[5] for c in checks if c[5] is not None))


def _row_lift(key) -> int:
    """The least e >= 0 that lifts a weight row's peak (2^t at n = 1, t < -1) to 1/2 or above."""
    return 0 if isinstance(key, str) or key >= -1.0 else math.ceil(-1.0 - key)


@functools.lru_cache(maxsize=32)  # a command asks for a few N_d
def _weight_stack(n_terms: int, keys: tuple) -> np.ndarray:
    """The weight rows of `keys` for n = 1..n_terms (read-only): n^2 or
    (n+1)^t 2^e, e its `_row_lift` (the t = 0 row is exactly 1); each weight is
    the `logcoeffs` one times 2^e where that is normal, bit for bit, else two
    normal halves' product, each lifted."""
    n = np.arange(1.0, n_terms + 1.0)
    rows = [n**2 if key == "n2" else (n + 1.0) ** key for key in keys]
    for i, key in enumerate(keys):
        if e := _row_lift(key):
            half = (n + 1.0) ** (key / 2)
            halves = np.ldexp(half, e // 2) * np.ldexp(half, e - e // 2)
            rows[i] = np.where(rows[i] >= np.finfo(float).tiny, np.ldexp(rows[i], e), halves)
    stack = np.array(rows).reshape(len(keys), n_terms)  # no keys: no rows
    stack.flags.writeable = False
    return stack


def weighted_sums(c: np.ndarray, keys: tuple, c1_offset: complex = 0j) -> tuple[list[float], int]:
    """(sums, shift): the sums of |c_n 2^e|^2 against the weight rows of `keys`, in
    order, from one reduction, and shift = -2e.  c_1 of a copy moves by `c1_offset`
    first.  Let the peak be the larger of max |c_n| and |c1_offset|.  Below 1/2,
    e > 0 lifts it into [1/2, 1), so a tiny c's squares leave the subnormal
    range and a sum that a scale multiplies later rounds once, in `plan_rows`.
    Past 2^room, e < 0 lowers it to below 2^room: n_terms squares below
    (2^(room+1))^2, c_1 + c1_offset's included, times the largest weight stay
    below 2^1023, so no square or sum overflows, and `plan_rows` reads a sum
    past the largest double as inf.  Between, e = 0: a sum that cannot overflow
    keeps the bits of its subnormal terms.  The move is exact: in the normal
    range each sum is 2^(2e + row lift) times its `logcoeffs` sum on c, bit for bit."""
    peak = max(float(np.max(np.abs(c), initial=0.0)), abs(c1_offset))
    exp = math.frexp(peak)[1]  # peak in [2^(exp-1), 2^exp); exp = 0 for 0, inf or NaN
    stack = _weight_stack(len(c), keys)
    room = (1021 - math.frexp(float(stack.max(initial=0.0)))[1] - len(c).bit_length()) // 2
    e = min(max(0, -exp), room - exp)
    c = np.ldexp(c.view(np.float64), e).view(np.complex128)  # a copy: the caller's c stays
    c[0] += complex(math.ldexp(c1_offset.real, e), math.ldexp(c1_offset.imag, e))
    return (stack * np.abs(c) ** 2).sum(axis=1).tolist(), -2 * e


def plan_rows(plan, sums, scale: float, params: ClassParams, seed, order: int, n_d: int,
              tol: float) -> list[CheckRow]:
    """The rows of `bound_plan`'s plan for the point `params`, the seed `seed`
    and N = order, N_d = n_d: `sums` is `weighted_sums`' (sums, shift), one sum
    per plan key, and each compared check's sum is `scale` times its key's sum,
    times 2^shift over its row's lift 2^e, rounded once.  `verify_member` gives
    the sums of |d_n|^2 at scale 1, `starlog verify` those of the seed's
    `unit_log_coefficients` q at scale G, shared at a (B, N_d)."""
    checks, keys = plan
    sums, shift = sums
    sums = dict(zip(keys, sums))
    # from 2^-1021 on a sum times the mantissa is normal, and 2^exp joins the exact
    # ldexp, so no product can overflow before the shift; below it the product with
    # the whole scale (< 2^1024) stays under 8 and still rounds once
    mantissa, exp = math.frexp(scale)
    label = seed.label()
    tail = extremal_tail_bound(params, n_d) if isinstance(seed, Identity) else None
    rows = []
    for theorem, t, bound, ratio, note, key in checks:
        s = None  # a skipped or vacuous row makes no sum
        if key is not None:
            total, e = sums[key], shift - _row_lift(key)
            try:
                s = (math.ldexp(mantissa * total, exp + e) if total >= 2.0**-1021
                     else math.ldexp(scale * total, e))
            except OverflowError:  # the sum itself passes the largest double
                s = math.inf
            # fail closed: a NaN, zero or negative bound gives a NaN ratio
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
    sums = weighted_sums(member.d, plan[1], d1_offset)
    return plan_rows(plan, sums, 1.0, member.params, member.seed, member.order, len(member.d), tol)


def check_sharpness(
    params: ClassParams,
    order: int | None = None,
    tol: float = SHARPNESS_TOL,
) -> CheckRow:
    """Certify equality of the plain-squares bound at the extremal member.

    Verifies the identity seed's unit coefficients (`unit_log_coefficients`, d_n
    = ((A - B)/(2m)) q_n) term by term, free of G, by one rule at every B:
    |q_n|^2 = B^{2(n-1)}/n^2 within `COEFF_TOL`, or |q_n| <= `COEFF_TOL` where
    that vanishes (every n > 1 at B = 0).  Then G sum |q_n|^2 plus the tail
    `extremal_tail_bound`, summed to rounding, must be the bound within `tol`.
    The row gives G times each figure; a term that differs, or is not finite,
    fails it with no sum, its note naming the first such n.  The default order
    is `suggested_order(params)` (512 m at B = -1): the tail covers the rest.
    """
    if order is None:
        order = suggested_order(params)
    n_d = log_order(params, order)
    return sharpness_row(params, order, _unit_certificate(params.B, n_d), tol)


def _unit_certificate(B: float, n_d: int) -> tuple:
    """`check_sharpness`'s G-free part at (B, N_d): (q, failure, total), q the
    identity seed's unit coefficients.  failure is None when every term
    passes, else (n, |q_n|^2, B^{2(n-1)}/n^2) of the first n that fails; total
    is sum |q_n|^2, or None after a failure (no sum is made)."""
    q = unit_log_coefficients(B, Identity(), n_d)
    # one rule for every B: |q_n|^2 against B^{2(n-1)}/n^2; where that vanishes (each
    # n > 1 at B = 0, or an underflow) |q_n| itself must; a NaN fails either comparison
    sq = np.abs(q) ** 2
    expected = (B * B) ** np.arange(n_d) / np.arange(1.0, n_d + 1.0) ** 2
    close = np.where(expected == 0.0, np.abs(q), np.abs(sq - expected)) <= COEFF_TOL
    n = int(np.argmin(close)) + 1
    if not close[n - 1]:
        return q, (n, sq[n - 1], expected[n - 1]), None
    return q, None, float(sq.sum())


def sharpness_row(params: ClassParams, order: int, certificate: tuple, tol: float) -> CheckRow:
    """The `check_sharpness` row of the point `params` at N = order from the
    `_unit_certificate` of its (B, N_d), N_d = order // m: every figure G times
    the certificate's."""
    q, failure, total = certificate
    n_d = len(q)
    ran_at = ("ThmA-sharpness", "identity", None, order, n_d)
    if failure:
        n, term, expected = failure
        G, d = params.G, q[n - 1] * ((params.A - params.B) / (2 * params.m))
        s, e = G * term, G * expected
        note = f"term-by-term equality failed at n={n}: |d_{n}|^2 = {s} != {e} (d_{n} = {d})"
        return CheckRow(*ran_at, None, None, None, False, None, note)

    partial = params.G * total
    tail = extremal_tail_bound(params, n_d)
    bound = thm_a_bound(params)
    # fail closed, as verify_member does: only a positive finite bound can pass
    ok = math.isfinite(bound) and bound > 0
    ratio = (partial + tail) / bound if ok else math.nan
    passed = ok and abs(partial + tail - bound) <= tol * bound
    return CheckRow(*ran_at, partial, bound, ratio, passed, tail, "")
