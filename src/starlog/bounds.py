"""Closed-form sharp bounds on the weighted sums of |d_n|^2.

The extremal member has d_n = (A-B)/(2m) (-B)^{n-1} / n, so
|d_n|^2 = G B^{2(n-1)} / n^2 with G = (|A-B|/(2m))^2 = |d_1|^2, and each
right-hand side is G (`ClassParams.G`) times a kernel of B^2 (and t):

  * plain squares:      G * Li_2(B^2)/B^2, the t = 0 case of the last;
  * n^2 weights:        G / (1 - B^2),  B != -1;
  * (n+1)^t weights:    G * sum_n (n+1)^t B^{2(n-1)} / n^2,  t <= 2.

Summed from N + 1, the t = 0 kernel is the extremal series' dropped tail.
Every kernel is continuous at B = 0, where only the n = 1 term survives.
Neither 1 - B^2 nor log(B^2) comes from the rounded square B*B, which would
lose about 1e-16/(1 - B^2) relative as B -> -1: they are (1 - B)(1 + B)
and 2 log1p(-1 - B).
"""

from __future__ import annotations

import functools
import math
import sys

from .errors import BExcluded, DivergentSeries, InvalidParams, WeightOutOfRange
from .members import ClassParams
from .polylog import lerch_tail

#: entries kept by the memoised kernel; a sweep asks for a few distinct B and t
_CACHE_SIZE = 1024
#: relative allowance for rounding in the extremal tail, which must stay an upper bound:
#: past its head each term is e^{-mu u} with mu = -log(B^2) rounded once, so it may be
#: off by mu u 2^-53 <= 745 * 1.1e-16 = 8.3e-14 (at mu u > 745 it underflows to 0)
TAIL_ROUNDING = 1e-13


def _in_range(bound: float, params: ClassParams, theorem: str, t: float | None = None) -> float:
    """`bound`, if it is a positive normal finite double; else InvalidParams
    naming the theorem, t, A and B.

    A subnormal bound has lost its digits, a zero one fails every check on a
    NaN ratio and an infinite one makes every check vacuous.  The
    plain-squares bound needs no check: it lies in [G, 1.65 G].
    """
    if not sys.float_info.min <= bound < math.inf:  # also false for NaN
        name = theorem if t is None else f"{theorem}(t={t:g})"
        raise InvalidParams(
            f"{name} bound at A = {params.A}, B = {params.B} is {bound}, "
            "not a positive normal finite double"
        )
    return bound


def _check_weight(t: float) -> None:
    """Thm3's hypothesis, a finite t <= 2; a NaN t gives a NaN kernel and -inf a zero one."""
    if not (math.isfinite(t) and t <= 2.0):
        raise WeightOutOfRange(f"weight exponent t = {t}: need a finite t <= 2")


def thm_a_bound(params: ClassParams) -> float:
    """Sharp bound on sum |d_n|^2: G * Li_2(B^2)/B^2, the t = 0 Thm3 kernel."""
    return params.G * _weighted_series(params.B, 0.0)


def thm2_bound(params: ClassParams) -> float:
    """Sharp bound on sum n^2 |d_n|^2: G / (1 - B^2); B != -1."""
    if params.B == -1.0:
        raise BExcluded("the n^2-weighted bound excludes B = -1")
    return _in_range(params.G / ((1.0 - params.B) * (1.0 + params.B)), params, "Thm2")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _weighted_series(B: float, t: float, start: int = 1) -> float:
    """sum_{n>=start} (n+1)^t x^{n-1} / n^2 at x = B^2 <= 1, t <= 2 (t < 1 at x = 1).

    Memoised on (B, t, start).  A direct head over start <= n < start + 64,
    whose powers |B|^{2(n-1)} are of the double B, not of the rounded B*B
    (x = 0 gives 2^t at start = 1).  (n+1)^t/n^2 decreases for t <= 2, so the
    rest is at most the head's last term times x/(1 - x); where that is above
    2^-60 of its first term, the rest is added as
    x^-1 sum_{j<14} C(t, j) lerch_tail(mu, 2 + j - t, start + 64) at e^-mu = x,
    (n+1)^t = n^t (1 + 1/n)^t expanded binomially; the sum ends at the first
    C(t, j) = 0, so an integer t >= 0 takes t + 1 tails.
    """
    b = start + 64
    terms = [abs(B) ** (2 * n - 2) * (n + 1.0) ** t / n**2 for n in range(start, b)]
    x = B * B
    if terms[-1] * x > 2**-60 * terms[0] * (1.0 - B) * (1.0 + B):
        # -1 - B is exact for B in [-1, -1/2], so mu keeps every digit of B near -1
        mu = -2.0 * math.log1p(-1.0 - B)
        coeff = 1.0 / x
        for j in range(14):
            if coeff == 0.0:  # C(t, j) = 0 from j = t + 1 on at an integer t >= 0
                break
            terms.append(coeff * lerch_tail(mu, 2.0 + j - t, b))
            coeff *= (t - j) / (j + 1.0)
    return math.fsum(terms)


def thm3_bound(params: ClassParams, t: float) -> float:
    """Bound on sum (n+1)^t |d_n|^2: G * sum (n+1)^t B^{2(n-1)}/n^2, t <= 2.

    B = -1 needs t < 1 for convergence.
    """
    _check_weight(t)
    if params.B == -1.0 and t >= 1.0:
        raise DivergentSeries(f"sum (n+1)^t / n^2 diverges for t = {t} >= 1 at B = -1")
    return _in_range(params.G * _weighted_series(params.B, t), params, "Thm3", t)


def extremal_tail_bound(params: ClassParams, n_terms: int) -> float:
    """Upper bound on the dropped tail sum_{n > n_terms} |d_n(K)|^2.

    G times the t = 0 kernel summed from n_terms + 1, raised by the relative
    `TAIL_ROUNDING` so that its rounding cannot take it below the true tail.
    """
    return params.G * _weighted_series(params.B, 0.0, n_terms + 1) * (1.0 + TAIL_ROUNDING)
