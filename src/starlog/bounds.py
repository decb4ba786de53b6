"""Closed-form sharp bounds on the weighted sums of |d_n|^2.

The extremal member has d_n = (A-B)/(2m) (-B)^{n-1} / n, so
|d_n|^2 = G B^{2(n-1)} / n^2 with G = (|A-B|/(2m))^2 = |d_1|^2, and each
right-hand side is G (`ClassParams.G`) times a kernel of B^2 (and t):

  * plain squares:      G * Li_2(B^2)/B^2, the t = 0 case of the last;
  * n^2 weights:        G / (1 - B^2),  B != -1;
  * (n+1)^t weights:    G * sum_n (n+1)^t B^{2(n-1)} / n^2,  t <= 2.

Every kernel is continuous at B = 0, where only the n = 1 term survives.
1 - B^2 is taken as (1 - B)(1 + B), not from the rounded square B*B, which
would lose about 1e-16/(1 - B^2) relative as B -> -1.
"""

from __future__ import annotations

import functools
import math
import sys

from .errors import BExcluded, DivergentSeries, InvalidParams, WeightOutOfRange
from .members import ClassParams
from .polylog import hurwitz_zeta, li

#: entries kept by the memoised kernel; a sweep asks for a few distinct B and t
_CACHE_SIZE = 1024


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


def thm_a_bound(params: ClassParams) -> float:
    """Sharp bound on sum |d_n|^2: G * Li_2(B^2)/B^2, the t = 0 Thm3 kernel."""
    return params.G * _weighted_series(params.B, 0.0)


def thm2_bound(params: ClassParams) -> float:
    """Sharp bound on sum n^2 |d_n|^2: G / (1 - B^2); B != -1."""
    if params.B == -1.0:
        raise BExcluded("the n^2-weighted bound excludes B = -1")
    return _in_range(params.G / ((1.0 - params.B) * (1.0 + params.B)), params, "Thm2")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _weighted_series(B: float, t: float) -> float:
    """sum_{n>=1} (n+1)^t x^{n-1} / n^2 at x = B^2 <= 1 (t < 1 required at x = 1).

    Memoised on the floats (B, t).  t = 0 is Li_2(x)/x for 0 < x <= 1.  For
    t in {-1, 1, 2} and 1/2 <= x < 1 a closed form S/x, where (n+1)^t/n^2
    splits into 1/n^2, 1/n, 1 and 1/(n+1), and l = -log(1 - x) and 1 - x
    come from (1 - B)(1 + B):

      t = 1:  S = Li_2(x) + l          t = 2:  S = Li_2(x) + 2l + x/(1-x)
      t = -1: S = Li_2(x) - l + (l - x)/x   (cancels at small x, hence x >= 1/2)

    Else, absolute accuracy ~1e-13: geometric cutoff for x < 1 (x = 0 gives
    2^t), about 50 terms below x = 1/2; for x = 1 a direct head plus a
    binomial expansion of (1+1/n)^t into Hurwitz-zeta tails.
    """
    x = B * B
    if t == 0.0 and x > 0.0:
        return li(2.0, x) / x
    if 0.5 <= x < 1.0 and t in (-1.0, 1.0, 2.0):
        ell = -(math.log1p(B) + math.log1p(-B))
        extra = {
            -1.0: (ell - x) / x - ell,
            1.0: ell,
            2.0: 2.0 * ell + x / ((1.0 - B) * (1.0 + B)),
        }
        return (li(2.0, x) + extra[t]) / x
    if x < 1.0:
        total = 0.0
        xn = 1.0
        n = 0
        while True:
            n += 1
            term = (n + 1.0) ** t * xn / n**2
            total += term
            # (n+1)^t / n^2 decreases for t <= 2, so the tail is geometric
            if n >= 2 and term * x / (1.0 - x) < 1e-15:
                return total
            xn *= x
    # x = 1, t < 1: head sum, then (n+1)^t/n^2 = n^{t-2} (1 + 1/n)^t expanded
    head_n = 2000
    total = math.fsum((n + 1.0) ** t / n**2 for n in range(1, head_n + 1))
    tail = 0.0
    coeff = 1.0
    for jj in range(0, 60):
        inc = coeff * hurwitz_zeta(2.0 - t + jj, head_n + 1.0)
        tail += inc
        if abs(inc) < 1e-18:
            break
        coeff *= (t - jj) / (jj + 1.0)
    return total + tail


def thm3_bound(params: ClassParams, t: float) -> float:
    """Bound on sum (n+1)^t |d_n|^2: G * sum (n+1)^t B^{2(n-1)}/n^2, t <= 2.

    B = -1 needs t < 1 for convergence.
    """
    # NaN would never stop the series loop, -inf gives a NaN bound
    if not (math.isfinite(t) and t <= 2.0):
        raise WeightOutOfRange(f"weight exponent t = {t}: need a finite t <= 2")
    if params.B == -1.0 and t >= 1.0:
        raise DivergentSeries(f"sum (n+1)^t / n^2 diverges for t = {t} >= 1 at B = -1")
    return _in_range(params.G * _weighted_series(params.B, t), params, "Thm3", t)


def extremal_tail_bound(params: ClassParams, n_terms: int) -> float:
    """Upper bound on the dropped tail sum_{n > n_terms} |d_n(K)|^2.

    Geometric bound G * B^{2N} / ((N+1)^2 (1 - B^2)) for |B| < 1; the exact
    trigamma tail G * psi_1(N+1) at B = -1.
    """
    B = params.B
    if B == -1.0:
        return params.G * hurwitz_zeta(2.0, n_terms + 1.0)
    return params.G * (B * B) ** n_terms / ((n_terms + 1) ** 2 * ((1.0 - B) * (1.0 + B)))
