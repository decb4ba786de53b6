"""Closed-form sharp bounds on the weighted sums of |d_n|^2.

Three right-hand sides, all scaled by H(A, B) = (|A-B| / (2 m B))^2
(with the obvious B -> 0 limit):

  * plain squares:      H * Li_2(B^2), i.e. (|A-B|/(2m))^2 * Li_2(B^2)/B^2;
  * n^2 weights:        |A-B|^2 / (4 m^2 (1 - B^2)),  B != -1;
  * (n+1)^t weights:    H * sum_n (n+1)^t B^{2n} / n^2,  t <= 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import BExcluded, DivergentSeries, WeightOutOfRange
from .members import ClassParams
from .polylog import hurwitz_zeta, li_ratio

#: entries kept by each memoised kernel; a sweep asks for a few distinct B^2 and t
_CACHE_SIZE = 1024


@dataclass(frozen=True)
class BoundResult:
    bound: float
    theorem: str
    params: ClassParams
    h_factor: float


def h_factor(params: ClassParams) -> float:
    """(|A-B|/(2mB))^2, or its B -> 0 limit (|A|/(2m))^2."""
    m = params.m
    if params.B == 0.0:
        return (abs(params.A) / (2.0 * m)) ** 2
    return (abs(params.A - params.B) / (2.0 * m * params.B)) ** 2


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _li2_ratio(x: float) -> float:
    """Li_2(x)/x, memoised on the float x."""
    return li_ratio(x)


def thm_a_bound(params: ClassParams) -> BoundResult:
    """Sharp bound on sum |d_n|^2: (|A-B|/(2m))^2 * Li_2(B^2)/B^2."""
    value = (abs(params.A - params.B) / (2.0 * params.m)) ** 2 * _li2_ratio(params.B**2)
    return BoundResult(bound=value, theorem="ThmA", params=params, h_factor=h_factor(params))


def thm2_bound(params: ClassParams) -> BoundResult:
    """Sharp bound on sum n^2 |d_n|^2: |A-B|^2 / (4 m^2 (1 - B^2)); B != -1."""
    if params.B == -1.0:
        raise BExcluded("the n^2-weighted bound excludes B = -1")
    value = abs(params.A - params.B) ** 2 / (4.0 * params.m**2 * (1.0 - params.B**2))
    return BoundResult(bound=value, theorem="Thm2", params=params, h_factor=h_factor(params))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _weighted_series(x: float, t: float) -> float:
    """sum_{n>=1} (n+1)^t x^n / n^2 for 0 < x <= 1 (t < 1 required at x = 1).

    Memoised on the floats (x, t).  Absolute accuracy ~1e-13: geometric
    cutoff for x < 1; for x = 1 a direct head plus a binomial expansion of
    (1+1/n)^t into Hurwitz-zeta tails.
    """
    if x < 1.0:
        total = 0.0
        xn = 1.0
        n = 0
        while True:
            n += 1
            xn *= x
            term = (n + 1.0) ** t * xn / n**2
            total += term
            # (n+1)^t / n^2 decreases for t <= 2, so the tail is geometric
            if n >= 2 and term * x / (1.0 - x) < 1e-15:
                return total
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


def thm3_bound(params: ClassParams, t: float) -> BoundResult:
    """Bound on sum (n+1)^t |d_n|^2: H(A,B) * sum (n+1)^t B^{2n}/n^2, t <= 2.

    B = 0 returns the series limit (|A|/(2m))^2 * 2^t (only n = 1 survives);
    B = -1 needs t < 1 for convergence.
    """
    # NaN would never stop the series loop below, -inf gives a NaN bound
    if not (math.isfinite(t) and t <= 2.0):
        raise WeightOutOfRange(f"weight exponent t = {t}: need a finite t <= 2")
    tag = f"Thm3(t={t:g})"
    h = h_factor(params)
    b2 = params.B * params.B
    if b2 == 0.0:
        value = h * 2.0**t
    elif b2 == 1.0:
        if t >= 1.0:
            raise DivergentSeries(f"sum (n+1)^t / n^2 diverges for t = {t} >= 1 at B = -1")
        value = h * _weighted_series(1.0, t)
    else:
        value = h * _weighted_series(b2, t)
    return BoundResult(bound=value, theorem=tag, params=params, h_factor=h)


def extremal_tail_bound(params: ClassParams, n_terms: int) -> float:
    """Upper bound on the dropped tail sum_{n > n_terms} |d_n(K)|^2.

    Geometric bound H * B^{2(N+1)} / ((N+1)^2 (1 - B^2)) for |B| < 1; the
    exact trigamma tail H * psi_1(N+1) at B = -1; zero at B = 0.
    """
    b2 = params.B * params.B
    if b2 == 0.0:
        return 0.0
    h = h_factor(params)
    if b2 == 1.0:
        return h * hurwitz_zeta(2.0, n_terms + 1.0)
    return h * b2 ** (n_terms + 1) / ((n_terms + 1) ** 2 * (1.0 - b2))
