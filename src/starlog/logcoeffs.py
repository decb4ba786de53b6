"""Logarithmic coefficients d_n and their weighted square sums.

log(f/z) = 2 sum_{n>=1} d_n z^{n m} with m = j + k - 1; the index n is
stored abstractly (d_n corresponds to exponent n*m) so the weights n^2 and
(n+1)^t act on n, not on the raw exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SupportViolation, WeightOutOfRange
from .members import ClassMember, ClassParams
from .series import TruncatedSeries, log_series

#: coefficients of f/z at exponents not divisible by m must vanish identically
#: in exact arithmetic; any excess signals a pipeline bug, not rounding.
OFF_SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class LogCoeffVector:
    """The sequence d_1..d_{N_d}, where d_n sits at exponent n*m."""

    d: tuple[complex, ...]
    m: int

    @property
    def n_terms(self) -> int:
        return len(self.d)

    def __getitem__(self, i: int) -> complex:
        return self.d[i]


def log_coefficients(member: ClassMember) -> LogCoeffVector:
    """Extract d_n = [z^{n m}] log(f/z) / 2 for n = 1..floor(order/m).

    f/z = S(z^m) is a series in w = z^m once its off-support coefficients
    are checked to vanish, so log(f/z) = log(S)(z^m) and one log at length
    N_d = floor(order/m) gives every d_n.
    """
    m = member.params.m
    ratio = member.ratio_series().array
    off = np.abs(ratio)
    off[::m] = 0.0
    bad = np.nonzero(off > OFF_SUPPORT_TOL)[0]
    if bad.size:
        q = int(bad[0])
        raise SupportViolation(f"f/z coefficient {ratio[q]} at exponent {q} not divisible by m={m}")
    L = log_series(TruncatedSeries(ratio[::m]))
    return LogCoeffVector(d=tuple((L.array[1:] / 2.0).tolist()), m=m)


def extremal_log_coefficient(params: ClassParams, n: int) -> complex:
    """Closed-form d_n of the extremal member.

    2 d_n = (-1)^{n-1} ((A-B)/(mB)) B^n / n for B != 0;
    2 d_1 = A/m and d_n = 0 (n >= 2) for B = 0.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    m = params.m
    if params.B == 0.0:
        return params.A / (2.0 * m) if n == 1 else 0j
    return 0.5 * (-1) ** (n - 1) * ((params.A - params.B) / (m * params.B)) * params.B**n / n


def _abs_sq(d: LogCoeffVector) -> np.ndarray:
    return np.abs(np.asarray(d.d, dtype=np.complex128)) ** 2


def sum_sq(d: LogCoeffVector) -> float:
    """Partial sum of |d_n|^2 (monotone nondecreasing in the term count)."""
    return float(np.sum(_abs_sq(d)))


def sum_n2(d: LogCoeffVector) -> float:
    """Partial sum of n^2 |d_n|^2."""
    n = np.arange(1, d.n_terms + 1, dtype=np.float64)
    return float(np.sum(n**2 * _abs_sq(d)))


def sum_weighted(d: LogCoeffVector, t: float) -> float:
    """Partial sum of (n+1)^t |d_n|^2; requires t <= 2."""
    if t > 2.0:
        raise WeightOutOfRange(f"weight exponent t = {t} > 2")
    n = np.arange(1, d.n_terms + 1, dtype=np.float64)
    return float(np.sum((n + 1.0) ** t * _abs_sq(d)))
