"""Logarithmic coefficients d_n and their weighted square sums.

log(f/z) = 2 sum_{n>=1} d_n z^{n m} with m = j + k - 1; the index n is
stored abstractly (d_n corresponds to exponent n*m) so the weights n^2 and
(n+1)^t act on n, not on the raw exponent.  A member carries the d_n
themselves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bounds import _check_weight
from .members import ClassMember, ClassParams


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class LogCoeffVector:
    """The sequence d_1..d_{N_d}, where d_n sits at exponent n*m.

    `d` is a read-only complex128 copy of the input.
    """

    d: np.ndarray
    m: int

    def __post_init__(self):
        d = _read_only(np.array(self.d, dtype=np.complex128))
        if d.ndim != 1:
            raise ValueError("log coefficients form a one-dimensional sequence")
        object.__setattr__(self, "d", d)

    @functools.cached_property
    def abs_sq(self) -> np.ndarray:
        """|d_n|^2 (read-only), computed once for every sum."""
        return _read_only(np.abs(self.d) ** 2)

    @property
    def n_terms(self) -> int:
        return len(self.d)

    def __getitem__(self, i: int) -> complex:
        return self.d[i]


def log_coefficients(member: ClassMember) -> LogCoeffVector:
    """d_n = [w^n] log(f/z) / 2 for n = 1..floor(order/m), with w = z^m."""
    return LogCoeffVector(d=member.d, m=member.params.m)


def extremal_log_coefficient(params: ClassParams, n: int) -> complex:
    """Closed-form d_n = (A-B)/(2m) (-B)^{n-1} / n of the extremal member."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return (params.A - params.B) / (2.0 * params.m) * (-params.B) ** (n - 1) / n


def sum_sq(d: LogCoeffVector) -> float:
    """Partial sum of |d_n|^2 (monotone nondecreasing in the term count)."""
    return float(d.abs_sq.sum())


def sum_n2(d: LogCoeffVector) -> float:
    """Partial sum of n^2 |d_n|^2."""
    return float((np.arange(1.0, d.n_terms + 1.0) ** 2 * d.abs_sq).sum())


def sum_weighted(d: LogCoeffVector, t: float) -> float:
    """Partial sum of (n+1)^t |d_n|^2; requires a finite t <= 2."""
    _check_weight(t)
    return float((np.arange(2.0, d.n_terms + 2.0) ** t * d.abs_sq).sum())
