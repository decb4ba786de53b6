"""Test-side z-level oracle: a series in w = z^m lifted to z, and f/z rebuilt
from a member's log(f/z) = L(z^m).

The package runs every recursion at the w-level and never builds f; these
helpers rebuild it so that the tests can check members against closed forms
and against the z-level recursions.
"""

import numpy as np

from starlog.series import TruncatedSeries, exp_series


def compose_power(a, m, order):
    """b(z) = a(z^m) truncated at `order`; off-multiple coefficients are exactly zero."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    out = np.zeros(order + 1, dtype=np.complex128)
    n = min(a.order, order // m) + 1
    out[: m * n : m] = a.array[:n]
    return TruncatedSeries(out)


def ratio_series(member, sign=1.0):
    """f/z = exp(L(z^m)) through z^order (z/f for sign = -1)."""
    L = TruncatedSeries(sign * np.concatenate(([0], 2 * member.d)))
    return compose_power(exp_series(L), member.params.m, member.order)
