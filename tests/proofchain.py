"""Test-side oracles for the paper's proof chain and the extremal closed form.

The proof of Theorem 3 passes from subordination to partial-sum l^2
dominance (Rogosinski, Proc. London Math. Soc. (2) 48 (1943) 48-82; Duren,
*Univalent Functions*, Springer 1983, ch. 6) and then, by telescoping, to
the (n+1)^t/n^2 weights.  No command runs these steps, so they live here,
where the lemma tests and the acceptance gate feed them real members, next
to the closed-form d_n of the extremal member and a member's d_n as a
`LogCoeffVector` for the `logcoeffs` sums.
"""

import numpy as np

from starlog.bounds import _check_weight
from starlog.errors import StarlogError, WeightOutOfRange
from starlog.logcoeffs import LogCoeffVector
from starlog.members import ClassMember, ClassParams

#: slack floor of a partial-sum dominance B_K <= C_K: absolute, and relative to C_K
SLACK_ABS, SLACK_REL = 1e-10, 1e-12


class HypothesisViolated(StarlogError):
    """Partial-sum dominance hypothesis fails in the weight-transfer check."""


def log_coefficients(member: ClassMember) -> LogCoeffVector:
    """d_n = [w^n] log(f/z) / 2 for n = 1..floor(order/m), with w = z^m."""
    return LogCoeffVector(d=member.d, m=member.params.m)


def extremal_log_coefficient(params: ClassParams, n: int) -> complex:
    """Closed-form d_n = (A-B)/(2m) (-B)^{n-1} / n of the extremal member."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return (params.A - params.B) / (2.0 * params.m) * (-params.B) ** (n - 1) / n


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
