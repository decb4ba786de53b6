"""Truncated complex formal power series on the unit disk.

All operations are pure functions on immutable values.  Truncation is
explicit: every binary operation truncates to the minimum operand order,
never zero-pads.  log/exp use the first-order ODE coefficient recursions
(O(N^2), numerically stable for coefficients of modulus <= 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonzeroConstantTerm, NotUnitConstantTerm, ZeroConstantTerm


@dataclass(frozen=True)
class TruncatedSeries:
    """Taylor coefficients c_0..c_N of an analytic function, truncated at order N."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least its constant term")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> complex:
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)

    def truncated(self, n: int) -> "TruncatedSeries":
        """Drop coefficients above order n (n may not exceed the current order)."""
        if n > self.order:
            raise ValueError(f"cannot extend order {self.order} to {n}")
        return TruncatedSeries(self.coeffs[: n + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return add(self, other)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return sub(self, other)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return mul(self, other)
        return scale(self, other)

    def __rmul__(self, other) -> "TruncatedSeries":
        return scale(self, other)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return div(self, other)


def _arr(a: TruncatedSeries) -> np.ndarray:
    return np.asarray(a.coeffs, dtype=np.complex128)


def _wrap(arr: np.ndarray) -> TruncatedSeries:
    return TruncatedSeries(tuple(arr.tolist()))


def from_coeffs(coeffs, order: int | None = None) -> TruncatedSeries:
    """Series from an iterable of scalars, optionally zero-padded to `order`."""
    cs = [complex(c) for c in coeffs]
    if order is not None:
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        else:
            cs.extend([0j] * (order + 1 - len(cs)))
    return TruncatedSeries(tuple(cs))


def one(order: int) -> TruncatedSeries:
    """The constant series 1 at the given order."""
    return from_coeffs([1.0], order)


def monomial(c, exponent: int, order: int) -> TruncatedSeries:
    """c * z^exponent, truncated at `order`."""
    cs = [0j] * (order + 1)
    if exponent <= order:
        cs[exponent] = complex(c)
    return TruncatedSeries(tuple(cs))


def scale(a: TruncatedSeries, s) -> TruncatedSeries:
    return _wrap(_arr(a) * complex(s))


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return _wrap(_arr(a)[: n + 1] + _arr(b)[: n + 1])


def sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return _wrap(_arr(a)[: n + 1] - _arr(b)[: n + 1])


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the minimum operand order."""
    n = min(a.order, b.order)
    full = np.convolve(_arr(a)[: n + 1], _arr(b)[: n + 1])
    return _wrap(full[: n + 1])


def div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Series quotient q with mul(q, b) = a up to the truncation order."""
    if b.coeffs[0] == 0:
        raise ZeroConstantTerm("divisor has zero constant term")
    n = min(a.order, b.order)
    av, bv = _arr(a)[: n + 1], _arr(b)[: n + 1]
    q = np.empty(n + 1, dtype=np.complex128)
    q[0] = av[0] / bv[0]
    for i in range(1, n + 1):
        q[i] = (av[i] - np.dot(bv[1 : i + 1], q[i - 1 :: -1][:i])) / bv[0]
    return _wrap(q)


def log_series(a: TruncatedSeries) -> TruncatedSeries:
    """Principal-branch log of a series with constant term 1.

    Computed from L' = a'/a, i.e. n*L_n = n*a_n - sum_{k<n} k*L_k*a_{n-k}.
    """
    if a.coeffs[0] != 1:
        raise NotUnitConstantTerm("log needs constant term exactly 1")
    n = a.order
    av = _arr(a)
    L = np.zeros(n + 1, dtype=np.complex128)
    kL = np.zeros(n + 1, dtype=np.complex128)  # k * L_k, reused in the inner dot
    for i in range(1, n + 1):
        s = np.dot(kL[1:i], av[i - 1 : 0 : -1]) if i > 1 else 0.0
        L[i] = av[i] - s / i
        kL[i] = i * L[i]
    return _wrap(L)


def exp_series(a: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with constant term 0, via n*E_n = sum_k k*a_k*E_{n-k}."""
    if a.coeffs[0] != 0:
        raise NonzeroConstantTerm("exp needs constant term exactly 0")
    n = a.order
    ka = np.arange(n + 1) * _arr(a)
    E = np.zeros(n + 1, dtype=np.complex128)
    E[0] = 1.0
    for i in range(1, n + 1):
        E[i] = np.dot(ka[1 : i + 1], E[i - 1 :: -1][:i]) / i
    return _wrap(E)


def pow_complex(a: TruncatedSeries, p) -> TruncatedSeries:
    """a^p for complex p, principal branch; requires constant term exactly 1."""
    if a.coeffs[0] != 1:
        raise NotUnitConstantTerm("power needs constant term exactly 1")
    p = complex(p)
    if p == 0:
        return one(a.order)
    return exp_series(scale(log_series(a), p))


def integrate_over_t(a: TruncatedSeries) -> TruncatedSeries:
    """int_0^z a(t)/t dt: maps c_n -> c_n/n; needs c_0 = 0 (no 1/t singularity)."""
    if a.coeffs[0] != 0:
        raise NonzeroConstantTerm("integrand a(t)/t needs a(0) = 0")
    av = _arr(a)
    out = np.zeros_like(av)
    if a.order >= 1:
        out[1:] = av[1:] / np.arange(1, a.order + 1)
    return _wrap(out)


def compose_power(a: TruncatedSeries, m: int, order: int) -> TruncatedSeries:
    """Substitute w = z^m: b(z) = a(z^m) truncated at `order`.

    Off-multiple coefficients of the result are exactly zero.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    out = [0j] * (order + 1)
    for i in range(min(a.order, order // m) + 1):
        out[m * i] = a.coeffs[i]
    return TruncatedSeries(tuple(out))
