"""Truncated complex formal power series on the unit disk.

All operations are pure functions on immutable values.  Truncation is
explicit: every binary operation truncates to the minimum operand order,
never zero-pads.  div, log and exp are lower-triangular Toeplitz solves
(the Cauchy-product recursions q*b = a, L'*a = a' and E' = a'*E), done in
blocks of rows: one convolution brings the solved history into a block
and one BLAS triangular solve finishes it.  The multiply-adds stay O(N^2),
the per-coefficient Python overhead goes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import ztrsv

from .errors import NonzeroConstantTerm, NotUnitConstantTerm, ZeroConstantTerm

#: rows per triangular block solve
_BLOCK = 64
#: lag j - i of an upper-triangular Toeplitz block, -1 (a zero slot) below the diagonal
_UPPER_LAG = np.arange(_BLOCK) - np.arange(_BLOCK)[:, None]
_UPPER_LAG[_UPPER_LAG < 0] = -1


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Taylor coefficients c_0..c_N of an analytic function, truncated at order N.

    `array` is a read-only complex128 copy of the input; equality and the
    hash go by value.
    """

    array: np.ndarray

    def __post_init__(self):
        array = np.array(self.array, dtype=np.complex128)
        if array.ndim != 1 or array.size == 0:
            raise ValueError("a series needs at least its constant term")
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    @property
    def coeffs(self) -> tuple[complex, ...]:
        return tuple(self.array.tolist())

    @property
    def order(self) -> int:
        return len(self.array) - 1

    def __getitem__(self, n: int) -> complex:
        return self.array[n]

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return add(self, other)


def _solve_toeplitz(t: np.ndarray, rhs: np.ndarray, diag: np.ndarray | None = None) -> np.ndarray:
    """x with d_n x_n + sum_{k=1}^{n} t_k x_{n-k} = rhs_n for n < len(rhs).

    d_n = t_0 unless `diag` gives the diagonal; t needs len(rhs) entries.
    """
    n = len(rhs)
    x = np.array(rhs, dtype=np.complex128)
    size = min(_BLOCK, n)
    padded = np.zeros(size + 1, dtype=np.complex128)
    padded[:size] = t[:size]
    # the transpose of the C-order block U[i, j] = t_{j-i} is the column-major
    # lower-triangular Toeplitz block T[i, j] = t_{i-j}
    block = padded[_UPPER_LAG[:size, :size]].T
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        if s:
            x[s:e] -= np.convolve(t[1:e], x[:s], "valid")
        tri = block[: e - s, : e - s]
        if diag is not None:
            np.fill_diagonal(tri, diag[s:e])
        x = ztrsv(tri, x, offx=s, lower=1, overwrite_x=1)
    return x


def from_coeffs(coeffs, order: int | None = None) -> TruncatedSeries:
    """Series from an iterable of scalars, optionally zero-padded to `order`."""
    cs = np.fromiter(coeffs, dtype=np.complex128)
    if order is not None:
        padded = np.zeros(order + 1, dtype=np.complex128)
        padded[: len(cs)] = cs[: order + 1]
        cs = padded
    return TruncatedSeries(cs)


def one(order: int) -> TruncatedSeries:
    """The constant series 1 at the given order."""
    return from_coeffs([1.0], order)


def scale(a: TruncatedSeries, s) -> TruncatedSeries:
    return TruncatedSeries(a.array * complex(s))


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return TruncatedSeries(a.array[: n + 1] + b.array[: n + 1])


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the minimum operand order."""
    n = min(a.order, b.order)
    full = np.convolve(a.array[: n + 1], b.array[: n + 1])
    return TruncatedSeries(full[: n + 1])


def div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Series quotient q with mul(q, b) = a up to the truncation order."""
    if b.array[0] == 0:
        raise ZeroConstantTerm("divisor has zero constant term")
    n = min(a.order, b.order)
    return TruncatedSeries(_solve_toeplitz(b.array[: n + 1], a.array[: n + 1]))


def log_series(a: TruncatedSeries) -> TruncatedSeries:
    """Principal-branch log of a series with constant term 1.

    Solves L' = a'/a, i.e. sum_{k=1}^{n} k*L_k*a_{n-k} = n*a_n, for k*L_k.
    """
    if a.array[0] != 1:
        raise NotUnitConstantTerm("log needs constant term exactly 1")
    k = np.arange(1, a.order + 1)
    L = np.zeros(a.order + 1, dtype=np.complex128)
    L[1:] = _solve_toeplitz(a.array[:-1], k * a.array[1:]) / k
    return TruncatedSeries(L)


def exp_series(a: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with constant term 0, via n*E_n = sum_k k*a_k*E_{n-k}."""
    if a.array[0] != 0:
        raise NonzeroConstantTerm("exp needs constant term exactly 0")
    k = np.arange(a.order + 1)
    rhs = np.zeros(a.order + 1, dtype=np.complex128)
    rhs[0] = 1.0
    # E_0 = 1 comes from the unit diagonal entry of row 0
    return TruncatedSeries(_solve_toeplitz(-k * a.array, rhs, diag=np.maximum(k, 1)))


def integrate_over_t(a: TruncatedSeries) -> TruncatedSeries:
    """int_0^z a(t)/t dt: maps c_n -> c_n/n; needs c_0 = 0 (no 1/t singularity)."""
    if a.array[0] != 0:
        raise NonzeroConstantTerm("integrand a(t)/t needs a(0) = 0")
    out = np.zeros_like(a.array)
    out[1:] = a.array[1:] / np.arange(1, a.order + 1)
    return TruncatedSeries(out)


def compose_power(a: TruncatedSeries, m: int, order: int) -> TruncatedSeries:
    """Substitute w = z^m: b(z) = a(z^m) truncated at `order`.

    Off-multiple coefficients of the result are exactly zero.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    out = np.zeros(order + 1, dtype=np.complex128)
    n = min(a.order, order // m) + 1
    out[: m * n : m] = a.array[:n]
    return TruncatedSeries(out)
