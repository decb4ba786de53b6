"""Members of the Janowski-type (j,k)-symmetric starlike class.

The class is defined by the subordination z f'/f < (1 + A z^m)/(1 + B z^m)
with m = j + k - 1.  Members are generated by picking the subordination
witness directly at the level w = z^m through certified Schwarz seeds:
any analytic v with v(0) = 0 and |v(w)| <= |w| yields

    z f'/f - 1 = P(z^m),     P(w) = (A - B) v(w) / (1 + B v(w)),

hence log(f/z) = L(z^m) with L(w) = (1/m) int_0^w P(u)/u du.  A member
stores L, a series in w of length N_d = floor(N/m) built with one series
division; the log coefficients are read off it (2 d_n = L_n) with no exp
or log.  f itself, z exp(L(z^m)), is computed only when asked for.  The
identity seed v(w) = w gives the closed-form extremal function.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, InvalidSeed, TruncationTooSmall
from .series import (
    TruncatedSeries,
    compose_power,
    div,
    exp_series,
    integrate_over_t,
    scale,
)


def check_pair(j: int, k: int) -> None:
    """Raise InvalidParams unless (j, k) admits the class (0 <= j <= k-1 or (1, 1), m >= 1)."""
    if k < 1 or j < 0:
        raise InvalidParams(f"need j >= 0 and k >= 1, got (j, k) = ({j}, {k})")
    if not (0 <= j <= k - 1 or (j, k) == (1, 1)):
        raise InvalidParams(f"(j, k) = ({j}, {k}) outside 0 <= j <= k-1 (or (1, 1))")
    if j + k - 1 < 1:
        raise InvalidParams("degenerate pair j = 0, k = 1")


@dataclass(frozen=True)
class ClassParams:
    """Parameters (j, k, A, B) of the class; m = j + k - 1."""

    j: int
    k: int
    A: complex
    B: float

    def __post_init__(self):
        object.__setattr__(self, "A", complex(self.A))
        object.__setattr__(self, "B", float(self.B))
        check_pair(self.j, self.k)
        if not -1.0 <= self.B <= 0.0:
            raise InvalidParams(f"B = {self.B} outside [-1, 0]")
        # every bound scales with |A - B|^2, which must stay finite (this also rejects NaN)
        scale = math.hypot(self.A.real - self.B, self.A.imag)
        if not math.isfinite(scale * scale):
            raise InvalidParams(f"A = {self.A}: |A - B|^2 is not a finite double")
        if self.A == complex(self.B):
            raise InvalidParams("A = B degenerates the class")

    @property
    def m(self) -> int:
        return self.j + self.k - 1


class SchwarzSeed:
    """Parametric analytic self-map v of the disk with v(0) = 0, |v(w)| <= |w|."""

    def label(self) -> str:
        raise NotImplementedError

    def sort_key(self) -> tuple:
        return (self.label(),)


@dataclass(frozen=True)
class Identity(SchwarzSeed):
    """v(w) = w (the subordination becomes an equality)."""

    def label(self) -> str:
        return "identity"


@dataclass(frozen=True)
class Rotation(SchwarzSeed):
    """v(w) = e^{i theta} w."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise InvalidSeed(f"angle theta = {self.theta} must be finite")

    def label(self) -> str:
        return f"rotation(theta={self.theta:.6g})"

    def sort_key(self) -> tuple:
        return ("rotation", self.theta)


@dataclass(frozen=True)
class ExpDamp(SchwarzSeed):
    """v(w) = e^{i theta} w e^{c (w - 1)}, c >= 0.

    Certified by Re(w) < 1 on the disk, hence |e^{c(w-1)}| <= 1.
    """

    theta: float
    c: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise InvalidSeed(f"angle theta = {self.theta} must be finite")
        if not 0 <= self.c < math.inf:
            raise InvalidSeed(f"damping c = {self.c} must be finite and nonnegative")

    def label(self) -> str:
        return f"expdamp(theta={self.theta:.6g},c={self.c:.6g})"

    def sort_key(self) -> tuple:
        return ("expdamp", self.theta, self.c)


@dataclass(frozen=True)
class Polynomial(SchwarzSeed):
    """v(w) = sum_{i>=1} p_i w^i, certified by sum |p_i| <= 1."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        # written so that a NaN coefficient fails the certificate too
        if not sum(abs(c) for c in self.coeffs) <= 1.0 + 1e-12:
            raise InvalidSeed("polynomial seed violates sum |p_i| <= 1")

    def label(self) -> str:
        body = ",".join(f"{c.real:.6g}{c.imag:+.6g}i" for c in self.coeffs)
        return f"poly({body})"

    def sort_key(self) -> tuple:
        return ("poly",) + tuple(x for c in self.coeffs for x in (c.real, c.imag))


def _seed_coeffs(seed: SchwarzSeed, order: int) -> np.ndarray:
    """The coefficients of `seed_series` as a fresh complex128 array."""
    cs = np.zeros(order + 1, dtype=np.complex128)
    if isinstance(seed, Identity):
        cs[1:2] = 1.0
    elif isinstance(seed, Rotation):
        cs[1:2] = cmath.exp(1j * seed.theta)
    elif isinstance(seed, ExpDamp):
        # w e^{c(w-1)} = e^{-c} sum_i c^i w^{i+1} / i!, each term the previous times c/i
        steps = np.empty(order, dtype=np.complex128)
        steps[:1] = cmath.exp(1j * seed.theta) * math.exp(-seed.c)
        steps[1:] = seed.c / np.arange(1, order)
        np.cumprod(steps, out=cs[1:])
    elif isinstance(seed, Polynomial):
        p = seed.coeffs[:order]
        cs[1 : len(p) + 1] = p
    else:
        raise InvalidSeed(f"unknown seed type {type(seed).__name__}")
    return cs


def seed_series(seed: SchwarzSeed, order: int) -> TruncatedSeries:
    """Taylor coefficients of v(w) at 0, truncated at `order`; v(0) = 0 exactly."""
    return TruncatedSeries(_seed_coeffs(seed, order))


@dataclass(frozen=True)
class ClassMember:
    """A generated class member f with its provenance.

    `log_ratio` holds log(f/z) as a series in w = z^m, truncated at
    N_d = floor(order/m); `order` is the truncation order in z.
    """

    log_ratio: TruncatedSeries
    params: ClassParams
    seed: SchwarzSeed
    order: int

    @functools.cached_property
    def series(self) -> TruncatedSeries:
        """f = z exp(L(z^m)), with one extra coefficient (order + 1) so that f/z
        is exact through z^order."""
        ratio = compose_power(exp_series(self.log_ratio), self.params.m, self.order)
        return TruncatedSeries(np.concatenate(([0j], ratio.array)))

def extremal_function(params: ClassParams, order: int) -> ClassMember:
    """The closed-form extremal member, truncated at log-order `order`.

    f = z exp(A z^m / m) for B = 0, z (1 + B z^m)^{(A-B)/(mB)} otherwise:
    the member of the identity seed v(w) = w.
    """
    return member_from_seed(params, Identity(), order)


def member_from_seed(params: ClassParams, seed: SchwarzSeed, order: int) -> ClassMember:
    """Generate the member induced by a Schwarz seed at level w = z^m."""
    m = params.m
    if order < m:
        raise TruncationTooSmall(f"order {order} < m = {m}")
    v = _seed_coeffs(seed, order // m)
    # z f'/f - 1 = P(z^m) with P = (A - B) v / (1 + B v); constant terms stay exactly zero
    num = v * ((params.A - params.B) / m)  # carries the 1/m of L below
    den = params.B * v
    den[0] = 1.0
    # log(f/z) = L(z^m) with L(w) = (1/m) int_0^w P(u)/u du
    L = integrate_over_t(div(TruncatedSeries(num), TruncatedSeries(den)))
    return ClassMember(log_ratio=L, params=params, seed=seed, order=order)


def q_function(params: ClassParams, order: int) -> TruncatedSeries:
    """The superordinate series for z/f: e^{-A z^m / m} or (1 + B z^m)^{-(A-B)/(mB)}."""
    L = extremal_function(params, order).log_ratio
    return compose_power(exp_series(scale(L, -1)), params.m, order)


#: extremal geometric tail that `suggested_order` aims below
ORDER_TAIL_EPS = 1e-13
#: largest N_d that `suggested_order` picks for |B| < 1
ORDER_CAP = 4096


def suggested_order(params: ClassParams) -> int:
    """Truncation order making the extremal geometric tail below `ORDER_TAIL_EPS`.

    Picks N = m * N_d with B^{2 N_d} / (1 - B^2) < ORDER_TAIL_EPS, N_d at most
    `ORDER_CAP`; B = 0 needs only a handful of terms, B = -1 gets a fixed
    512 m (the tail there decays like 1/N).
    """
    m = params.m
    b2 = params.B * params.B
    if b2 == 0.0:
        return 32 * m
    if b2 >= 1.0:
        return 512 * m
    n_d = max(8, math.ceil(math.log(ORDER_TAIL_EPS * (1.0 - b2)) / math.log(b2)))
    return m * min(n_d, ORDER_CAP)
