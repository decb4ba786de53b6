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
    one,
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


def seed_series(seed: SchwarzSeed, order: int) -> TruncatedSeries:
    """Taylor coefficients of v(w) at 0, truncated at `order`; v(0) = 0 exactly."""
    cs = [0j] * (order + 1)
    if isinstance(seed, Identity):
        if order >= 1:
            cs[1] = 1.0
    elif isinstance(seed, Rotation):
        if order >= 1:
            cs[1] = cmath.exp(1j * seed.theta)
    elif isinstance(seed, ExpDamp):
        # w e^{c(w-1)} = e^{-c} sum_i c^i w^{i+1} / i!
        factor = cmath.exp(1j * seed.theta) * math.exp(-seed.c)
        term = complex(factor)
        for i in range(order):
            cs[i + 1] = term
            term *= seed.c / (i + 1)
    elif isinstance(seed, Polynomial):
        for i, c in enumerate(seed.coeffs, start=1):
            if i <= order:
                cs[i] = c
    else:
        raise InvalidSeed(f"unknown seed type {type(seed).__name__}")
    return TruncatedSeries(cs)


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

    def ratio_series(self) -> TruncatedSeries:
        """f(z)/z, a unit-constant-term series of order `order`."""
        return TruncatedSeries(self.series.array[1:])


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
    n_d = order // m
    v = seed_series(seed, n_d)
    # z f'/f - 1 = P(z^m) with P = (A - B) v / (1 + B v); constant terms stay exactly zero
    P = div(scale(v, params.A - params.B), one(n_d) + scale(v, params.B))
    # log(f/z) = L(z^m) with L(w) = (1/m) int_0^w P(u)/u du
    L = scale(integrate_over_t(P), 1.0 / m)
    return ClassMember(log_ratio=L, params=params, seed=seed, order=order)


def q_function(params: ClassParams, order: int) -> TruncatedSeries:
    """The superordinate series for z/f: e^{-A z^m / m} or (1 + B z^m)^{-(A-B)/(mB)}."""
    L = extremal_function(params, order).log_ratio
    return compose_power(exp_series(scale(L, -1)), params.m, order)


def suggested_order(params: ClassParams, eps: float = 1e-13, cap: int = 4096) -> int:
    """Truncation order making the extremal geometric tail below `eps`.

    Picks N = m * N_d with B^{2 N_d} / (1 - B^2) < eps; B = 0 needs only a
    handful of terms, B = -1 is capped (the tail there decays like 1/N).
    """
    m = params.m
    b2 = params.B * params.B
    if b2 == 0.0:
        return 32 * m
    if b2 >= 1.0:
        return 512 * m
    n_d = max(8, math.ceil(math.log(eps * (1.0 - b2)) / math.log(b2)))
    return m * min(n_d, cap)


def radial_derivative(member: ClassMember) -> TruncatedSeries:
    """z f'/f - 1 recomputed from f = z exp(L(z^m)) (consistency probe).

    With f = z * R this equals z R'/R.
    """
    ratio = member.ratio_series()
    num = TruncatedSeries(np.arange(len(ratio)) * ratio.array)
    return div(num, ratio)
