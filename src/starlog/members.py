"""Members of the Janowski-type (j,k)-symmetric starlike class.

The class is defined by the subordination z f'/f < (1 + A z^m)/(1 + B z^m)
with m = j + k - 1.  Members are generated by picking the subordination
witness directly at the level w = z^m through certified Schwarz seeds:
any analytic v with v(0) = 0 and |v(w)| <= |w| yields

    z f'/f - 1 = P(z^m),     P(w) = (A - B) v(w) / (1 + B v(w)),

hence log(f/z) = L(z^m) with L(w) = (1/m) int_0^w P(u)/u du = 2 sum d_n w^n.
A member stores its log coefficients d_1..d_{N_d}, with N_d = floor(N/m),
as one read-only complex128 array: one Toeplitz solve on raw arrays, with
no exp or log, gives the unit coefficients q_n = u_n/n of (1 + Bv)u = v,
and d_n = ((A - B)/(2m)) q_n.  The identity seed v(w) = w gives the closed-form
extremal function.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, InvalidSeed, TruncationTooSmall
from .series import _BLOCK, TruncatedSeries, _band, _block_plan, _solve_blocks, _solve_toeplitz, ztbsv

#: complex128 entries of band storage that one stack of poly search points may
#: hold (320 KiB): 151 points at N_d = 22, 83 at N_d = 44 and 13 at N_d = 300,
#: a whole simplex
_STACK_ENTRIES = 5 * _BLOCK * _BLOCK


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
    """Parameters (j, k, A, B) of the class; m = j + k - 1.

    `G` = (|A - B|/(2m))^2, the |d_1|^2 of the extremal member, scales every
    bound; it is derived, so equality, hash and repr ignore it.
    """

    j: int
    k: int
    A: complex
    B: float
    G: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "A", complex(self.A))
        object.__setattr__(self, "B", float(self.B))
        check_pair(self.j, self.k)
        if not -1.0 <= self.B <= 0.0:
            raise InvalidParams(f"B = {self.B} outside [-1, 0]")
        # every bound scales with |A - B|^2, which must stay finite (this also rejects NaN)
        scale = abs(self.A - self.B)
        if not math.isfinite(scale * scale):
            raise InvalidParams(f"A = {self.A}: |A - B|^2 is not a finite double")
        if self.A == complex(self.B):
            raise InvalidParams("A = B degenerates the class")
        object.__setattr__(self, "G", (scale / (2.0 * self.m)) ** 2)
        # below the smallest normal double G loses its digits, and at 0 every bound reads 0
        if not self.G >= sys.float_info.min:
            raise InvalidParams(
                f"A = {self.A}, B = {self.B}: G = (|A - B|/(2m))^2 is not a positive normal double"
            )

    @property
    def m(self) -> int:
        return self.j + self.k - 1


def _check_angle(theta: float) -> None:
    if not math.isfinite(theta):
        raise InvalidSeed(f"angle theta = {theta} must be finite")


def _check_expdamp(theta: float, c: float) -> None:
    """ExpDamp's certificate: a finite theta and 0 <= c < inf."""
    _check_angle(theta)
    if not 0 <= c < math.inf:
        raise InvalidSeed(f"damping c = {c} must be finite and nonnegative")


def _poly_total(coeffs, out=None) -> float:
    """sum |p_i| of a polynomial seed's coefficients, as its certificate reads it:
    numpy's |p_i| (into `out`, if given), added left to right from 0.0.

    One explicit fold, not `sum()`, which compensates from Python 3.12 on.
    For up to 7 coefficients this is numpy's `np.add.reduce` bit for bit (its
    pairwise sum runs a plain loop below 8 entries), so `Polynomial` and the
    search's row totals read one total; from 8 on numpy sums in 8 lanes, and
    the two differ in the last bit for about 40% of random coefficients."""
    total = 0.0
    for mag in np.abs(coeffs, out).tolist():
        total += mag
    return total


def _check_poly(total: float) -> None:
    """Polynomial's certificate on the `_poly_total` of its coefficients: at most 1 (to 1e-12)."""
    # written so that a NaN coefficient fails the certificate too
    if not total <= 1.0 + 1e-12:
        raise InvalidSeed("polynomial seed violates sum |p_i| <= 1")


class SchwarzSeed:
    """Parametric analytic self-map v of the disk with v(0) = 0, |v(w)| <= |w|."""

    def label(self) -> str:
        raise NotImplementedError

    def write(self, cs: np.ndarray) -> None:
        """Write the coefficients of v into the zero array cs, truncated at len(cs) - 1."""
        raise InvalidSeed(f"unknown seed type {type(self).__name__}")


@dataclass(frozen=True)
class Identity(SchwarzSeed):
    """v(w) = w (the subordination becomes an equality)."""

    def label(self) -> str:
        return "identity"

    def write(self, cs: np.ndarray) -> None:
        cs[1:2] = 1.0


@dataclass(frozen=True)
class Rotation(SchwarzSeed):
    """v(w) = e^{i theta} w."""

    theta: float

    def __post_init__(self):
        _check_angle(self.theta)

    def label(self) -> str:
        return f"rotation(theta={self.theta:.6g})"

    def write(self, cs: np.ndarray) -> None:
        cs[1:2] = cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class ExpDamp(SchwarzSeed):
    """v(w) = e^{i theta} w e^{c (w - 1)}, c >= 0.

    Certified by Re(w) < 1 on the disk, hence |e^{c(w-1)}| <= 1.
    """

    theta: float
    c: float

    def __post_init__(self):
        _check_expdamp(self.theta, self.c)

    def label(self) -> str:
        return f"expdamp(theta={self.theta:.6g},c={self.c:.6g})"

    def write(self, cs: np.ndarray) -> None:
        _write_expdamp(cs, self.theta, self.c)

    def sort_key(self) -> tuple:
        return ("expdamp", self.theta, self.c)


@dataclass(frozen=True)
class Polynomial(SchwarzSeed):
    """v(w) = sum_{i>=1} p_i w^i, certified by sum |p_i| <= 1."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(complex, self.coeffs)))
        with np.errstate(over="ignore"):  # a total past the largest double is inf, and fails
            _check_poly(_poly_total(self.coeffs))

    def label(self) -> str:
        body = ",".join(f"{c.real:.6g}{c.imag:+.6g}i" for c in self.coeffs)
        return f"poly({body})"

    def write(self, cs: np.ndarray) -> None:
        _write_poly(cs, self.coeffs)

    def sort_key(self) -> tuple:
        return ("poly",) + tuple(x for c in self.coeffs for x in (c.real, c.imag))


def _poisson_weights(c: float, count: int) -> np.ndarray:
    """e^{-c} c^i / i! for 0 <= i < count and c >= 1, also where e^{-c} underflows.

    Runs outward from the largest weight, at i = p = min(floor(c), count - 1).
    Its log, p log(c/p) + p - c - log(2 pi p)/2 - s, is -c + p log c - log p!
    with the large terms cancelled by hand; s = log p! - (p + 1/2) log p + p -
    log(2 pi)/2 is Stirling's remainder, summed as its series from p = 100 on.
    """
    p = min(math.floor(c), count - 1)
    if p < 1:
        return np.full(count, math.exp(-c))
    if p < 100:
        s = math.lgamma(p + 1) - (p + 0.5) * math.log(p) + p - 0.5 * math.log(2 * math.pi)
    else:
        s = 1 / (12 * p) - 1 / (360 * p**3)
    peak = math.exp(p * math.log1p((c - p) / p) + (p - c) - 0.5 * math.log(2 * math.pi * p) - s)
    down = np.cumprod(np.arange(p, 0, -1) / c)[::-1]
    return peak * np.concatenate((down, [1.0], np.cumprod(c / np.arange(p + 1, count))))


def _write_expdamp(cs: np.ndarray, theta: float, c: float) -> None:
    """cs[1:] = the coefficients of v(w) = e^{i theta} w e^{c(w-1)}."""
    order = len(cs) - 1
    # w e^{c(w-1)} = e^{-c} sum_i c^i w^{i+1} / i!, each term the previous times c/i
    # from a first term e^{-c}, while that is a normal double (c <= 708.39)
    if math.exp(-c) >= sys.float_info.min:
        cs[1:2] = cmath.exp(1j * theta) * math.exp(-c)
        cs[2:] = c / np.arange(1, order)
        np.multiply.accumulate(cs[1:], out=cs[1:])
    else:
        cs[1:] = cmath.exp(1j * theta) * _poisson_weights(c, order)


def _write_poly(cs: np.ndarray, coeffs) -> None:
    """cs[1:] = the coefficients of v(w) = sum_i p_i w^i, the p_i past len(cs) - 1
    dropped; the rest of cs is left as it is."""
    p = coeffs[: len(cs) - 1]
    cs[1 : len(p) + 1] = p


def seed_series(seed: SchwarzSeed, order: int) -> TruncatedSeries:
    """Taylor coefficients of v(w) at 0, truncated at `order`; v(0) = 0 exactly."""
    cs = np.zeros(order + 1, dtype=np.complex128)
    seed.write(cs)
    return TruncatedSeries(cs)


@dataclass(frozen=True, eq=False)
class ClassMember:
    """A generated class member f with its provenance.

    `d` is the read-only complex128 array d_1..d_{N_d} of log(f/z) =
    2 sum d_n z^{nm}, N_d = floor(order/m); `order` is the truncation order
    in z.  Members compare by identity.
    """

    d: np.ndarray
    params: ClassParams
    seed: SchwarzSeed
    order: int


def extremal_function(params: ClassParams, order: int) -> ClassMember:
    """The closed-form extremal member, truncated at log-order `order`.

    f = z exp(A z^m / m) for B = 0, z (1 + B z^m)^{(A-B)/(mB)} otherwise:
    the member of the identity seed v(w) = w.
    """
    return member_from_seed(params, Identity(), order)


def log_order(params: ClassParams, order: int) -> int:
    """N_d = order // m, the count of log coefficients of a member truncated
    at `order`; raises TruncationTooSmall below one term (order < m)."""
    m = params.m
    if order < m:
        raise TruncationTooSmall(f"order {order} < m = {m}")
    return order // m


def _held_solver(B: float, n_d: int, degree: int | None = None):
    """(v, sum_sq, stack): seeds written one after another into the zero-padded
    rhs v (v_1..v_h, h = min(degree, N_d), or any v_n without a degree) and
    solved on buffers held by sum_sq, and, with a degree whose plan is one
    block, `_held_stack`'s batch entry (else None).  sum_sq() returns sum
    |q_n|^2, the bits of `(np.abs(unit_log_coefficients(B, seed, N_d)) **
    2).sum()`, and allocates no array but each later block's convolution.

    Held: v, the divisor, the solution x, q and |q_n|^2, one block's band
    storage, each band's block plan, and 1/n twice over, once for the real and
    once for the imaginary part of x_n.  q_n = x_n/n is one float64 multiply of
    x's parts by those reciprocals: numpy divides a complex by a real d as
    Smith's division with ratio 0, (re + im 0) (1/d) and (im - re 0) (1/d), so
    the product differs only in the sign of a zero part, which |q_n| cannot see.

    With a degree whose plan is one block (N_d <= 818), the storage rows and
    the plan's one `ztbsv` are bound once: storage row 0 holds the divisor's 1
    from the start, and a seed rewrites only rows 1..h.  sum_sq's calls are
    then B v_n into the divisor, the rhs into x, the divisor's column into
    rows 1..h, `ztbsv`, the multiply, abs, square and sum.  Otherwise each
    solve writes B v_n into the divisor, looks up its band's plan, copies the
    divisor's column into rows 0..h of the plan's storage and runs
    `series._solve_blocks` (one `ztbsv` per block and one convolution per
    later block).  The band is h with a degree, which holds every shorter band
    bit for bit, or each seed's, scanned, without a degree; its storage, a
    view of one held buffer, and its plan are made when the band is first met."""
    n = n_d + 1
    h = n_d if degree is None else min(degree, n_d)
    # B as a 0-d complex array: the same products as the Python number gives,
    # without numpy converting a Python scalar on every call
    B = np.array(complex(B))
    v, den, x = (np.zeros(n, dtype=np.complex128) for _ in range(3))
    den[0] = 1.0
    fixed = None if degree is None else h  # a degree-h divisor's band
    flat = np.zeros(min(_BLOCK, n) ** 2, dtype=np.complex128)  # any band's storage
    reciprocals = np.repeat(1.0 / np.arange(1.0, n), 2)  # 1/n for re x_n and for im x_n
    q, sq = np.empty(n_d, dtype=np.complex128), np.empty(n_d)
    v_head, den_head = v[1 : h + 1], den[1 : h + 1]
    x_parts, q_parts = x[1:].view(np.float64), q.view(np.float64)

    @functools.cache
    def planned(band: int) -> tuple:
        """The storage rows a seed rewrites, their column of the divisor, and the plan."""
        ab, plan = _block_plan(den, x, band, flat)
        live = min(len(ab), h + 1)
        return ab[:live], den[:live, None], plan

    one_block = fixed is not None and len(planned(fixed)[2]) == 1
    if one_block:
        [(_, ab, _, _)] = planned(fixed)[2]
        ab[0] = 1.0  # the divisor's 1, never rewritten
        rows, column = ab[1 : h + 1], den_head[:, None]

        def solve() -> None:
            rows[...] = column
            # k, a, x, incx 1, offx 0, lower, no transpose, non-unit diagonal, overwrite x
            ztbsv(len(ab) - 1, ab, x, 1, 0, 1, 0, 0, 1)

    else:

        def solve() -> None:
            storage, column, plan = planned(_band(den, n) if fixed is None else fixed)
            storage[...] = column
            _solve_blocks(plan, x)

    def sum_sq() -> float:
        np.multiply(B, v_head, den_head)
        x[...] = v  # a fresh rhs: the solve overwrites x
        solve()
        np.multiply(x_parts, reciprocals, q_parts)
        return float(np.add.reduce(np.square(np.abs(q, sq), sq), 0))

    return v, sum_sq, _held_stack(B, n, h, reciprocals) if one_block else None


def _held_stack(B: np.ndarray, n: int, h: int, reciprocals: np.ndarray):
    """(heads, sums) for `_held_solver`'s divisors of band h, whose plan is one
    block.  heads holds v_1..v_h of as many points as `_STACK_ENTRIES` of band
    storage take; sums(k) returns the sum_sq() of each of the first k points,
    as floats, bit for bit.

    The k points lie one after another in one band storage of h + 1 rows, and
    one `ztbsv` solves the stack: each point's n rows are followed by h rows of
    the identity, so no entry of a point reaches the next.  Its updates are
    then h long where a point's own solve has shorter ones in its last h
    columns, which keeps the bits for a BLAS whose axpy rounds alike at every
    length up to h.  Held: the rhs, divisor, solution, q and |q_n|^2 rows, the
    band storage with its identity rows and row 0 of ones, and each k's views.
    Its calls: B v_n into the divisors and their storage rows 1..h, the rhs
    into the solution, the `ztbsv`, then one float64 multiply of the
    solutions' parts by `_held_solver`'s `reciprocals` (the bits of sum_sq's
    q), abs, square and a sum along each point's row; it allocates only the k
    sums."""
    step = n + h
    cap = max(1, _STACK_ENTRIES // ((h + 1) * step))
    rhs, x = np.zeros((cap, step), dtype=np.complex128), np.empty(cap * step, dtype=np.complex128)
    den, q = np.empty((cap, h), dtype=np.complex128), np.empty((cap, n - 1), dtype=np.complex128)
    points, sq = x.reshape(cap, step), np.empty((cap, n - 1))
    ab = np.zeros((h + 1, cap * step), dtype=np.complex128, order="F")
    ab[0] = 1.0
    # [p, c, i]: storage row i of column c of point p, the entry (p step + c + i, p step + c)
    columns = ab.reshape((h + 1, step, cap), order="F").transpose(2, 1, 0)[:, :n, 1:]

    @functools.cache
    def views(k: int) -> tuple:
        # each point's x_1..x_{n-1} and q as float64 parts: rows of k, each contiguous
        parts = points[:k, 1:n].view(np.float64), q[:k].view(np.float64)
        stack = ab[:, : k * step]
        return rhs[:k, 1 : h + 1], den[:k], columns[:k], points[:k], rhs[:k], stack, *parts, q[:k], sq[:k]

    def sums(k: int) -> list:
        head, dk, stored, solution, fresh, stack, x_parts, q_parts, qk, sqk = views(k)
        np.multiply(B, head, dk)
        stored[...] = dk[:, None]
        solution[...] = fresh  # a fresh rhs, zero on the identity rows
        # k, a, x, incx 1, offx 0, lower, no transpose, non-unit diagonal, overwrite x
        ztbsv(h, stack, x, 1, 0, 1, 0, 0, 1)
        np.multiply(x_parts, reciprocals, q_parts)
        return np.add.reduce(np.square(np.abs(qk, sqk), sqk), 1).tolist()

    return rhs[:, 1 : h + 1], sums


def member_from_seed(params: ClassParams, seed: SchwarzSeed, order: int) -> ClassMember:
    """Generate the member induced by a Schwarz seed at level w = z^m: its
    `unit_log_coefficients` times (A - B)/(2m)."""
    q = unit_log_coefficients(params.B, seed, log_order(params, order))
    d = q * ((params.A - params.B) / (2 * params.m))
    d.flags.writeable = False
    return ClassMember(d, params, seed, order)


def unit_log_coefficients(B: float, seed: SchwarzSeed, n_d: int) -> np.ndarray:
    """q_n = u_n/n for n = 1..n_d, where (1 + B v) u = v (read-only).

    Every member of the seed at this B with N_d = n_d has d_n = ((A - B)/(2m)) q_n,
    so |d_n|^2 = G |q_n|^2: q depends on neither A nor m.  `member_from_seed`
    scales this same solve.
    """
    v = np.zeros(n_d + 1, dtype=np.complex128)
    seed.write(v)
    den = B * v
    den[0] = 1.0
    # L(w) = (1/m) int_0^w P(u)/u du = ((A - B)/m) sum_n (u_n/n) w^n = 2 sum d_n w^n
    q = _solve_toeplitz(den, v)[1:] / np.arange(1.0, n_d + 1)
    q.flags.writeable = False
    return q


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
