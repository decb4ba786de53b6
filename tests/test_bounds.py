"""Closed-form bound evaluators and their limit/consistency behavior."""

import functools
import math

import mpmath
import numpy as np
import pytest

from starlog import bounds
from starlog.bounds import extremal_tail_bound, thm2_bound, thm3_bound, thm_a_bound
from starlog.errors import BExcluded, DivergentSeries, InvalidParams, WeightOutOfRange
from starlog.logcoeffs import LogCoeffVector, sum_weighted
from starlog.members import ClassParams
from starlog.polylog import lerch_tail, li

ZETA2 = math.pi**2 / 6


def local_h(params):
    """H = (|A-B|/(2mB))^2, the scale of the extremal series in B^{2n}; B != 0."""
    return (abs(params.A - params.B) / (2.0 * params.m * params.B)) ** 2


class TestThmABound:
    def test_koebe_is_zeta2(self):
        assert abs(thm_a_bound(ClassParams(1, 1, 1, -1)) - ZETA2) <= 1e-13

    def test_b_zero_corollary(self):
        # sum |d_n|^2 <= |A|^2 / (4 k^2) at (1, 2, A, 0)
        assert abs(thm_a_bound(ClassParams(1, 2, 1, 0)) - 1 / 16) <= 1e-15

    def test_antisymmetric_corollary(self):
        # B = -A with A = 1/2: bound Li_2(A^2) / k^2 at k = 1
        got = thm_a_bound(ClassParams(1, 1, 0.5, -0.5))
        assert abs(got - li(2, 0.25)) <= 1e-13


class TestThm2Bound:
    def test_direct_formula(self):
        assert abs(thm2_bound(ClassParams(1, 1, 1, -0.5)) - 0.75) <= 1e-15

    def test_twofold_instance(self):
        assert abs(thm2_bound(ClassParams(1, 2, 1, -0.5)) - 3 / 16) <= 1e-15

    def test_b_minus_one_excluded(self):
        with pytest.raises(BExcluded):
            thm2_bound(ClassParams(1, 1, 1, -1))


class TestThm3Bound:
    @pytest.mark.parametrize(
        "params",
        [
            ClassParams(1, 1, 1, -1),
            ClassParams(1, 2, 0.5, -0.25),
            ClassParams(2, 3, 0.8 + 0.3j, -0.75),
            ClassParams(1, 4, 1, 0),
            ClassParams(0, 2, 1, -0.9),
        ],
        ids=str,
    )
    def test_t_zero_recovers_plain_bound(self, params):
        assert abs(thm3_bound(params, 0.0) - thm_a_bound(params)) <= 1e-12

    def test_b_zero_limit_t2(self):
        assert abs(thm3_bound(ClassParams(1, 1, 1, 0), 2.0) - 1.0) <= 1e-15

    def test_series_oracle_small_b(self):
        params = ClassParams(1, 1, 1, -0.5)
        t = 1.5
        x = 0.25
        oracle = local_h(params) * math.fsum(
            (n + 1.0) ** t * x**n / n**2 for n in range(1, 400)
        )
        assert abs(thm3_bound(params, t) - oracle) <= 1e-13

    def test_b_minus_one_convergent_case(self):
        # t = -1: sum (n+1)^{-1}/n^2 = sum (1/n^2 - 1/n + 1/(n+1)) = zeta(2) - 1
        got = thm3_bound(ClassParams(1, 1, 1, -1), -1.0)
        assert abs(got - (ZETA2 - 1.0)) <= 1e-12

    def test_b_minus_one_divergent(self):
        with pytest.raises(DivergentSeries):
            thm3_bound(ClassParams(1, 1, 1, -1), 2.0)
        with pytest.raises(DivergentSeries):
            thm3_bound(ClassParams(1, 1, 1, -1), 1.0)

    def test_weight_out_of_range(self):
        with pytest.raises(WeightOutOfRange):
            thm3_bound(ClassParams(1, 1, 1, -0.5), 2.5)

    @pytest.mark.parametrize("B", [-0.5, -1.0])
    def test_nan_weight_is_out_of_range(self, B):
        with pytest.raises(WeightOutOfRange):
            thm3_bound(ClassParams(1, 1, 1, B), math.nan)

    @pytest.mark.parametrize("t", [-math.inf, math.inf])
    @pytest.mark.parametrize("B", [0.0, -0.5, -1.0])
    def test_infinite_weight_is_out_of_range(self, B, t):
        with pytest.raises(WeightOutOfRange):
            thm3_bound(ClassParams(1, 1, 1, B), t)

    @pytest.mark.parametrize("t", [-math.inf, math.inf, math.nan])
    def test_sum_weighted_rejects_non_finite_weight(self, t):
        with pytest.raises(WeightOutOfRange):
            sum_weighted(LogCoeffVector((0.5, 0.25), 1), t)


@pytest.mark.parametrize(
    "bound, limit",
    [(thm_a_bound, 1.0)]
    + [(functools.partial(thm3_bound, t=t), 2.0**t) for t in (-1.0, 0.0, 1.0, 2.0)],
    ids=["ThmA", "Thm3(t=-1)", "Thm3(t=0)", "Thm3(t=1)", "Thm3(t=2)"],
)
def test_continuity_at_b_zero(bound, limit):
    # at B = 0 only the n = 1 term survives, G = 1/16 times the kernel's limit
    # value, and the bound at B -> 0 approaches it
    base = bound(ClassParams(1, 2, 1, 0))
    assert base == limit / 16
    gaps = []
    for B in (-0.1, -0.01, -1e-3, -1e-4, -1e-6):
        nearby = bound(ClassParams(1, 2, 1, B))
        gaps.append(abs(nearby - base))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-6


@pytest.mark.parametrize(
    "bound, A, B, t",
    [
        (thm3_bound, 1, -0.5, -1100.0),  # every weight (n+1)^t underflows: bound 0
        (thm3_bound, 1, -0.5, -1070.0),  # 2^t is subnormal
        (thm3_bound, 1.3e154, -0.5, 2.0),  # G is finite, G * kernel overflows
        (thm2_bound, 1e150, -0.999999999999, None),
    ],
    ids=["Thm3-zero", "Thm3-subnormal", "Thm3-inf", "Thm2-inf"],
)
def test_bound_outside_the_normal_doubles_is_invalid_params(bound, A, B, t):
    params = ClassParams(1, 1, A, B)
    theorem, args = ("Thm2", ()) if t is None else (f"Thm3(t={t:g})", (t,))
    with pytest.raises(InvalidParams, match="not a positive normal finite double") as info:
        bound(params, *args)
    assert str(info.value).startswith(f"{theorem} bound at A = {params.A}, B = {B} is ")


def test_bounds_are_floats():
    params = ClassParams(1, 2, 1, -0.5)
    values = [
        thm_a_bound(params),
        thm2_bound(params),
        thm3_bound(params, 1.0),
        extremal_tail_bound(params, 10),
    ]
    assert [type(v) for v in values] == [float] * 4


MEMO_GRID = [
    (B, t)
    for B in (-0.1, -0.5, -0.9, -0.973, -1.0)
    for t in (-1.0, 0.0, 0.5, 1.0, 2.0)
    if B != -1.0 or t < 1.0  # the series diverges at B = -1 for t >= 1
]


class TestMemoisedKernels:
    @pytest.mark.parametrize("B", sorted({B for B, _ in MEMO_GRID}))
    def test_li2_ratio_equals_unmemoised(self, B):
        # Li_2(x)/x, the plain-squares kernel, is the t = 0 entry of the weighted series
        got = bounds._weighted_series(B, 0.0)
        assert got == bounds._weighted_series.__wrapped__(B, 0.0)
        with mpmath.workdps(40):
            x = mpmath.mpf(B) ** 2
            reference = float(mpmath.polylog(2, x) / x)
        assert got == pytest.approx(reference, rel=1e-15, abs=0)

    def test_weighted_series_equals_unmemoised_in_any_order(self):
        # the grid runs twice, in both orders: the second pass answers from the cache
        bounds._weighted_series.cache_clear()
        for B, t in list(reversed(MEMO_GRID)) + MEMO_GRID:
            assert bounds._weighted_series(B, t) == bounds._weighted_series.__wrapped__(B, t)

    def test_bounds_use_the_unmemoised_values(self):
        for B, t in MEMO_GRID:
            params = ClassParams(1, 2, 0.8 + 0.3j, B)
            lead = (abs(params.A - B) / 4.0) ** 2
            assert thm3_bound(params, t) == lead * bounds._weighted_series.__wrapped__(B, t)
            assert thm_a_bound(params) == lead * bounds._weighted_series.__wrapped__(B, 0.0)

    def test_repeated_rows_hit_the_cache(self):
        bounds._weighted_series.cache_clear()
        for A in (1.0, 0.8 + 0.3j, 2.0):
            params = ClassParams(1, 1, A, -0.9)
            thm_a_bound(params)
            for t in (-1.0, 0.0, 1.0, 2.0):
                thm3_bound(params, t)
        # thm_a_bound shares the t = 0 entry
        assert bounds._weighted_series.cache_info().misses == 4


class TestPlainSquaresKernel:
    """The plain-squares bound is G times the t = 0 kernel Li_2(x)/x, x = B^2."""

    # the CLI's default B grid, and two points near the Koebe endpoint
    @pytest.mark.parametrize("B", [0.0, -0.25, -0.5, -0.75, -0.9, -0.9999, -1.0])
    @pytest.mark.parametrize("A", [1.0, 0.5, 0.8 + 0.3j])
    def test_thm_a_is_thm3_at_t_zero(self, A, B):
        params = ClassParams(1, 2, A, B)
        assert thm_a_bound(params) == thm3_bound(params, 0.0)

    @staticmethod
    def relative_error(B):
        params = ClassParams(1, 1, 1.0, B)
        with mpmath.workdps(40):
            reference = mpmath.polylog(2, B * B) / (B * B)
            return float(abs(thm3_bound(params, 0.0) / params.G - reference) / reference)

    @pytest.mark.parametrize("B", [-0.25, -0.5, -0.7])
    def test_matches_mpmath_below_one_half(self, B):
        assert self.relative_error(B) <= 1e-15

    # a series cut at a tail of 1e-16 absolute was off by about 1e-16/x relative,
    # 2.5e-9 just below x = 1e-8 (B = -9.9e-5); the kernel's head has no such cut
    @pytest.mark.parametrize("B", [-0.05, -0.01, -9.9e-5, -1e-5, -1e-100])
    def test_matches_mpmath_at_small_b(self, B):
        assert self.relative_error(B) <= 1e-15


DEFAULT_T = (-1.0, 0.0, 1.0, 2.0)


class TestClosedFormKernel:
    """sum (n+1)^t x^{n-1}/n^2 for the default t against mpmath's partial fractions."""

    @staticmethod
    def reference(B, t):
        """The kernel at the exact square of the double B, to 40 digits."""
        with mpmath.workdps(40):
            x = mpmath.mpf(B) ** 2
            li2, li1 = mpmath.polylog(2, x), mpmath.polylog(1, x)
            # (n+1)^t / n^2 in partial fractions over 1/n^2, 1/n, 1 and 1/(n+1)
            s = {-1: li2 - li1 + (li1 - x) / x, 0: li2, 1: li2 + li1, 2: li2 + 2 * li1 + x / (1 - x)}
            return float(s[int(t)] / x)

    @pytest.mark.parametrize("t", DEFAULT_T)
    @pytest.mark.parametrize("B", [-0.9999, -0.99999, -0.999999])
    def test_matches_mpmath_near_b_minus_one(self, B, t):
        got = bounds._weighted_series.__wrapped__(B, t)
        assert got == pytest.approx(self.reference(B, t), rel=5e-15, abs=0)

    @pytest.mark.parametrize("B", [-0.9999, -0.99999, -0.999999])
    def test_thm2_matches_mpmath_near_b_minus_one(self, B):
        params = ClassParams(1, 1, 1, B)
        with mpmath.workdps(40):
            exact = float(mpmath.mpf(params.G) / (1 - mpmath.mpf(B) ** 2))
        assert thm2_bound(params) == pytest.approx(exact, rel=5e-15, abs=0)

    @pytest.mark.parametrize("t", DEFAULT_T)
    @pytest.mark.parametrize("B", [-0.75, -0.9, -0.95])
    def test_matches_the_direct_sum(self, B, t):
        x = B * B
        direct = math.fsum((n + 1.0) ** t * x ** (n - 1) / n**2 for n in range(1, 2000))
        assert bounds._weighted_series.__wrapped__(B, t) == pytest.approx(direct, rel=5e-15, abs=0)

    @pytest.mark.parametrize("B, t", [(-0.85, -1.0), (-0.85, 0.0), (-0.82, 1.0), (-0.8, 2.0)])
    def test_matches_mpmath_where_the_tail_is_small_but_not_negligible(self, B, t):
        # the rest past the 64-term head is bounded by 2^-60 .. 2^-40 of the first term:
        # above 1e-15 relative, so dropping it (a switch at 2^-40) would show here
        x = B * B
        rest = 65.0**t / 64**2 * abs(B) ** 126 * x / (1.0 - x)
        assert 2**-60 < rest / 2.0**t < 2**-40
        got = bounds._weighted_series.__wrapped__(B, t)
        assert got == pytest.approx(self.reference(B, t), rel=1e-15, abs=0)

    @pytest.mark.parametrize("t", DEFAULT_T)
    def test_continuous_at_one_half(self, t):
        # two neighbouring doubles B, whose squares straddle x = 1/2, give kernels
        # within rounding of each other and of the mpmath oracle
        B = -math.sqrt(0.5)
        assert B * B >= 0.5 > math.nextafter(B, 0.0) ** 2
        here = bounds._weighted_series.__wrapped__(B, t)
        neighbour = bounds._weighted_series.__wrapped__(math.nextafter(B, 0.0), t)
        assert here == pytest.approx(neighbour, rel=1e-14, abs=0)
        assert here == pytest.approx(self.reference(B, t), rel=5e-15, abs=0)


class TestTailBound:
    def test_zero_for_b_zero(self):
        assert extremal_tail_bound(ClassParams(1, 2, 1, 0), 10) == 0.0

    def test_b_zero_with_no_terms_is_the_whole_sum(self):
        # N = 0 drops d_1 too, so the tail is |d_1|^2 = |A/(2m)|^2, not 0, raised by
        # the rounding allowance that keeps it an upper bound
        G = (0.6 / 4) ** 2
        tail = extremal_tail_bound(ClassParams(1, 2, 0.6, 0), 0)
        assert G < tail <= G * (1 + bounds.TAIL_ROUNDING)

    def test_dominates_true_tail(self):
        params = ClassParams(1, 1, 1, -0.5)
        h = local_h(params)
        for n_terms in (5, 10, 20):
            true_tail = h * math.fsum(
                0.25**n / n**2 for n in range(n_terms + 1, n_terms + 400)
            )
            bound = extremal_tail_bound(params, n_terms)
            assert true_tail <= bound <= 4.0 * true_tail

    def test_trigamma_tail_at_b_minus_one(self):
        params = ClassParams(1, 1, 1, -1)
        partial = math.fsum(1.0 / n**2 for n in range(1, 1001))
        assert abs(partial + extremal_tail_bound(params, 1000) - ZETA2) <= 1e-12

    @pytest.mark.parametrize("n_terms", [1000, 4096, 10_000, 40_000])
    def test_b_minus_one_is_the_trigamma_tail(self, n_terms):
        params = ClassParams(1, 1, 1, -1)
        with mpmath.workdps(30):
            trigamma = float(mpmath.psi(1, n_terms + 1))
        tail = extremal_tail_bound(params, n_terms)
        assert trigamma <= tail <= trigamma * (1 + bounds.TAIL_ROUNDING + 1e-15)

    @pytest.mark.parametrize("n_terms", [64, 4096])
    @pytest.mark.parametrize("B", [-0.9, -0.9995, -0.9999, -0.99999, -1 + 1e-9])
    def test_bounds_the_exact_tail_near_b_minus_one(self, B, n_terms):
        # the exact tail at the double B, x^N Phi(x, 2, N + 1) with x = B^2, to 40 digits
        params = ClassParams(1, 1, 1, B)
        with mpmath.workdps(40):
            x = mpmath.mpf(B) ** 2
            exact = float(params.G * x**n_terms * mpmath.lerchphi(x, 2, n_terms + 1))
        tail = extremal_tail_bound(params, n_terms)
        assert exact <= tail <= exact * (1 + 2 * bounds.TAIL_ROUNDING)


def kernel_reference(B, t):
    """sum (n+1)^t x^{n-1}/n^2 at the exact square x of the double B, to 40 digits:
    64 terms, then (n+1)^t = n^t (1 + 1/n)^t expanded into mpmath's Lerch sums."""
    with mpmath.workdps(40):
        x, t = mpmath.mpf(B) ** 2, mpmath.mpf(t)
        head = mpmath.fsum((n + 1) ** t * x ** (n - 1) / n**2 for n in range(1, 65))
        tail = mpmath.fsum(
            mpmath.binomial(t, j) * x**64 * mpmath.lerchphi(x, 2 + j - t, 65) for j in range(30)
        )
        return float(head + tail)


class TestKernelNearBMinusOne:
    """The kernel at non-integer t, where no closed form exists, as B -> -1."""

    @pytest.mark.parametrize("t", [-0.5, 0.5, 1.5])
    @pytest.mark.parametrize("B", [-0.9999, -0.99999, -0.999999])
    def test_matches_mpmath(self, B, t):
        got = bounds._weighted_series.__wrapped__(B, t)
        assert got == pytest.approx(kernel_reference(B, t), rel=1e-15, abs=0)

    # an order just off an integer: the E_s series meets its pole at s0 = 1
    @pytest.mark.parametrize("B", [-0.9, -0.99999, -1.0])
    def test_order_just_off_an_integer(self, B):
        got = bounds._weighted_series.__wrapped__(B, 1e-7)
        assert got == pytest.approx(kernel_reference(B, 1e-7), rel=1e-14, abs=0)

    def test_first_call_is_fast(self, monkeypatch):
        # a geometric loop would run about 40/(1 - x) = 2e7 terms here; the kernel
        # makes one 64-term head and 14 Euler-Maclaurin tails, each of bounded length,
        # and at an integer t >= 0 the binomial series ends after t + 1 of them
        calls = []

        def counted(*args):
            calls.append(args)
            return lerch_tail(*args)

        monkeypatch.setattr(bounds, "lerch_tail", counted)
        for t, tails in [(0.5, 14), (0.0, 1), (1.0, 2), (2.0, 3)]:
            calls.clear()
            bounds._weighted_series.__wrapped__(-0.999999, t)
            assert len(calls) == tails, t
