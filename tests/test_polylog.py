"""Lerch tails and the polylogarithm against direct-series and mpmath oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from starlog import polylog
from starlog.bounds import thm_a_bound
from starlog.errors import DomainError
from starlog.members import ClassParams
from starlog.polylog import lerch_tail, li

ZETA2 = math.pi**2 / 6


def direct_series_oracle(v, x, terms=2_000_000):
    """Plain partial sum of x^n / n^v, chunked to keep memory flat."""
    total = 0.0
    block = 200_000
    for start in range(1, terms + 1, block):
        n = np.arange(start, min(start + block, terms + 1), dtype=np.float64)
        vals = x**n / n**v
        total += float(np.sum(vals))
        if vals[-1] == 0.0:
            break
    return total


def test_li2_at_zero():
    assert li(2, 0.0) == 0.0


def test_li2_at_a_tiny_argument_is_the_argument():
    # Li_2(x) = x + x^2/4 + ...: the first term's tail bound underflows to 0
    assert li(2, 1e-200) == 1e-200
    assert li(2, 5e-324) == 5e-324  # a cut at 1e-16 * x would underflow to 0 here


# x + x^2/4 + ...: a series cut at a tail of 1e-16 absolute kept only x below
# x = 1e-8, 2.5e-9 relative too small at x = 0.99e-8
@pytest.mark.parametrize("x", [1e-12, 0.99e-8, 1e-4, 0.01, 0.25, 0.5])
@pytest.mark.parametrize("v", [2.0, 3.0, 1.5])
def test_series_is_relatively_accurate_at_small_argument(v, x):
    with mpmath.workdps(40):
        reference = float(mpmath.polylog(v, x))
    assert li(v, x) == pytest.approx(reference, rel=3e-16, abs=0)


def test_li2_at_one_is_zeta2():
    assert abs(li(2, 1.0) - ZETA2) <= 1e-12


def test_li2_quarter_against_oracle():
    assert abs(li(2, 0.25) - direct_series_oracle(2, 0.25)) <= 1e-13
    assert abs(li(2, 0.25) - 0.267653) <= 1e-6


@pytest.mark.parametrize("x", [0.05, 0.1, 0.2, 0.3, 0.4, 0.5])
def test_reflection_consistency_below_half(x):
    # Euler's reflection identity Li_2(x) + Li_2(1 - x) = zeta(2) - ln(x) ln(1 - x), to 1e-12
    reflected = ZETA2 - math.log(x) * math.log1p(-x) - li(2, 1.0 - x)
    assert abs(li(2, x) - reflected) <= 1e-12


@pytest.mark.parametrize("x", [0.6, 0.75, 0.9, 0.99])
def test_li2_above_half_against_oracle(x):
    assert abs(li(2, x) - direct_series_oracle(2, x)) <= 1e-12


def test_li2_strictly_increasing_on_grid():
    xs = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    values = [li(2, float(x)) for x in xs]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("v", [2.5, 3.0, 4.0])
@pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
def test_higher_order_against_oracle(v, x):
    assert abs(li(v, x) - direct_series_oracle(v, x)) <= 1e-12


@pytest.mark.parametrize("v", [3.0, 4.0])
def test_higher_order_at_one(v):
    # zeta(3), zeta(4) reference values (Apery's constant; pi^4/90)
    reference = {3.0: 1.2020569031595943, 4.0: math.pi**4 / 90}
    assert abs(li(v, 1.0) - reference[v]) <= 1e-12


@pytest.mark.parametrize("v", [2.0, 2.5, 3.0, 6.0])
@pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_order_monotonicity(v, x):
    assert li(v, x) <= li(2, x) + 1e-15


def test_domain_errors():
    with pytest.raises(DomainError):
        li(2, -0.1)
    with pytest.raises(DomainError):
        li(2, 1.1)
    with pytest.raises(DomainError):
        li(1.5, 1.0)  # v < 2 only allowed with x < 1
    with pytest.raises(DomainError):
        li(0.5, 0.5)
    with pytest.raises(DomainError):
        li(math.nan, 0.5)


def test_low_order_allowed_inside_interval():
    assert abs(li(1.5, 0.5) - direct_series_oracle(1.5, 0.5)) <= 1e-12


def test_huge_order_with_overflowing_n_to_the_v():
    # 2^1500 overflows a double; the term after x and all the rest are below 1e-308
    assert li(1500.0, 0.5) == 0.5
    assert li(1024.0, 0.999) == 0.999


# an infinite order (argparse reads "inf" and "1e400" as one) once ran the tail's
# continued fraction on NaN without end; Li_inf(x) = x, as n^inf is infinite past n = 1
@pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
def test_infinite_order_is_the_argument(x):
    assert li(math.inf, x) == x


class TestLiRatio:
    """Li_2(x)/x at x = B^2: the plain-squares bound over its lead factor G."""

    @staticmethod
    def ratio(B):
        params = ClassParams(1, 1, 1.0, B)
        return thm_a_bound(params) / params.G

    def test_limit_value_at_zero(self):
        params = ClassParams(1, 2, 0.8 + 0.3j, 0.0)
        assert thm_a_bound(params) == params.G

    def test_at_one(self):
        assert abs(self.ratio(-1.0) - ZETA2) <= 1e-12

    def test_at_quarter(self):
        oracle = direct_series_oracle(2, 0.25) / 0.25
        assert abs(self.ratio(-0.5) - oracle) <= 1e-12
        assert abs(self.ratio(-0.5) - 1.070611) <= 1e-5


# (s, a) where lerch_tail(0, s, a) is the Hurwitz zeta: the trigamma tail
# psi_1(N + 1) = zeta(2, N + 1), the orders 2 - t + j of the B = -1 Thm3 tails
# at a large a, and zeta(v) = zeta(v, 1) for li(v, 1)
HURWITZ_POINTS = (
    [(2.0, a) for a in (2.0, 1001.0, 10001.0, 40001.0)]
    + [(2.0 - t + j, 2001.0) for t in (-1.0, 0.0, 0.5, 0.9) for j in range(0, 60, 3)]
    + [(s, 1.0) for s in (2.5, 3.0, 4.0, 6.0)]
)


@pytest.mark.parametrize("s, a", HURWITZ_POINTS)
def test_hurwitz_zeta_against_scipy(s, a):
    reference = float(special.zeta(s, a))
    assert abs(lerch_tail(0.0, s, a) - reference) <= 5e-16 * reference


@pytest.mark.parametrize("n", [1, 10, 150, 1000, 10_000, 40_000])
def test_hurwitz_zeta_is_trigamma(n):
    with mpmath.workdps(30):
        reference = float(mpmath.psi(1, n + 1))
    assert abs(lerch_tail(0.0, 2.0, n + 1.0) - reference) <= 2.2e-16 * reference


@pytest.mark.parametrize("s", [2.5, 3.0, 4.0, 6.0])
def test_hurwitz_zeta_at_one_is_riemann_zeta(s):
    with mpmath.workdps(30):
        reference = float(mpmath.zeta(s))
    assert abs(lerch_tail(0.0, s, 1.0) - reference) <= 5e-16 * reference


@pytest.mark.parametrize("s, a", [(1.0, 2.0), (0.5, 2.0), (2.0, 0.5), (math.nan, 2.0)])
def test_hurwitz_zeta_domain(s, a):
    with pytest.raises(DomainError):
        lerch_tail(0.0, s, a)


def lerch_oracle(mu, s, a):
    """T(mu, s, a) = e^{-mu a} lerchphi(e^-mu, s, a) to 40 digits.  mpmath's
    lerchphi stops at an absolute 10^-dps and sees mu only through e^-mu, so
    the working digits grow with T's magnitude and with -log10(mu).

    Below s = 1e-20, lerchphi goes wrong (2e-8 relative at mu = 1/16, s = 4e-151,
    a = 1), so T is taken at s = 0, e^{-mu a} / (1 - e^{-mu}): by Jensen the two
    differ by at most s log(a + 1/mu) < 1e-18 relative for mu >= 1e-30."""
    if s < 1e-20:
        with mpmath.workdps(60):
            mu = mpmath.mpf(mu)
            return mpmath.exp(-mu * a) / -mpmath.expm1(-mu)
    digits = 40 + int(s * math.log10(a) + mu * a / math.log(10))
    digits += int(-math.log10(mu)) if mu else 0
    with mpmath.workdps(digits):
        mu = mpmath.mpf(mu)
        return mpmath.exp(-mu * a) * mpmath.lerchphi(mpmath.exp(-mu), s, a)


@settings(max_examples=60, deadline=None)
@given(
    mu=st.one_of(st.just(0.0), st.floats(min_value=1e-30, max_value=0.7)),
    s=st.floats(min_value=0.0, max_value=16.0),
    a=st.sampled_from([1.0, 65.0, 4097.0]),
)
def test_lerch_tail_against_mpmath(mu, s, a):
    assume(s > 1.0 or mu > 0.0)
    # relative accuracy is asked only where T is a normal double
    assume(mu * a / math.log(10) + s * math.log10(a) < 290)
    reference = lerch_oracle(mu, s, a)
    assume(reference < 1e300)
    assert abs(lerch_tail(mu, s, a) - reference) <= 1e-14 * reference


# below mu = 1e-30 the oracle needs hundreds of digits; a = 1 keeps it fast.  Here
# z^-a of the E_s series carries no rounding of log z times a log z.
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_lerch_tail_at_a_tiny_mu(s):
    reference = lerch_oracle(1e-300, s, 1.0)
    assert abs(lerch_tail(1e-300, s, 1.0) - reference) <= 1e-14 * reference


@pytest.mark.parametrize(
    "mu, s, a",
    [(math.inf, 2.0, 1.0), (-0.1, 2.0, 1.0), (0.1, -0.5, 1.0), (0.1, math.inf, 1.0),
     (0.1, 2.0, math.inf), (0.1, math.nan, 1.0)],
)
def test_lerch_tail_domain(mu, s, a):
    with pytest.raises(DomainError):
        lerch_tail(mu, s, a)


# mu b overflows to inf here, where the continued fraction gives 0, not NaN
def test_lerch_tail_at_a_huge_mu_is_zero():
    assert lerch_tail(1e308, 2.0, 1.0) == 0.0


# an infinite order makes every level inf/inf = NaN, which never settles: the depth
# doubles only up to its cap, then raises
@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_expint_continued_fraction_stops_on_nan(p):
    with pytest.raises(DomainError):
        polylog._scaled_expint(p, 2.0)


# an order just off 1, where the E_s series meets its pole at a0 = 1 - s0 = 0
@pytest.mark.parametrize("v, x", [(1.0000001, 0.9999999), (1.5, 0.999)])
def test_li_near_its_limits_against_mpmath(v, x):
    with mpmath.workdps(40):
        reference = float(mpmath.polylog(v, x))
    assert li(v, x) == pytest.approx(reference, rel=1e-14, abs=0)
