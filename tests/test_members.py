"""Class-member generation: extremal function, Schwarz seeds, subordination."""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest

from starlog.errors import InvalidParams, InvalidSeed, TruncationTooSmall
from starlog.members import (
    ClassParams,
    ExpDamp,
    Identity,
    Polynomial,
    Rotation,
    extremal_function,
    log_order,
    member_from_seed,
    seed_series,
    unit_log_coefficients,
)
from starlog.series import TruncatedSeries, div, from_coeffs, one, scale
from proofchain import log_coefficients
from zlevel import compose_power, ratio_series


def radial_derivative(member):
    """z f'/f - 1 recomputed from f = z exp(L(z^m)): with f = z R it is z R'/R."""
    ratio = ratio_series(member)
    num = TruncatedSeries(np.arange(len(ratio)) * ratio.array)
    return div(num, ratio)


def max_coeff_diff(a, b):
    n = min(a.order, b.order)
    av = np.asarray(a.coeffs[: n + 1])
    bv = np.asarray(b.coeffs[: n + 1])
    return float(np.max(np.abs(av - bv)))


class TestClassParams:
    def test_m_derivation(self):
        assert ClassParams(1, 3, 1, -0.5).m == 3
        assert ClassParams(0, 2, 1, -0.5).m == 1

    @pytest.mark.parametrize(
        "j, k, A, B",
        [
            (0, 1, 1, -0.5),  # degenerate m = 0
            (2, 2, 1, -0.5),  # j > k - 1
            (1, 1, 1, 0.5),  # B > 0
            (1, 1, 1, -1.5),  # B < -1
            (1, 1, -0.5, -0.5),  # A = B
            (-1, 2, 1, -0.5),
        ],
    )
    def test_invalid_params_rejected(self, j, k, A, B):
        with pytest.raises(InvalidParams):
            ClassParams(j, k, A, B)

    def test_one_one_allowed(self):
        assert ClassParams(1, 1, 1, -1).m == 1


class TestExtremalFunction:
    def test_koebe(self):
        member = extremal_function(ClassParams(1, 1, 1, -1), 5)
        assert max_coeff_diff(ratio_series(member), from_coeffs([1, 2, 3, 4, 5, 6])) <= 1e-12

    def test_twofold_gaussian(self):
        member = extremal_function(ClassParams(1, 2, 1, 0), 4)
        assert max_coeff_diff(ratio_series(member), from_coeffs([1, 0, 0.5, 0, 0.125])) <= 1e-14

    def test_even_symmetric_binomial(self):
        # (0,3) has m = 2; pipeline must match the direct binomial expansion
        params = ClassParams(0, 3, 1, -0.5)
        member = extremal_function(params, 8)
        p = (params.A - params.B) / (params.m * params.B)
        expected = [1.0]
        c = 1.0 + 0j
        for n in range(1, 5):
            c *= (p - n + 1) / n
            expected.extend([0.0, c * params.B**n])
        assert max_coeff_diff(ratio_series(member), from_coeffs(expected)) <= 1e-12

    def test_records_identity_seed(self):
        member = extremal_function(ClassParams(1, 2, 0.5, -0.25), 8)
        assert isinstance(member.seed, Identity)

    def test_normalization(self):
        member = extremal_function(ClassParams(1, 3, 0.8 + 0.3j, -0.75), 12)
        assert ratio_series(member)[0] == 1


class TestSeedSeries:
    def test_identity(self):
        assert seed_series(Identity(), 3).coeffs == (0, 1, 0, 0)

    def test_rotation_pi(self):
        s = seed_series(Rotation(math.pi), 2)
        assert abs(s[1] - (-1)) <= 1e-15
        assert s[0] == 0 and s[2] == 0

    def test_expdamp_series(self):
        # v(w) = w e^{w-1} = e^{-1}(w + w^2 + w^3/2 + ...)
        s = seed_series(ExpDamp(0.0, 1.0), 3)
        e = math.exp(-1)
        assert abs(s[1] - e) <= 1e-15
        assert abs(s[2] - e) <= 1e-15
        assert abs(s[3] - e / 2) <= 1e-15

    def test_polynomial_certificate(self):
        with pytest.raises(InvalidSeed):
            Polynomial((0.8, 0.3))
        s = seed_series(Polynomial((0.5, 0.25j)), 4)
        assert s.coeffs == (0, 0.5, 0.25j, 0, 0)

    def test_polynomial_certificate_reads_numpys_total(self):
        # numpy's |p_i| sum to 1 + 1e-12 exactly, Python's abs to a total above it: the
        # search certifies with numpy, so the type reads the same total
        coeffs = (-0.28385510697504834 - 0.077843014226565j, -0.32863718551946774 - 0.6244680123000766j)
        assert float(np.add.reduce(np.abs(coeffs))) == 1.0 + 1e-12 < sum(map(abs, coeffs))
        assert Polynomial(coeffs).coeffs == coeffs

    @pytest.mark.parametrize("coeffs", [(1.5e308 + 1.5e308j,), (1e308, 1e308)], ids=["abs", "sum"])
    def test_polynomial_with_an_overflowing_total_is_an_invalid_seed(self, coeffs):
        # Python's abs raised OverflowError on the first; numpy's total is inf, with
        # no warning, and fails the certificate
        with pytest.raises(InvalidSeed):
            Polynomial(coeffs)

    def test_negative_damping_rejected(self):
        with pytest.raises(InvalidSeed):
            ExpDamp(0.0, -0.1)

    @pytest.mark.parametrize("order", [0, 1, 2, 64, 300])
    @pytest.mark.parametrize("c", [0.0, 1.7, 5.0, 700.0])
    def test_expdamp_matches_per_coefficient_loop_bitwise(self, order, c):
        theta = 0.9
        expected = [0j] * (order + 1)
        term = cmath.exp(1j * theta) * math.exp(-c)
        for i in range(order):
            expected[i + 1] = term
            term *= c / (i + 1)
        got = seed_series(ExpDamp(theta, c), order).array
        assert got.tobytes() == np.array(expected, dtype=np.complex128).tobytes()

    @pytest.mark.parametrize(
        "c, order",
        [(5.0, 2000), (700.0, 2000), (709.0, 2000), (744.0, 2000), (750.0, 2000), (1000.0, 2000),
         (750.0, 0), (750.0, 1), (750.0, 2), (750.0, 50), (750.0, 100), (750.0, 101),
         (1000.0, 150), (2000.0, 701)],
    )
    def test_expdamp_matches_closed_form_where_exp_minus_c_underflows(self, c, order):
        # e^{-c} is subnormal above c = 708.4 and 0 above c = 745, so a recursion
        # started at it loses the weights e^{-c} c^i / i!.  The reference is the
        # log-gamma closed form at 40 digits: in doubles (math.lgamma) its own
        # rounding reaches 1.6e-12 of the largest weight at c = 1000.
        theta = 0.9
        with mpmath.workdps(40):
            rot, log_c = mpmath.exp(1j * theta), mpmath.log(c)
            ref = [rot * mpmath.exp(i * log_c - c - mpmath.loggamma(i + 1)) for i in range(order)]
            ref = np.array([complex(r) for r in ref], dtype=np.complex128)
        got = seed_series(ExpDamp(theta, c), order).array
        assert got[0] == 0 and len(got) == order + 1
        err = np.max(np.abs(got[1:] - ref), initial=0.0)
        assert err <= 1e-12 * np.max(np.abs(ref), initial=0.0)

    def test_polynomial_truncated_below_its_degree(self):
        assert seed_series(Polynomial((0.5, 0.25j, 0.125)), 2).coeffs == (0, 0.5, 0.25j)


SCHWARZ_SEEDS = [
    Identity(),
    Rotation(1.234),
    ExpDamp(0.7, 0.5),
    ExpDamp(2.0, 4.0),
    Polynomial((0.4, 0.3, 0.2, 0.1)),
    Polynomial((0.5j, 0.0, -0.5)),
]


@pytest.mark.parametrize("seed", SCHWARZ_SEEDS, ids=lambda s: s.label())
def test_schwarz_certification_on_grid(seed):
    # |v(w)| <= |w| at 64 points per radius
    coeffs = np.asarray(seed_series(seed, 96).coeffs)
    for r in (0.3, 0.6, 0.9):
        w = r * np.exp(2j * math.pi * np.arange(64) / 64)
        powers = w[:, None] ** np.arange(len(coeffs))[None, :]
        values = powers @ coeffs
        assert np.all(np.abs(values) <= np.abs(w) + 1e-12)


class TestMemberFromSeed:
    @pytest.mark.parametrize(
        "params",
        [
            ClassParams(1, 1, 1, -1),
            ClassParams(1, 2, 1, -0.5),
            ClassParams(0, 3, 0.8 + 0.3j, -0.75),
            ClassParams(1, 2, 1, 0),
        ],
        ids=str,
    )
    def test_identity_seed_reproduces_extremal(self, params):
        direct = extremal_function(params, 24)
        generated = member_from_seed(params, Identity(), 24)
        assert max_coeff_diff(ratio_series(direct), ratio_series(generated)) <= 1e-11

    def test_rotated_koebe(self):
        theta = 0.83
        member = member_from_seed(ClassParams(1, 1, 1, -1), Rotation(theta), 10)
        # closed form: z / (1 - e^{i theta} z)^2 has a_n = n e^{i (n-1) theta}
        w = cmath.exp(1j * theta)
        expected = [n * w ** (n - 1) for n in range(1, 12)]
        assert max_coeff_diff(ratio_series(member), from_coeffs(expected)) <= 1e-11

    def test_truncation_too_small(self):
        with pytest.raises(TruncationTooSmall):
            member_from_seed(ClassParams(1, 4, 1, -0.5), Identity(), 3)

    def test_log_order_refuses_an_order_below_m(self):
        params = ClassParams(1, 4, 1, -0.5)
        assert [log_order(params, order) for order in (4, 7, 8, 41)] == [1, 1, 2, 10]
        with pytest.raises(TruncationTooSmall, match="order 3 < m = 4"):
            log_order(params, 3)

    @pytest.mark.parametrize("seed", SCHWARZ_SEEDS, ids=lambda s: s.label())
    @pytest.mark.parametrize("B", [0.0, -0.5, -1.0])
    def test_unit_coefficients_scale_to_each_members_d(self, seed, B):
        # d_n = ((A - B)/(2m)) q_n for every A and m at one N_d: q is the u/n of (1 + Bv)u = v
        q = unit_log_coefficients(B, seed, 40)
        assert q.shape == (40,) and not q.flags.writeable
        for j, k, A in [(1, 1, 1), (0, 3, 0.8 + 0.3j), (1, 4, 1e4)]:
            params = ClassParams(j, k, A, B)
            d = member_from_seed(params, seed, 40 * params.m).d
            scale = (params.A - params.B) / (2 * params.m)
            assert np.max(np.abs(scale * q - d)) <= 1e-14 * np.max(np.abs(d))
            sums = np.sum(np.abs(d) ** 2), params.G * np.sum(np.abs(q) ** 2)
            assert sums[0] == pytest.approx(sums[1], rel=1e-14)

    def test_d_is_a_read_only_array_at_w_level(self):
        # m = 3, N = 25: d_1..d_8 in w = z^3, the log coefficients as they are
        member = member_from_seed(ClassParams(1, 3, 1, -0.5), ExpDamp(0.3, 1.0), 25)
        d = member.d
        assert type(d) is np.ndarray and d.dtype == np.complex128 and d.shape == (8,)
        with pytest.raises(ValueError):
            d[0] = 0.0
        copy = log_coefficients(member).d
        assert copy.tolist() == d.tolist() and not np.shares_memory(copy, d)

    @pytest.mark.parametrize("seed", SCHWARZ_SEEDS, ids=lambda s: s.label())
    def test_subordination_consistency(self, seed):
        params = ClassParams(1, 3, 0.5, -0.6)
        member = member_from_seed(params, seed, 30)
        V = compose_power(seed_series(seed, 30), params.m, 30)
        expected = div(scale(V, params.A - params.B), one(30) + scale(V, params.B))
        got = radial_derivative(member)
        assert max_coeff_diff(got, expected) <= 1e-10

    @pytest.mark.parametrize("seed", SCHWARZ_SEEDS, ids=lambda s: s.label())
    def test_kfold_symmetry_for_j1(self, seed):
        # j = 1 members have Taylor support on exponents = 1 mod k, so f/z on multiples of k
        member = member_from_seed(ClassParams(1, 3, 1, -0.5), seed, 24)
        for n, c in enumerate(ratio_series(member).coeffs):
            if n % 3 != 0:
                assert c == 0


def q_function(params, order):
    """z/f for the extremal member: e^{-A z^m / m} or (1 + B z^m)^{-(A-B)/(mB)}."""
    return ratio_series(extremal_function(params, order), sign=-1.0)


class TestQFunction:
    def test_koebe_inverse_square(self):
        assert max_coeff_diff(q_function(ClassParams(1, 1, 1, -1), 4), from_coeffs([1, -2, 1, 0, 0])) <= 1e-12

    def test_gaussian_branch(self):
        q = q_function(ClassParams(1, 2, 1, 0), 4)
        assert max_coeff_diff(q, from_coeffs([1, 0, -0.5, 0, 0.125])) <= 1e-14

    @pytest.mark.parametrize(
        "params",
        [
            ClassParams(1, 1, 1, -1),
            ClassParams(1, 2, 0.5, -0.25),
            ClassParams(2, 3, 0.8 + 0.3j, -0.75),
            ClassParams(1, 4, 1, 0),
        ],
        ids=str,
    )
    def test_q_product_is_one(self, params):
        order = 20
        member = extremal_function(params, order)
        q, ratio = q_function(params, order), ratio_series(member)
        product = TruncatedSeries(np.convolve(q.array, ratio.array)[: order + 1])
        assert max_coeff_diff(product, one(order)) <= 1e-11


@pytest.mark.parametrize(
    "A",
    [math.nan, complex(1, math.nan), math.inf, complex(0, -math.inf), 1e300, complex(1e200, 1e200)],
    ids=repr,
)
def test_non_finite_a_rejected(A):
    # 1e300 is finite, but |A - B|^2 (the scale of every bound) overflows
    with pytest.raises(InvalidParams):
        ClassParams(1, 1, A, -0.5)


@pytest.mark.parametrize(
    "j, k, A", [(1, 1, 1e-170), (1, 1, 1e-155), (1, 4, 1e-153), (1, 2, 1e-170j)]
)
def test_underflowing_lead_factor_rejected(j, k, A):
    # G = (|A - B|/(2m))^2 scales every bound; subnormal or 0, the bounds lose their digits
    with pytest.raises(InvalidParams, match="positive normal double"):
        ClassParams(j, k, A, 0.0)


def test_smallest_normal_lead_factor_accepted():
    params = ClassParams(1, 1, 3e-154, 0.0)  # G = 2.25e-308, just above the smallest normal
    assert params.G >= sys.float_info.min


@pytest.mark.parametrize(
    "make",
    [
        lambda: ExpDamp(0.0, math.nan),
        lambda: ExpDamp(0.0, math.inf),
        lambda: ExpDamp(math.nan, 1.0),
        lambda: Rotation(math.inf),
        lambda: Polynomial((math.nan,)),
        lambda: Polynomial((0.5, complex(0, math.nan))),
    ],
)
def test_non_finite_seed_rejected(make):
    with pytest.raises(InvalidSeed):
        make()
