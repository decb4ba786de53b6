"""Member verification, sharpness certification, and the two lemma checkers."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from starlog.bounds import extremal_tail_bound, thm2_bound, thm_a_bound
from starlog.errors import InvalidParams, WeightOutOfRange
from starlog.logcoeffs import LogCoeffVector, sum_n2, sum_sq, sum_weighted
from starlog.members import (
    ClassParams,
    ExpDamp,
    Identity,
    Polynomial,
    Rotation,
    extremal_function,
    member_from_seed,
    seed_series,
    suggested_order,
    unit_log_coefficients,
)
from starlog.series import TruncatedSeries, from_coeffs
from starlog.verify import DEFAULT_TOL, check_sharpness, verify_member, weighted_sums

from proofchain import (
    HypothesisViolated,
    abel_weight_transfer,
    log_coefficients,
    rogosinski_l2_check,
    telescoping_weight,
)


class TestVerifyMember:
    def test_extremal_ratios_near_one(self):
        params = ClassParams(1, 2, 1, -0.5)
        member = member_from_seed(params, Identity(), suggested_order(params))
        rows = verify_member(member)
        assert all(row.passed for row in rows)
        for row in rows:
            if row.ratio is not None and math.isfinite(row.bound or math.inf):
                assert 1 - 1e-8 <= row.ratio <= 1 + 1e-9

    @pytest.mark.parametrize("B", [-9.9e-5, -1e-5, -0.01])
    def test_extremal_plain_squares_ratio_is_one_at_small_b(self, B):
        # near x = B^2 = 1e-8 a kernel accurate to 1e-16 absolute is 2.5e-9 too small
        params = ClassParams(1, 1, 1, B)
        member = member_from_seed(params, Identity(), suggested_order(params))
        rows = {row.theorem: row for row in verify_member(member)}
        assert all(row.passed for row in rows.values())
        for theorem in ("ThmA", "Thm3(t=0)"):
            assert rows[theorem].ratio == pytest.approx(1.0, rel=1e-15, abs=0)

    def test_damped_member_strictly_inside(self):
        params = ClassParams(1, 2, 1, -0.5)
        member = member_from_seed(params, ExpDamp(0.0, 2.0), suggested_order(params))
        rows = verify_member(member)
        assert all(row.passed for row in rows)
        for row in rows:
            if row.ratio is not None:
                assert row.ratio < 1 - 1e-3

    def test_b_minus_one_skips_thm2_with_note(self):
        member = member_from_seed(ClassParams(1, 1, 1, -1), Identity(), 64)
        rows = verify_member(member, t_values=(0.0,))
        thm2 = next(r for r in rows if r.theorem == "Thm2")
        assert thm2.passed and "skipped" in thm2.note
        thma = next(r for r in rows if r.theorem == "ThmA")
        assert thma.passed and thma.bound is not None

    def test_b_minus_one_divergent_t_noted_not_dropped(self):
        member = member_from_seed(ClassParams(1, 1, 1, -1), Identity(), 64)
        rows = verify_member(member, t_values=(2.0,))
        row = next(r for r in rows if r.theorem == "Thm3(t=2)")
        assert row.bound == math.inf and "diverges" in row.note

    def test_fault_injection_fails(self):
        params = ClassParams(1, 1, 1, -0.5)
        member = member_from_seed(params, Identity(), suggested_order(params))
        rows = verify_member(member, d1_offset=1e-3)
        thma = next(r for r in rows if r.theorem == "ThmA")
        assert not thma.passed

    @pytest.mark.parametrize("excess", [1.5, 5.0, 9.5])
    def test_ratio_just_past_tolerance_fails(self, excess):
        # d_1 raised so the plain-squares sum is (1 + excess tol) times its bound: past
        # 1 + tol it must fail, whatever the slack, also within 1 + 10 tol
        params = ClassParams(1, 1, 1, -0.5)
        member = member_from_seed(params, Identity(), suggested_order(params))
        partial = next(r for r in verify_member(member) if r.theorem == "ThmA").partial_sum
        d1 = member.d[0].real
        target = thm_a_bound(params) * (1.0 + excess * DEFAULT_TOL)
        offset = math.sqrt(d1 * d1 + target - partial) - d1
        rows = verify_member(member, d1_offset=offset)
        thma = next(r for r in rows if r.theorem == "ThmA")
        assert 1.0 + DEFAULT_TOL < thma.ratio <= 1.0 + 10 * DEFAULT_TOL
        assert not thma.passed
        assert all(r.passed == (r.ratio <= 1.0 + DEFAULT_TOL) for r in rows)

    @pytest.mark.parametrize("B", [-0.5, -0.9])
    @pytest.mark.parametrize("seed", [Rotation(1.3), ExpDamp(2.0, 0.5)], ids=lambda s: s.label())
    def test_ratios_do_not_depend_on_a_or_m(self, seed, B):
        # d_n = (A - B)/m u_n with u_n a function of B and the seed alone, and every
        # bound scales with G = |A - B|^2/(2m)^2, so each ratio is one number per (B, seed)
        pairs = [(0, 2), (0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
        columns = {}
        for A in (1, 0.5, 0.8 + 0.3j, 1e4, 1e-3j):
            for j, k in pairs:
                params = ClassParams(j, k, A, B)
                for row in verify_member(member_from_seed(params, seed, suggested_order(params))):
                    columns.setdefault(row.theorem, []).append(row.ratio)
        assert len(columns) == 6
        for theorem, ratios in columns.items():
            assert len(ratios) == 45
            assert max(ratios) - min(ratios) <= 1e-13 * min(ratios), theorem

    def test_tail_bound_reported_for_identity_only(self):
        params = ClassParams(1, 2, 1, -0.5)
        identity = verify_member(member_from_seed(params, Identity(), 32))
        damped = verify_member(member_from_seed(params, ExpDamp(0, 1), 32))
        assert all(r.tail_bound is not None for r in identity)
        assert all(r.tail_bound is None for r in damped)


NEAR_KOEBE = [-0.9995, -0.9999, -0.99999, -1 + 1e-9, -1.0]


class TestCheckSharpness:
    def test_half_b_instance(self):
        row = check_sharpness(ClassParams(1, 1, 1, -0.5), order=128)
        assert row.passed
        assert abs(row.partial_sum + row.tail_bound - row.bound) <= 1e-9 * row.bound

    def test_single_term_b_zero(self):
        row = check_sharpness(ClassParams(1, 2, 1, 0))
        assert row.passed
        assert abs(row.partial_sum - 1 / 16) <= 1e-14

    def test_complex_a_instance(self):
        row = check_sharpness(ClassParams(2, 3, 0.8 + 0.3j, -0.75), order=512)
        assert row.passed
        assert abs(row.partial_sum + row.tail_bound - row.bound) <= 1e-8 * row.bound

    def test_certified_without_a_flag(self):
        # |B| > 0.9 takes the one path that every B does
        for B in (-0.95, -1.0):
            for k in (1, 4):
                row = check_sharpness(ClassParams(1, k, 1, B))
                assert row.passed, row

    def test_koebe_slow_mode(self):
        # B = -1 takes the one order rule; the tail covers what 512 terms leave
        params = ClassParams(1, 1, 1, -1)
        row = check_sharpness(params)
        assert row.N_d == suggested_order(params) // params.m == 512
        assert abs(row.partial_sum + row.tail_bound - math.pi**2 / 6) <= 1e-9
        assert abs(row.partial_sum + row.tail_bound - row.bound) <= 1e-9

    @pytest.mark.parametrize("k", [2, 4])
    def test_koebe_slow_mode_at_m_above_one(self, k):
        # j = 1, so m = k; the benchmark's koebe certificate gates at m = 4
        A = 0.8 + 0.3j
        params = ClassParams(1, k, A, -1)
        row = check_sharpness(params)
        bound = (abs(A + 1) / (2 * k)) ** 2 * math.pi**2 / 6
        assert row.N_d == suggested_order(params) // params.m == 512
        assert abs(row.bound - bound) <= 1e-12 * bound
        bracket = row.partial_sum + row.tail_bound
        assert abs(bracket - row.bound) <= 1e-8 * row.bound

    # an explicit order still takes the long band-1 path: five 2048-row blocks of the solve
    @pytest.mark.parametrize("k", [1, 4])
    def test_koebe_explicit_long_order(self, k):
        params = ClassParams(1, k, 1, -1)
        row = check_sharpness(params, order=10_000 * k)
        assert row.passed, row
        assert row.N_d == 10_000
        assert abs(row.partial_sum - row.bound) <= 1e-4 * row.bound
        assert abs(row.partial_sum + row.tail_bound - row.bound) <= 1e-8 * row.bound
        assert abs(row.ratio - 1.0) <= 1e-15

    # the tail is summed to rounding, so the default order certifies B near -1 too
    @pytest.mark.parametrize("B", NEAR_KOEBE)
    @pytest.mark.parametrize("k", [1, 4])
    def test_near_koebe_certified_at_the_default_order(self, B, k):
        row = check_sharpness(ClassParams(1, k, 1, B))
        assert row.passed, row
        assert abs(row.partial_sum + row.tail_bound - row.bound) <= 1e-15 * row.bound

    @pytest.mark.parametrize("B", NEAR_KOEBE)
    def test_near_koebe_raised_bound_fails(self, B, monkeypatch):
        import starlog.verify as verify_mod

        monkeypatch.setattr(verify_mod, "thm_a_bound", lambda p: thm_a_bound(p) * (1 + 1e-7))
        assert not check_sharpness(ClassParams(1, 1, 1, B)).passed

    @pytest.mark.parametrize("B", NEAR_KOEBE)
    def test_near_koebe_injected_d1_fails(self, B):
        params = ClassParams(1, 1, 1, B)
        member = member_from_seed(params, Identity(), suggested_order(params))
        rows = verify_member(member, d1_offset=0.5)
        assert not next(r for r in rows if r.theorem == "ThmA").passed

    @pytest.mark.parametrize("A", [50, 1e3])
    def test_large_a_extremal_bracket(self, A):
        # d_n read off log(f/z) keep full precision for large |A - B| / m
        params = ClassParams(1, 1, A, -0.5)
        d = log_coefficients(extremal_function(params, suggested_order(params)))
        ratio = (sum_sq(d) + extremal_tail_bound(params, d.n_terms)) / thm_a_bound(params)
        assert abs(ratio - 1) <= 1e-12

    def test_detects_broken_pipeline(self, monkeypatch):
        _unit_with(monkeypatch, 1, lambda q: q + 5e-5)  # breaks |d_1|^2 equality
        row = check_sharpness(ClassParams(1, 1, 1, -0.5), order=64)
        assert not row.passed and "n=1:" in row.note
        assert (row.N, row.N_d) == (64, 64)

    # the term test reads |q_n|^2, free of G: a member whose d_2 and d_3 are swapped
    # fails at G = 2.5e-13, where every |d_n|^2 is below 1e-11, and at G = 2.5e7,
    # where one ulp of |d_n|^2 is above it
    @pytest.mark.parametrize("A, G", [(-0.499999, 2.5e-13), (9999.5, 2.5e7)])
    def test_swapped_terms_fail_at_every_scale(self, monkeypatch, A, G):
        import starlog.verify as verify_mod

        def swapped(B, seed, n_d):
            q = unit_log_coefficients(B, seed, n_d).copy()
            q[[1, 2]] = q[[2, 1]]
            return q

        params = ClassParams(1, 1, A, -0.5)
        assert params.G == pytest.approx(G, rel=1e-9)
        assert check_sharpness(params).passed
        monkeypatch.setattr(verify_mod, "unit_log_coefficients", swapped)
        row = check_sharpness(params)
        assert not row.passed and "n=2:" in row.note

    # |q_1|^2 off by 2e-10, between COEFF_TOL and 1e-9: the term test sees it at any
    # G, and reports |d_1|^2 = G |q_1|^2 against G
    @pytest.mark.parametrize("A", [1.0, 1e4])
    def test_term_tolerance_is_coeff_tol_on_the_unit_squares(self, monkeypatch, A):
        params = ClassParams(1, 1, A, -0.5)
        _unit_with(monkeypatch, 1, lambda q: q * (1 + 1e-10))
        row = check_sharpness(params)
        assert not row.passed and "n=1:" in row.note
        assert f"!= {params.G}" in row.note


def compose_truncated(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Oracle-side polynomial composition outer(inner(z)); inner(0) = 0."""
    order = min(outer.order, inner.order)
    acc = np.zeros(order + 1, dtype=complex)
    acc[0] = outer[0]
    power = np.zeros(order + 1, dtype=complex)
    power[0] = 1.0
    inner_v = np.asarray(inner.coeffs[: order + 1])
    for n in range(1, order + 1):
        power = np.convolve(power, inner_v)[: order + 1]
        acc += outer[n] * power
    return TruncatedSeries(tuple(acc.tolist()))


class TestRogosinski:
    def test_identity_witness_equality(self):
        g = from_coeffs([0, 1, -2j, 0.5, 3])
        ok, slack = rogosinski_l2_check(g.array, g.array, 4)
        assert ok and abs(slack) <= 1e-15

    def test_square_substitution_slack(self):
        g = from_coeffs([0, 1, 0.5, 0.25, 0.125], order=8)
        f = compose_truncated(g, from_coeffs([0, 0, 1], order=8))
        ok, slack = rogosinski_l2_check(f.array, g.array, 8)
        assert ok
        assert abs(slack) <= 1e-12  # totals realign once every exponent doubles
        ok7, slack7 = rogosinski_l2_check(f.array, g.array, 7)
        assert ok7
        assert abs(slack7 - abs(g[4]) ** 2) <= 1e-12  # strict before realignment

    def test_rotation_partial_sums_equal(self):
        g = from_coeffs([0, 1, 1j, -0.5])
        w = math.e ** (0.7j)
        f = TruncatedSeries(tuple(c * w**n for n, c in enumerate(g.coeffs)))
        ok, slack = rogosinski_l2_check(f.array, g.array, 3)
        assert ok and abs(slack) <= 1e-12

    @staticmethod
    def _rotation_and_identity(A):
        params = ClassParams(1, 1, A, -0.5)
        order = suggested_order(params)
        rotated, identity = (
            np.r_[0, member_from_seed(params, seed, order).d] for seed in (Rotation(1.3), Identity())
        )
        return rotated, identity, order

    def test_equal_partial_sums_pass_at_large_a(self):
        # |d_n| of a rotation equals the identity's: the partial sums (about 2.7e7
        # at A = 1e4) agree to a few ulps, above the old absolute floor 1e-10
        rotated, identity, order = self._rotation_and_identity(1e4)
        total = float(np.sum(np.abs(identity) ** 2))
        for sub, sup in ((rotated, identity), (identity, rotated)):
            ok, slack = rogosinski_l2_check(sub, sup, order)
            assert ok and abs(slack) <= 1e-14 * total
        ok, _ = rogosinski_l2_check(rotated / 1e4, identity / 1e4, order)
        assert ok

    @pytest.mark.parametrize("A", [1, 1e4])
    @pytest.mark.parametrize("K", [1, 5, 22])
    def test_relative_excess_fails(self, A, K):
        # raise |b_K|^2 so that B_K exceeds C_K by 1e-9 of C_K
        _, identity, order = self._rotation_and_identity(A)
        partial = np.cumsum(np.abs(identity) ** 2)
        sub = identity.copy()
        sub[K] *= math.sqrt(1 + 1e-9 * partial[K] / abs(identity[K]) ** 2)
        ok, slack = rogosinski_l2_check(sub, identity, order)
        assert not ok
        assert slack == pytest.approx(-1e-9 * partial[K], rel=1e-3)

    @pytest.mark.parametrize("sub, sup", [([0, math.nan], [0, 1]), ([0, 1], [0, math.nan])])
    def test_nan_fails(self, sub, sup):
        ok, _ = rogosinski_l2_check(np.array(sub), np.array(sup), 1)
        assert not ok

    def test_constructed_pairs(self):
        rng = np.random.default_rng(99)
        seeds = [Identity(), Rotation(1.0), ExpDamp(0.4, 1.5), Polynomial((0.5, 0.25, 0.25))]
        for trial in range(40):
            g_coeffs = rng.normal(size=25) + 1j * rng.normal(size=25)
            g_coeffs[0] = 0.0
            g = TruncatedSeries(tuple(g_coeffs.tolist()))
            omega = seed_series(seeds[trial % len(seeds)], 24)
            f = compose_truncated(g, omega)
            ok, _ = rogosinski_l2_check(f.array, g.array, 24)
            assert ok


class TestAbelWeightTransfer:
    def test_equal_sequences(self):
        y = [1.0, 0.5, 0.25, 0.125]
        for t in (-1.0, 0.0, 1.0, 2.0):
            ok, margin = abel_weight_transfer(y, y, 1.0, t)
            assert ok and abs(margin) <= 1e-12

    def test_extremal_instantiation(self):
        # x_n = n^2 |d_n(K)|^2, y_n = B^{2n}, C = H(A, B): equality term by term
        params = ClassParams(1, 1, 1, -0.5)
        d = log_coefficients(extremal_function(params, 40))
        n = np.arange(1, d.n_terms + 1)
        x = n**2 * np.abs(np.asarray(d.d)) ** 2
        y = (params.B**2) ** n
        h = (abs(params.A - params.B) / (2 * params.m * params.B)) ** 2
        ok, margin = abel_weight_transfer(x, y, h, 2.0)
        assert ok and abs(margin) <= 1e-12

    def test_randomized_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            y = rng.uniform(0, 1, 30)
            x = y * rng.uniform(0, 1, 30)
            t = rng.uniform(-2, 2)
            ok, margin = abel_weight_transfer(x, y, 1.0, t)
            assert ok and margin >= -1e-12

    def test_hypothesis_violation_rejected(self):
        y = [1.0, 1.0, 1.0]
        x = [1.5, 0.0, 0.0]
        with pytest.raises(HypothesisViolated):
            abel_weight_transfer(x, y, 1.0, 0.0)

    def test_weight_out_of_range(self):
        with pytest.raises(WeightOutOfRange):
            abel_weight_transfer([1.0], [1.0], 1.0, 2.5)

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("t", [math.nan, -math.inf])
    def test_non_finite_weight_exponent_rejected(self, t, n):
        # a NaN t used to give (False, nan) instead of an error
        with pytest.raises(WeightOutOfRange):
            abel_weight_transfer([1.0] * n, [1.0] * n, 1.0, t)

    def test_weight_positivity_and_counterexample(self):
        ks = np.arange(1, 2001)
        for t in (-1.0, 0.0, 1.0, 2.0):
            assert all(telescoping_weight(int(k), t) > 0 for k in ks[:100])
        # t = 2.5 breaks positivity
        assert any(telescoping_weight(int(k), 2.5) <= 0 for k in range(1, 50))


@pytest.mark.parametrize("bad_bound", [math.nan, 0.0, -1.0, math.inf])
def test_verify_member_fails_closed_on_bad_bound(monkeypatch, bad_bound):
    import starlog.verify as verify_mod

    monkeypatch.setattr(verify_mod, "thm_a_bound", lambda params: bad_bound)
    params = ClassParams(1, 2, 1, -0.5)
    rows = verify_member(member_from_seed(params, Identity(), suggested_order(params)))
    thma = next(r for r in rows if r.theorem == "ThmA")
    assert not thma.passed and math.isnan(thma.ratio)
    assert not all(r.passed for r in rows)


@pytest.mark.parametrize("bad_bound", [math.nan, 0.0, -1.0, math.inf])
def test_check_sharpness_fails_closed_on_bad_bound(monkeypatch, bad_bound):
    import starlog.verify as verify_mod

    monkeypatch.setattr(verify_mod, "thm_a_bound", lambda params: bad_bound)
    row = check_sharpness(ClassParams(1, 2, 1, -0.5))
    assert not row.passed and math.isnan(row.ratio)


def test_inject_hook_leaves_original_vector_untouched():
    params = ClassParams(1, 2, 1, -0.5)
    member = member_from_seed(params, Rotation(0.7), 40)
    before = member.d.tobytes()
    rows = verify_member(member, d1_offset=0.25)
    assert not all(r.passed for r in rows)
    assert member.d.tobytes() == before
    assert all(r.passed for r in verify_member(member))


REDUCTION_T = (-300.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0)


@pytest.mark.parametrize("n_d", [1, 2, 7, 8, 9, 63, 64, 65, 128, 129, 150, 4096, 4100])
def test_reduction_is_bit_equal_to_each_sum(n_d):
    # one reduction over the stacked weight rows gives every compared sum; each must be
    # the bits of its own logcoeffs sum, whatever the pairwise blocking of numpy's .sum()
    rng = np.random.default_rng(n_d)
    d = (rng.standard_normal(n_d) + 1j * rng.standard_normal(n_d)) * np.exp(rng.uniform(-9, 9, n_d))
    params = ClassParams(1, 1, 1, -0.5)
    member = dataclasses.replace(member_from_seed(params, Identity(), n_d), d=d)
    rows = {r.theorem: r for r in verify_member(member, t_values=REDUCTION_T)}
    vector = LogCoeffVector(d=d, m=1)
    assert rows["ThmA"].partial_sum == sum_sq(vector)
    assert rows["Thm2"].partial_sum == sum_n2(vector)
    for t in REDUCTION_T:
        assert rows[f"Thm3(t={t:g})"].partial_sum == sum_weighted(vector, t), t
    assert all(r.N_d == n_d for r in rows.values())


@pytest.mark.parametrize("coeffs", [(2.225199645155884e-160,), (1e-160, 1e-160j, 1e-161), (3e-155, -7e-158j)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_subnormal_sums_round_once(coeffs, k):
    # squares below the normal range are summed lifted by 2^2e and rounded once, so each
    # sum is the float nearest the exact sum on the member's own d_n
    params = ClassParams(0 if k > 1 else 1, k, 1, 0.0)
    member = member_from_seed(params, Polynomial(coeffs), 12 * k)
    sq = [Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in map(complex, member.d)]
    weights = {"ThmA": lambda n: 1, "Thm2": lambda n: n * n}
    weights |= {f"Thm3(t={t:g})": lambda n, t=t: Fraction(n + 1) ** t for t in (-1, 0, 1, 2)}
    rows = verify_member(member)
    for row in rows:
        exact = sum(weights[row.theorem](n) * s for n, s in enumerate(sq, 1))
        assert 0.0 < row.partial_sum < 2.0**-1022
        assert row.partial_sum == float(exact), row.theorem


def test_lift_is_a_power_of_two_that_stops_at_one_half():
    # a peak of |c_n| and |c1_offset| below 1/2 moves up into [1/2, 1) by 2^e, e > 0; a
    # large one moves down by e < 0 only past 2^room, just below it: with one weight
    # row of ones and two terms, 2^509; each sum's bits are those of the moved oracle
    for c, offset, up in (
        (np.array([3e-200 + 4e-200j, -1e-210j]), 1e-205, True),
        (np.array([1e300 - 2e299j, 3e290]), 1e299j, False),
    ):
        before = c.tobytes()
        (total,), shift = weighted_sums(c, (0.0,), offset)
        e = -shift // 2
        assert shift == -2 * e and (e > 0) == up and e != 0
        moved = c * 2.0**e
        assert (0.5 <= np.abs(moved).max() < 1.0) if up else (2.0**508 <= np.abs(moved).max() < 2.0**509)
        moved[0] += offset * 2.0**e
        assert total == float((np.abs(moved) ** 2).sum()) and c.tobytes() == before
    c = np.array([3e-200 + 4e-200j, -1e-210j])
    assert weighted_sums(c, (0.0,), 0.5 + 0j)[1] == 0  # the offset counts in the peak
    assert weighted_sums(c, (0.0,), 7.0 + 0j)[1] == 0  # a peak that cannot overflow stays
    assert weighted_sums(c, (0.0,), 2.0**600 + 0j)[1] == 2 * 92  # 2^600 lowered to 2^508
    for peak in (0.0, 0.5, 7.0, 2.0**508, math.inf, math.nan):
        same = np.array([peak, 1e-300 * peak], dtype=np.complex128)
        assert weighted_sums(same, (0.0,))[1] == 0
    # room = (1021 - the largest weight's binary exponent - the term count's bit length) // 2:
    # (1021 - 20 - 10) // 2 = 495 for the n^2 row of 1000 terms, whose largest weight is 10^6
    assert weighted_sums(np.full(1000, 2.0**600, dtype=np.complex128), ("n2",))[1] == 2 * 106


def test_a_peak_that_cannot_overflow_keeps_its_subnormal_terms_bits():
    # d_1 .. d_14 = 0 and |d_15| ~ 2^194: at t = -345 the lifted weight 16^-345 2^344 =
    # 2^-1036 is exact, and its product with |d_15|^2 is normal, so the sum rounds once;
    # lowering the peak into [1/2, 1) would have rounded that product as a subnormal
    member = member_from_seed(ClassParams(1, 1, 1e60, -0.5), Polynomial((0,) * 14 + (0.7,)), 64)
    assert not member.d[:14].any() and abs(member.d[14]) > 2.0**193
    (row,) = [row for row in verify_member(member, t_values=(-345.0,)) if row.t == -345.0]
    sq = [Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in map(complex, member.d)]
    exact = sum(Fraction(n + 1) ** -345 * s for n, s in enumerate(sq, 1))
    assert row.partial_sum == float(exact) > 2.0**-1000


def test_weight_stack_is_read_only_and_its_cache_bounded():
    import starlog.verify as verify_mod

    stack = verify_mod._weight_stack(5, (0.0, "n2", 2.0))
    assert stack.shape == (3, 5) and not stack.flags.writeable
    assert stack.tolist()[:2] == [[1.0] * 5, [1.0, 4.0, 9.0, 16.0, 25.0]]
    assert 0 < verify_mod._weight_stack.cache_info().maxsize <= 64


def test_weight_rows_below_one_half_are_lifted_by_a_power_of_two():
    import starlog.verify as verify_mod

    # (n+1)^t peaks at 2^t, n = 1, for t < 0: below 1/2 from t < -1 and subnormal from t < -1022
    keys = (0.0, "n2", 2.0, -1.0, -1.5, -300.0, -1050.0)
    n = np.arange(1.0, 41.0)
    stack = verify_mod._weight_stack(40, keys)
    assert [verify_mod._row_lift(key) for key in keys] == [0, 0, 0, 0, 1, 299, 1049]
    for key, row in zip(keys, stack):
        e = verify_mod._row_lift(key)
        w = n**2 if key == "n2" else (n + 1.0) ** key
        normal = w >= np.finfo(float).tiny
        assert np.array_equal(row[normal], np.ldexp(w[normal], e)), key  # bits kept, times 2^e
        assert row.max() >= 0.5 and (e == 0 or row.max() < 1.0), key
        if not isinstance(key, str) and key == int(key):  # the rest to a few ulps of 2^e (n+1)^t
            exact = [Fraction(2) ** e * Fraction(int(k) + 1) ** int(key) for k in n[~normal]]
            fine = [(float(x), got) for x, got in zip(exact, row[~normal]) if float(x) >= 2.0**-1022]
            assert all(abs(got - x) <= 4 * 2.0**-53 * x for x, got in fine), key
            assert key > -1022 or len(fine) == 2  # 2^1049 (n+1)^-1050 at n = 1 and 2


def test_an_offset_that_squares_past_the_largest_double_warns_nothing():
    # 4 |d_1 + 1e154|^2 passes the largest double: the reduction lowers the peak below
    # 2^room first, so no square overflows, and the sums that pass it read inf and fail
    member = member_from_seed(ClassParams(1, 1, 1e154, -0.5), Polynomial((0, 0, 0.7, 0.2)), 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = verify_member(member, t_values=(1.0, 2.0), d1_offset=1e154)
    sums = {row.theorem: row.partial_sum for row in rows}
    assert sums == {"ThmA": 1.0147959935200588e308, "Thm2": 1.1565630437849754e308,
                    "Thm3(t=1)": math.inf, "Thm3(t=2)": math.inf}
    assert not any(row.passed for row in rows)


@pytest.mark.parametrize("B", [-0.5, -1.0])
def test_huge_a_makes_no_sum_before_its_bounds(B):
    # |d_1|^2 is finite at A = 1.3e154, but (n+1)^2 |d_n|^2 overflows: at B = -0.5 the
    # Thm3(t=2) bound overflows too and raises before any sum; at B = -1 every row that
    # would overflow is skipped or vacuous, so no sum of it is made and numpy warns of nothing
    params = ClassParams(1, 1, 1.3e154, B)
    member = member_from_seed(params, Identity(), suggested_order(params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if B == -0.5:
            with pytest.raises(InvalidParams, match=r"Thm3\(t=2\) bound"):
                verify_member(member)
        else:
            assert all(r.passed for r in verify_member(member))


def test_plan_bounds_are_read_at_each_call(monkeypatch):
    # no plan outlives its call: a bound patched after one verify is the next one's bound
    import starlog.verify as verify_mod

    params = ClassParams(1, 2, 1, -0.5)
    member = member_from_seed(params, Identity(), suggested_order(params))
    assert all(r.passed for r in verify_member(member))
    monkeypatch.setattr(verify_mod, "thm2_bound", lambda params: 0.5 * thm2_bound(params))
    assert not next(r for r in verify_member(member) if r.theorem == "Thm2").passed


def _unit_with(monkeypatch, n, value):
    """Make check_sharpness see the identity seed's unit coefficients with q_n set by `value`."""
    import starlog.verify as verify_mod

    def perturbed_unit(B, seed, n_d):
        q = unit_log_coefficients(B, seed, n_d).copy()
        q[n - 1] = value(q[n - 1])
        return q

    monkeypatch.setattr(verify_mod, "unit_log_coefficients", perturbed_unit)


# for B = 0, |d_1|^2 must be G and d_3 must vanish; at B = -0.5 the same rule
# compares |d_3|^2 with the closed form
@pytest.mark.parametrize("n", [1, 3], ids=["d1", "d3"])
def test_b_zero_sharpness_flags_first_nonvanishing_coefficient(monkeypatch, n):
    _unit_with(monkeypatch, n, lambda q: q + 5e-7)
    for B in (0.0, -0.5):
        row = check_sharpness(ClassParams(1, 2, 0.6, B), order=40)
        assert not row.passed and f"n={n}:" in row.note, B
        assert (row.N, row.N_d) == (40, 20)


# a NaN term fails closed: the note names it and the row carries no sum
@pytest.mark.parametrize("B", [-0.5, 0.0])
def test_sharpness_flags_a_nan_coefficient(monkeypatch, B):
    _unit_with(monkeypatch, 3, lambda q: math.nan)
    row = check_sharpness(ClassParams(1, 2, 0.6, B), order=40)
    assert not row.passed and "n=3:" in row.note
    assert row.partial_sum is None and row.ratio is None


def test_divergent_thm3_row_stays_vacuous_pass():
    member = member_from_seed(ClassParams(1, 1, 1, -1), Identity(), 64)
    rows = verify_member(member, t_values=(1.0, 2.0))
    for t in (1.0, 2.0):
        row = next(r for r in rows if r.theorem == f"Thm3(t={t:g})")
        assert row.passed and row.ratio == 0.0 and row.bound == math.inf
        assert row.note == "bound series diverges at B = -1; inequality vacuous"


def test_skipped_and_vacuous_rows_carry_no_sum():
    # at A = 1.3e154 the n^2- and (n+1)^t-weighted sums overflow (t >= 1); at B = -1
    # their rows are skipped or vacuous, so no sum is made and numpy warns of nothing
    member = member_from_seed(ClassParams(1, 1, 1.3e154, -1), Identity(), 64)
    rows = {row.theorem: row for row in verify_member(member)}
    for theorem in ("Thm2", "Thm3(t=1)", "Thm3(t=2)"):
        assert rows[theorem].passed and rows[theorem].partial_sum is None
    for theorem in ("ThmA", "Thm3(t=-1)", "Thm3(t=0)"):
        assert rows[theorem].passed and rows[theorem].partial_sum > 0


def test_out_of_range_bound_raises_before_its_sum_overflows():
    # the Thm3(t=2) bound and sum (n+1)^2 |d_n|^2 both overflow here; the bound is
    # asked for first, so no numpy overflow warning (an error in this suite) comes first
    params = ClassParams(1, 1, 1.3e154, -0.5)
    member = member_from_seed(params, Identity(), suggested_order(params))
    with pytest.raises(InvalidParams, match=r"Thm3\(t=2\) bound"):
        verify_member(member)
