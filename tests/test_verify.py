"""Member verification, sharpness certification, and the two lemma checkers."""

import math

import numpy as np
import pytest

from starlog.bounds import extremal_tail_bound, thm_a_bound
from starlog.errors import HypothesisViolated, SharpnessFailure, SlowModeRequired, WeightOutOfRange
from starlog.logcoeffs import log_coefficients, sum_sq
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
)
from starlog.series import TruncatedSeries, from_coeffs
from starlog.verify import (
    abel_weight_transfer,
    check_sharpness,
    rogosinski_l2_check,
    telescoping_weight,
    verify_member,
)


class TestVerifyMember:
    def test_extremal_ratios_near_one(self):
        params = ClassParams(1, 2, 1, -0.5)
        member = member_from_seed(params, Identity(), suggested_order(params))
        report = verify_member(member)
        assert report.all_passed
        for row in report.rows:
            if row.ratio is not None and math.isfinite(row.bound or math.inf):
                assert 1 - 1e-8 <= row.ratio <= 1 + 1e-9

    def test_damped_member_strictly_inside(self):
        params = ClassParams(1, 2, 1, -0.5)
        member = member_from_seed(params, ExpDamp(0.0, 2.0), suggested_order(params))
        report = verify_member(member)
        assert report.all_passed
        for row in report.rows:
            if row.ratio is not None:
                assert row.ratio < 1 - 1e-3

    def test_b_minus_one_skips_thm2_with_note(self):
        member = member_from_seed(ClassParams(1, 1, 1, -1), Identity(), 64)
        report = verify_member(member, t_values=(0.0,))
        thm2 = next(r for r in report.rows if r.theorem == "Thm2")
        assert thm2.passed and "skipped" in thm2.note
        thma = next(r for r in report.rows if r.theorem == "ThmA")
        assert thma.passed and thma.bound is not None

    def test_b_minus_one_divergent_t_noted_not_dropped(self):
        member = member_from_seed(ClassParams(1, 1, 1, -1), Identity(), 64)
        report = verify_member(member, t_values=(2.0,))
        row = next(r for r in report.rows if r.theorem == "Thm3(t=2)")
        assert row.bound == math.inf and "diverges" in row.note

    def test_fault_injection_fails(self):
        params = ClassParams(1, 1, 1, -0.5)
        member = member_from_seed(params, Identity(), suggested_order(params))
        report = verify_member(member, d1_offset=1e-3)
        thma = next(r for r in report.rows if r.theorem == "ThmA")
        assert not thma.passed

    def test_tail_bound_reported_for_identity_only(self):
        params = ClassParams(1, 2, 1, -0.5)
        assert verify_member(member_from_seed(params, Identity(), 32)).tail_bound is not None
        assert verify_member(member_from_seed(params, ExpDamp(0, 1), 32)).tail_bound is None


class TestCheckSharpness:
    def test_half_b_instance(self):
        result = check_sharpness(ClassParams(1, 1, 1, -0.5), order=128)
        assert result["pass"]
        assert result["bracket_err"] <= 1e-9 * result["bound"]

    def test_single_term_b_zero(self):
        result = check_sharpness(ClassParams(1, 2, 1, 0))
        assert result["pass"]
        assert abs(result["partial_sum"] - 1 / 16) <= 1e-14

    def test_complex_a_instance(self):
        result = check_sharpness(ClassParams(2, 3, 0.8 + 0.3j, -0.75), order=512)
        assert result["pass"]
        assert result["bracket_err"] <= 1e-8 * result["bound"]

    def test_slow_mode_gate(self):
        with pytest.raises(SlowModeRequired):
            check_sharpness(ClassParams(1, 1, 1, -1))

    def test_koebe_slow_mode(self):
        result = check_sharpness(ClassParams(1, 1, 1, -1), slow=True)
        assert result["n_terms"] >= 10_000
        assert abs(result["partial_sum"] - math.pi**2 / 6) <= 1e-4
        assert result["bracket_err"] <= 1e-9

    @pytest.mark.parametrize("A", [50, 1e3])
    def test_large_a_extremal_bracket(self, A):
        # d_n read off log(f/z) keep full precision for large |A - B| / m
        params = ClassParams(1, 1, A, -0.5)
        d = log_coefficients(extremal_function(params, suggested_order(params)))
        ratio = (sum_sq(d) + extremal_tail_bound(params, d.n_terms)) / thm_a_bound(params).bound
        assert abs(ratio - 1) <= 1e-12

    def test_detects_broken_pipeline(self, monkeypatch):
        import dataclasses

        import starlog.verify as verify_mod

        def perturbed_extremal(params, order):
            member = extremal_function(params, order)
            coeffs = list(member.log_ratio.coeffs)
            coeffs[1] += 1e-4  # breaks |d_1|^2 equality
            return dataclasses.replace(member, log_ratio=from_coeffs(coeffs))

        monkeypatch.setattr(verify_mod, "extremal_function", perturbed_extremal)
        with pytest.raises(SharpnessFailure) as info:
            check_sharpness(ClassParams(1, 1, 1, -0.5), order=64)
        assert info.value.n == 1


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
        ok, slack = rogosinski_l2_check(g, g, 4)
        assert ok and abs(slack) <= 1e-15

    def test_square_substitution_slack(self):
        g = from_coeffs([0, 1, 0.5, 0.25, 0.125], order=8)
        f = compose_truncated(g, from_coeffs([0, 0, 1], order=8))
        ok, slack = rogosinski_l2_check(f, g, 8)
        assert ok
        assert abs(slack) <= 1e-12  # totals realign once every exponent doubles
        ok7, slack7 = rogosinski_l2_check(f, g, 7)
        assert ok7
        assert abs(slack7 - abs(g[4]) ** 2) <= 1e-12  # strict before realignment

    def test_rotation_partial_sums_equal(self):
        g = from_coeffs([0, 1, 1j, -0.5])
        w = math.e ** (0.7j)
        f = TruncatedSeries(tuple(c * w**n for n, c in enumerate(g.coeffs)))
        ok, slack = rogosinski_l2_check(f, g, 3)
        assert ok and abs(slack) <= 1e-12

    def test_constructed_pairs(self):
        rng = np.random.default_rng(99)
        seeds = [Identity(), Rotation(1.0), ExpDamp(0.4, 1.5), Polynomial((0.5, 0.25, 0.25))]
        for trial in range(40):
            g_coeffs = rng.normal(size=25) + 1j * rng.normal(size=25)
            g_coeffs[0] = 0.0
            g = TruncatedSeries(tuple(g_coeffs.tolist()))
            omega = seed_series(seeds[trial % len(seeds)], 24)
            f = compose_truncated(g, omega)
            ok, _ = rogosinski_l2_check(f, g, 24)
            assert ok


class TestAbelWeightTransfer:
    def test_equal_sequences(self):
        y = [1.0, 0.5, 0.25, 0.125]
        for t in (-1.0, 0.0, 1.0, 2.0):
            ok, margin = abel_weight_transfer(y, y, 1.0, t)
            assert ok and abs(margin) <= 1e-12

    def test_extremal_instantiation(self):
        # x_n = n^2 |d_n(K)|^2, y_n = B^{2n}, C = H(A, B): equality term by term
        from starlog.bounds import h_factor
        from starlog.logcoeffs import log_coefficients

        params = ClassParams(1, 1, 1, -0.5)
        d = log_coefficients(extremal_function(params, 40))
        n = np.arange(1, d.n_terms + 1)
        x = n**2 * np.abs(np.asarray(d.d)) ** 2
        y = (params.B**2) ** n
        ok, margin = abel_weight_transfer(x, y, h_factor(params), 2.0)
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
    import types

    import starlog.verify as verify_mod

    monkeypatch.setattr(verify_mod, "thm_a_bound", lambda params: types.SimpleNamespace(bound=bad_bound))
    params = ClassParams(1, 2, 1, -0.5)
    report = verify_member(member_from_seed(params, Identity(), suggested_order(params)))
    thma = next(r for r in report.rows if r.theorem == "ThmA")
    assert not thma.passed and math.isnan(thma.ratio)
    assert not report.all_passed


def test_inject_hook_leaves_original_vector_untouched(monkeypatch):
    import starlog.verify as verify_mod

    seen = []

    def recording_log_coefficients(member):
        seen.append(log_coefficients(member))
        return seen[-1]

    monkeypatch.setattr(verify_mod, "log_coefficients", recording_log_coefficients)
    params = ClassParams(1, 2, 1, -0.5)
    member = member_from_seed(params, Rotation(0.7), 40)
    fresh = log_coefficients(member)
    report = verify_member(member, d1_offset=0.25)
    assert not report.all_passed
    assert seen == [fresh] and seen[0].d.tobytes() == fresh.d.tobytes()
    assert verify_member(member).all_passed


def test_b_zero_sharpness_flags_first_nonvanishing_coefficient(monkeypatch):
    import dataclasses

    import starlog.verify as verify_mod

    def perturbed_extremal(params, order):
        member = extremal_function(params, order)
        coeffs = list(member.log_ratio.coeffs)
        coeffs[3] += 1e-6  # d_3 should vanish for B = 0
        return dataclasses.replace(member, log_ratio=from_coeffs(coeffs))

    monkeypatch.setattr(verify_mod, "extremal_function", perturbed_extremal)
    with pytest.raises(SharpnessFailure) as info:
        check_sharpness(ClassParams(1, 2, 0.6, 0), order=40)
    assert info.value.n == 3


def test_divergent_thm3_row_stays_vacuous_pass():
    member = member_from_seed(ClassParams(1, 1, 1, -1), Identity(), 64)
    report = verify_member(member, t_values=(1.0, 2.0))
    for t in (1.0, 2.0):
        row = next(r for r in report.rows if r.theorem == f"Thm3(t={t:g})")
        assert row.passed and row.ratio == 0.0 and row.bound == math.inf
        assert row.note == "bound series diverges at B = -1; inequality vacuous"
