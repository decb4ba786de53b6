"""Logarithmic-coefficient extraction and weighted square sums."""

import math

import numpy as np
import pytest

from starlog.errors import WeightOutOfRange
from starlog.logcoeffs import (
    LogCoeffVector,
    extremal_log_coefficient,
    log_coefficients,
    sum_n2,
    sum_sq,
    sum_weighted,
)
from starlog.members import ClassParams, Identity, Rotation, extremal_function, member_from_seed


class TestLogCoefficients:
    def test_koebe_harmonic(self):
        member = extremal_function(ClassParams(1, 1, 1, -1), 64)
        d = log_coefficients(member)
        assert d.n_terms == 64
        for n in range(1, 65):
            assert abs(d[n - 1] - 1.0 / n) <= 1e-11

    def test_b_zero_single_coefficient(self):
        params = ClassParams(1, 2, 0.6 + 0.2j, 0)
        d = log_coefficients(extremal_function(params, 20))
        assert abs(d[0] - params.A / (2 * params.m)) <= 1e-13
        assert all(abs(c) <= 1e-13 for c in d.d[1:])

    def test_even_class_first_coefficient(self):
        # (0, 3) has m = 2 and d_1 = (A - B)/(2m) = 3/8
        d = log_coefficients(extremal_function(ClassParams(0, 3, 1, -0.5), 12))
        assert abs(d[0] - 0.375) <= 1e-13
        assert d.n_terms == 6

    def test_n_terms_is_floor_order_over_m(self):
        member = extremal_function(ClassParams(1, 4, 1, -0.5), 21)
        assert log_coefficients(member).n_terms == 21 // 4


class TestExtremalLogCoefficient:
    def test_koebe_third(self):
        assert abs(extremal_log_coefficient(ClassParams(1, 1, 1, -1), 3) - 1 / 3) <= 1e-15

    def test_b_zero_values(self):
        params = ClassParams(1, 2, 1, 0)
        assert extremal_log_coefficient(params, 1) == 0.25
        assert extremal_log_coefficient(params, 2) == 0

    def test_alternating_sign_collapses(self):
        # (-1)^{n-1} B^n keeps every term positive for B < 0 and real A > B
        params = ClassParams(1, 1, 1, -0.5)
        for n in range(1, 8):
            value = extremal_log_coefficient(params, n)
            assert value.real > 0 and abs(value.imag) == 0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            extremal_log_coefficient(ClassParams(1, 1, 1, -1), 0)

    @pytest.mark.parametrize(
        "params",
        [
            ClassParams(1, 1, 1, -1),
            ClassParams(1, 2, 0.5, -0.25),
            ClassParams(2, 3, 0.8 + 0.3j, -0.75),
            ClassParams(0, 2, 1, 0),
        ],
        ids=str,
    )
    def test_matches_pipeline(self, params):
        member = extremal_function(params, 24 * params.m)
        d = log_coefficients(member)
        for n in range(1, d.n_terms + 1):
            assert abs(d[n - 1] - extremal_log_coefficient(params, n)) <= 1e-11


class TestSums:
    def test_single_term(self):
        assert sum_sq(LogCoeffVector((0.5,), 1)) == 0.25

    def test_koebe_partial_harmonic_squares(self):
        member = extremal_function(ClassParams(1, 1, 1, -1), 100)
        oracle = math.fsum(1.0 / n**2 for n in range(1, 101))
        assert abs(sum_sq(log_coefficients(member)) - oracle) <= 1e-10
        assert abs(oracle - 1.634984) <= 1e-6

    def test_empty_like_vector(self):
        zeros = LogCoeffVector((0j, 0j, 0j), 2)
        assert sum_sq(zeros) == 0.0
        assert sum_n2(zeros) == 0.0
        assert sum_weighted(zeros, 1.0) == 0.0

    def test_sum_n2_direct(self):
        assert abs(sum_n2(LogCoeffVector((0.5, 0.25), 1)) - 0.5) <= 1e-15

    def test_sum_n2_geometric_limit(self):
        # extremal (1,1,1,-1/2): sum n^2 |d_n|^2 -> |A-B|^2 B^2/(4 B^2 (1-B^2)) = 3/4
        member = extremal_function(ClassParams(1, 1, 1, -0.5), 64)
        assert abs(sum_n2(log_coefficients(member)) - 0.75) <= 1e-10

    def test_weighted_t0_equals_sum_sq(self):
        d = log_coefficients(extremal_function(ClassParams(1, 2, 0.8 + 0.3j, -0.75), 60))
        assert abs(sum_weighted(d, 0.0) - sum_sq(d)) <= 1e-15

    def test_weighted_single_term_t2(self):
        assert sum_weighted(LogCoeffVector((1.0,), 1), 2.0) == 4.0

    def test_weighted_direct(self):
        d = LogCoeffVector((0.5, 1 / 3), 1)
        assert abs(sum_weighted(d, 1.0) - 5 / 6) <= 1e-15

    def test_weight_range(self):
        with pytest.raises(WeightOutOfRange):
            sum_weighted(LogCoeffVector((1.0,), 1), 2.5)

    def test_partial_sum_monotone_in_order(self):
        params = ClassParams(1, 2, 1, -0.9)
        previous = (0.0, 0.0, 0.0)
        for order in (8, 16, 32, 64, 128):
            d = log_coefficients(extremal_function(params, order))
            current = (sum_sq(d), sum_n2(d), sum_weighted(d, 1.5))
            assert all(c >= p - 1e-15 for c, p in zip(current, previous))
            previous = current

    @pytest.mark.parametrize("t", [-1.0, 0.0, 0.5, 1.0, 2.0])
    def test_sums_equal_their_np_sum_forms_bitwise(self, t):
        d = log_coefficients(member_from_seed(ClassParams(1, 2, 0.8 + 0.3j, -0.9), Rotation(0.7), 300))
        sq = np.abs(d.d) ** 2
        n = np.arange(1, d.n_terms + 1)
        assert sum_sq(d) == float(np.sum(sq))
        assert sum_n2(d) == float(np.sum(n**2.0 * sq))
        assert sum_weighted(d, t) == float(np.sum((n + 1.0) ** t * sq))

    def test_rotation_preserves_moduli(self):
        params = ClassParams(1, 3, 0.5, -0.6)
        base = log_coefficients(member_from_seed(params, Identity(), 45))
        rotated = log_coefficients(member_from_seed(params, Rotation(2.1), 45))
        for b, r in zip(base.d, rotated.d):
            assert abs(abs(b) - abs(r)) <= 1e-11


class TestLogCoeffVector:
    def test_tuple_input_becomes_complex_array(self):
        d = LogCoeffVector((0.5, 1, 0.25j), 2)
        assert isinstance(d.d, np.ndarray) and d.d.dtype == np.complex128
        assert d.d.tolist() == [0.5, 1, 0.25j]
        assert d.n_terms == 3 and d[2] == 0.25j

    def test_read_only_and_detached_from_input(self):
        source = np.array([0.5, 0.25], dtype=np.complex128)
        d = LogCoeffVector(source, 1)
        source[0] = 7.0
        assert d[0] == 0.5
        with pytest.raises(ValueError):
            d.d[0] = 1.0

    def test_abs_sq_is_cached_and_read_only(self):
        d = LogCoeffVector(np.array([0.5, 0.25j, 1 - 1j]), 1)
        assert d.abs_sq is d.abs_sq
        assert d.abs_sq.tobytes() == (np.abs(d.d) ** 2).tobytes()
        with pytest.raises(ValueError):
            d.abs_sq[0] = 0.0

    def test_read_only_input_is_copied_so_the_caller_cannot_change_it(self):
        # the caller keeps its handle and may turn writing back on
        a = np.array([1, 2, 3], dtype=np.complex128)
        a.flags.writeable = False
        d = LogCoeffVector(a, 1)
        assert sum_sq(d) == 14.0
        a.flags.writeable = True
        a[0] = 100
        assert d.d.tolist() == [1, 2, 3]
        assert sum_sq(d) == 14.0 == float((np.abs(d.d) ** 2).sum())
