"""Adversarial extremal search: determinism and expected argmax location."""

import pytest

from starlog.members import ClassParams, ExpDamp, Polynomial, suggested_order
from starlog.search import adversarial_search


def test_expdamp_finds_identity_corner():
    report = adversarial_search(ClassParams(1, 1, 1, -0.5), "expdamp", budget=2000, rng_seed=0)
    assert 1 - 1e-6 <= report.max_ratio <= 1 + 1e-9
    assert isinstance(report.best_seed, ExpDamp)
    assert report.best_seed.c <= 1e-3
    assert report.converged


def test_b_zero_single_coefficient_case():
    report = adversarial_search(ClassParams(1, 2, 1, 0), "expdamp", budget=600, rng_seed=0)
    assert abs(report.max_ratio - 1.0) <= 1e-9
    assert report.best_seed.c <= 1e-3


def test_polynomial_family_stays_bounded():
    report = adversarial_search(ClassParams(1, 1, 1, -0.5), "poly", budget=800, rng_seed=3)
    assert report.max_ratio <= 1 + 1e-9
    assert isinstance(report.best_seed, Polynomial)


def test_budget_one_flags_nonconvergence():
    report = adversarial_search(ClassParams(1, 2, 1, -0.25), "expdamp", budget=1, rng_seed=0)
    assert report.evaluations == 1
    assert not report.converged
    assert report.max_ratio <= 1 + 1e-9


def test_deterministic_given_seed_and_budget():
    a = adversarial_search(ClassParams(1, 1, 1, -0.5), "poly", budget=300, rng_seed=11)
    b = adversarial_search(ClassParams(1, 1, 1, -0.5), "poly", budget=300, rng_seed=11)
    assert a.max_ratio == b.max_ratio
    assert a.best_seed == b.best_seed
    assert a.evaluations == b.evaluations


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        adversarial_search(ClassParams(1, 1, 1, -0.5), "mystery", budget=10)


@pytest.mark.parametrize("order", [None, 14])
def test_report_records_truncation_order(order):
    params = ClassParams(1, 2, 1, -0.5)
    report = adversarial_search(params, "expdamp", budget=5, order=order)
    assert report.order == (order or suggested_order(params))
