"""Adversarial extremal search: determinism and expected argmax location."""

import math

import numpy as np
import pytest

from starlog import search
from starlog.bounds import thm_a_bound
from starlog.errors import ConfigError, InvalidSeed
from starlog.logcoeffs import log_coefficients, sum_sq
from starlog.members import ClassParams, ExpDamp, Polynomial, member_from_seed, suggested_order
from starlog.search import FAMILIES, adversarial_search


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
    with pytest.raises(ConfigError):
        adversarial_search(ClassParams(1, 1, 1, -0.5), "mystery", budget=10)


def test_budget_below_one_rejected():
    with pytest.raises(ConfigError):
        adversarial_search(ClassParams(1, 1, 1, -0.5), "expdamp", budget=0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("B", [-0.5, -0.9])
def test_recorded_ratios_equal_the_member_pipeline_bitwise(monkeypatch, family, B):
    """Each ratio the search scores straight off the Toeplitz solve is the
    plain-squares ratio of the seed's member, to the last bit."""
    params = ClassParams(1, 2, 0.8 + 0.3j, B)
    order = suggested_order(params)
    recorded = []
    ratio_fn = search._ratio_fn

    def spy(*args):
        ratio = ratio_fn(*args)

        def recording(seed):
            r = ratio(seed)
            recorded.append((seed, r))
            return r

        return recording

    monkeypatch.setattr(search, "_ratio_fn", spy)
    report = adversarial_search(params, family, budget=300, rng_seed=5)
    assert len(recorded) == report.evaluations > 64
    bound = thm_a_bound(params)
    for seed, ratio in recorded:
        assert ratio == sum_sq(log_coefficients(member_from_seed(params, seed, order))) / bound


@pytest.mark.parametrize(
    "make_seed, x",
    [
        (search._poly_seed, [0.1, math.nan, 0, 0, 0, 0, 0, 0]),
        (search._expdamp_seed, [math.nan, 1.0]),
        (search._expdamp_seed, [0.5, math.nan]),
    ],
)
def test_nan_coordinate_raises_invalid_seed(make_seed, x):
    with pytest.raises(InvalidSeed):
        make_seed(np.array(x))


@pytest.mark.parametrize("order", [None, 14])
def test_report_records_truncation_order(order):
    params = ClassParams(1, 2, 1, -0.5)
    report = adversarial_search(params, "expdamp", budget=5, order=order)
    assert report.order == (order or suggested_order(params))
