"""The w = z^m pipeline against the z-level route it replaced.

Members and log coefficients run every recursion on series in w = z^m at
length N_d = floor(N/m).  The oracle below spells out the z-level route at
length N (compose_power, div, integrate_over_t, exp_series, log_series),
which must agree to 1e-12 relative.
"""

import sys

import numpy as np
import pytest

import starlog.series as series_mod
from starlog.logcoeffs import log_coefficients
from starlog.members import (
    ClassParams,
    ExpDamp,
    Identity,
    Polynomial,
    Rotation,
    extremal_function,
    member_from_seed,
    seed_series,
)
from starlog.search import adversarial_search
from starlog.series import (
    div,
    exp_series,
    from_coeffs,
    integrate_over_t,
    log_series,
    one,
    scale,
)
from starlog.verify import check_sharpness, verify_member
from zlevel import compose_power, ratio_series

REL = 1e-12
PAIRS = [(1, 2), (0, 4), (2, 4)]  # m = 2, 3, 5
SEEDS = [Identity(), Rotation(1.1), ExpDamp(0.4, 1.5), Polynomial((0.4, 0.3j, -0.2))]
BS = [0.0, -0.5, -0.9, -1.0]


def _orders(m):
    return [9 * m, 9 * m + m - 1]  # divisible by m, and not


CASES = [
    (ClassParams(j, k, 0.8 + 0.3j, B), order)
    for j, k in PAIRS
    for B in BS
    for order in _orders(j + k - 1)
]


def _case_id(case):
    params, order = case
    return f"m{params.m}-B{params.B:g}-N{order}"


def z_level_ratio(params, seed, order):
    """f/z through the recursions at length N on the z-level."""
    V = compose_power(seed_series(seed, order), params.m, order)
    P = div(scale(V, params.A - params.B), one(order) + scale(V, params.B))
    return exp_series(integrate_over_t(P))


def z_level_extremal_ratio(params, order):
    """e^{A z^m / m} for B = 0, (1 + B z^m)^{(A-B)/(mB)} otherwise."""
    m = params.m
    if params.B == 0.0:
        return exp_series(compose_power(from_coeffs([0, params.A / m]), m, order))
    base = one(order) + compose_power(from_coeffs([0, params.B]), m, order)
    p = (params.A - params.B) / (m * params.B)
    return exp_series(scale(log_series(base), p))


def z_level_log_coefficients(ratio, m):
    L = log_series(ratio)
    return np.array([L[n * m] / 2.0 for n in range(1, ratio.order // m + 1)])


def assert_close(got, expected):
    got = np.asarray(got, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= REL * np.max(np.abs(expected))


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: s.label())
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_member_matches_z_level_route(case, seed):
    params, order = case
    member = member_from_seed(params, seed, order)
    ratio = z_level_ratio(params, seed, order)
    assert_close(ratio_series(member).coeffs, ratio.coeffs)
    assert_close(log_coefficients(member).d, z_level_log_coefficients(ratio, params.m))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_extremal_matches_z_level_route(case):
    params, order = case
    member = extremal_function(params, order)
    ratio = z_level_extremal_ratio(params, order)
    assert_close(ratio_series(member).coeffs, ratio.coeffs)
    assert_close(log_coefficients(member).d, z_level_log_coefficients(ratio, params.m))


def _spy(monkeypatch, name):
    """Record the orders (lengths - 1) of the first arguments of
    `starlog.series.<name>`, under every starlog module name it is bound to."""
    seen = []
    real = getattr(series_mod, name)

    def spy(a, *args, **kwargs):
        seen.append(len(a) - 1)
        return real(a, *args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("starlog") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("order", [30, 32])
def test_recursions_run_at_w_level_length(monkeypatch, order):
    params = ClassParams(1, 3, 0.8 + 0.3j, -0.9)  # m = 3, N_d = 10
    n_d = order // params.m
    solve_orders = _spy(monkeypatch, "_solve_toeplitz")
    exp_orders = _spy(monkeypatch, "exp_series")
    log_orders = _spy(monkeypatch, "log_series")
    member = member_from_seed(params, ExpDamp(0.4, 1.5), order)
    d = log_coefficients(member)
    assert solve_orders == [n_d]
    assert d.n_terms == n_d and len(member.d) == n_d
    assert member.order == order
    assert exp_orders == [] and log_orders == []


def test_d_n_path_runs_no_exp_or_log(monkeypatch):
    """verify_member, check_sharpness and adversarial_search read d_n off log(f/z)."""
    exp_orders = _spy(monkeypatch, "exp_series")
    log_orders = _spy(monkeypatch, "log_series")
    params = ClassParams(1, 2, 0.8 + 0.3j, -0.5)
    assert all(row.passed for row in verify_member(member_from_seed(params, ExpDamp(0.4, 1.5), 40)))
    assert check_sharpness(params).passed
    for family in ("expdamp", "poly"):
        adversarial_search(params, family, 20, 0)
    assert exp_orders == [] and log_orders == []
