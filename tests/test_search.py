"""Adversarial extremal search: determinism and expected argmax location."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starlog import members, search
from starlog.bounds import _weighted_series, thm_a_bound
from starlog.errors import ConfigError, InvalidSeed, TruncationTooSmall
from starlog.logcoeffs import sum_sq
from starlog.members import ClassParams, ExpDamp, Polynomial, log_order, member_from_seed
from starlog.members import suggested_order, unit_log_coefficients
from starlog.search import FAMILIES, adversarial_search

from proofchain import log_coefficients


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


def _record_scores(monkeypatch) -> list:
    """Make the search record each (ratio, seed args) it scores, one at a time
    or in a batch, in the order it scores them."""
    scored = []
    scorer = search._scorer

    def spy(*args):
        score, score_all = scorer(*args)

        def recording(x):
            scored.append(score(x))
            return scored[-1]

        def recording_all(xs):
            batch = score_all(xs)
            assert len(batch) == len(xs)
            scored.extend(batch)
            return batch

        return recording, recording_all

    monkeypatch.setattr(search, "_scorer", spy)
    return scored


# (k, B, order) at j = 1 over the edges of the solve: N_d = 22 and 150 (m = 2),
# one block; N_d = 22 at m = 4, an order of 88 over 23 rows; B = 0, the divisor
# 1; N_d = 1, 2, 3, below the poly seed's degree; B = -0.99, N_d = 1685, three
# blocks of a band-4 solve.  Every poly grid starts at 8 corner seeds, p_2 = p_3
# = p_4 = 0, whose member's band scan finds 1.
_SOLVE_EDGES = [
    pytest.param(2, -0.5, None, id="-0.5"),
    pytest.param(2, -0.9, None, id="-0.9"),
    pytest.param(4, -0.5, None, id="m4-full-width"),
    pytest.param(2, 0.0, None, id="B0"),
    pytest.param(2, -0.5, 2, id="Nd1"),
    pytest.param(2, -0.5, 4, id="Nd2"),
    pytest.param(2, -0.5, 6, id="Nd3"),
    pytest.param(2, -0.99, None, id="three-blocks"),
]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k, B, order", _SOLVE_EDGES)
def test_recorded_ratios_equal_the_member_pipeline_bitwise(monkeypatch, family, k, B, order):
    """Each ratio the search scores off its reused buffers is the sum of the
    seed's |q_n|^2 over K(B), to the last bit, and the plain-squares ratio of
    the seed's member to rounding."""
    params = ClassParams(1, k, 0.8 + 0.3j, B)
    order = order or suggested_order(params)
    n_d = log_order(params, order)
    seed_of = {"expdamp": ExpDamp, "poly": Polynomial}[family]
    scored = _record_scores(monkeypatch)
    report = adversarial_search(params, family, budget=300, rng_seed=5, order=order)
    assert len(scored) == report.evaluations > 64
    kernel, bound = _weighted_series(B, 0.0), thm_a_bound(params)
    for ratio, seed_args in scored:
        seed = seed_of(*seed_args)
        assert ratio == float((np.abs(unit_log_coefficients(B, seed, n_d)) ** 2).sum()) / kernel
        member = member_from_seed(params, seed, order)
        assert ratio == pytest.approx(sum_sq(log_coefficients(member)) / bound, rel=1e-14, abs=0)
    if family == "poly":
        assert sum(not any(args[0][1:]) for _, args in scored) >= 8


#: (j, k) pairs of m = 1, 1, 2, 2, 4, 4 and 6
_PAIRS = [(1, 1), (0, 2), (1, 2), (0, 3), (2, 3), (1, 4), (3, 4)]
_A_VALUES = [1.0, 0.5, 0.8 + 0.3j, 1e4, -0.2 + 1e-3j, 3700 + 1100j]


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    B=st.sampled_from([0.0, -0.5, -0.9, -1.0]) | st.floats(-1.0, 0.0),
    n_d=st.integers(1, 60),
    points=st.lists(st.tuples(st.sampled_from(_PAIRS), st.sampled_from(_A_VALUES)),
                    min_size=2, max_size=3),
    budget=st.integers(1, 150),
    rng_seed=st.integers(0, 20),
)
def test_report_depends_on_b_and_n_d_alone(family, B, n_d, points, budget, rng_seed):
    """Every (j, k, A) at one (B, N_d) gets the same report, to the bit, but for
    its order m N_d: G cancels from the ratio, and m enters only through N_d."""
    reports = []
    for (j, k), A in points:
        params = ClassParams(j, k, A, B)
        report = adversarial_search(params, family, budget, rng_seed, order=params.m * n_d)
        assert report.order == params.m * n_d
        reports.append((report.max_ratio.hex(), report.evaluations, report.best_seed,
                        report.best_seed.sort_key(), report.converged))
    assert reports.count(reports[0]) == len(reports)


@pytest.mark.parametrize(
    "family, x",
    [
        ("poly", [0.1, math.nan, 0, 0, 0, 0, 0, 0]),
        ("expdamp", [math.nan, 1.0]),
        ("expdamp", [0.5, math.nan]),
    ],
)
def test_nan_coordinate_raises_invalid_seed(monkeypatch, family, x):
    """The family writer checks the seed's certificate on every evaluation:
    a NaN point that the refinement steps to fails it mid-search."""

    def refine(f, f_all, x0, maxfev, xatol, fatol):
        f(x0)
        f(np.array(x))

    def refine_all(f, f_all, x0, maxfev, xatol, fatol):
        f_all(np.stack([x0, x0 + 0.01, np.array(x)]))

    for refinement in (refine, refine_all):  # the point alone, and in a batch
        monkeypatch.setattr(search, "_nelder_mead", refinement)
        with pytest.raises(InvalidSeed):
            adversarial_search(ClassParams(1, 2, 1, -0.5), family, budget=100)
    # the aborted search's buffers die with it: the next search reports as pinned
    monkeypatch.undo()
    test_report_is_pinned(*next(p for p in _PINNED if p[0][0] == family))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "kwargs",
    [
        {"budget": 10.0},
        {"budget": math.inf},
        {"budget": True},
        {"rng_seed": -1},
        {"rng_seed": 1.0},
        {"order": 3.5},
        {"order": True},
    ],
    ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
)
def test_non_integer_or_negative_arguments_rejected(family, kwargs):
    with pytest.raises(ConfigError):
        adversarial_search(ClassParams(1, 2, 1, -0.5), family, **kwargs)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("order", [-1, 0, 1])
def test_order_below_m_raises_truncation_too_small(family, order):
    # m = 2: order 1 would leave N_d = 0 coefficients
    with pytest.raises(TruncationTooSmall):
        adversarial_search(ClassParams(1, 2, 1, -0.5), family, budget=100, order=order)


def test_numpy_integer_arguments_accepted():
    args = (ClassParams(1, 2, 1, -0.5), "poly")
    report = adversarial_search(*args, np.int64(60), np.int64(3), order=np.int64(14))
    assert report == adversarial_search(*args, 60, 3, order=14)


@pytest.mark.parametrize("order", [None, 14])
def test_report_records_truncation_order(order):
    params = ClassParams(1, 2, 1, -0.5)
    report = adversarial_search(params, "expdamp", budget=5, order=order)
    assert report.order == (order or suggested_order(params))


# `_nelder_mead` retraces scipy's Nelder-Mead: the same points in the same
# order, bit for bit, the same number of calls and the same success flag.


def _rastrigin(x):
    """Many local minima: a run that shrinks simplices whose vertices are far
    apart, where how the shrink's midpoints are rounded shows."""
    return 20.0 + float(np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


_PLATEAU_X0 = np.array([0.3, -0.7])


def _plateau(x):
    """Lowest only at the start point, so every step is a reflection, an
    inside contraction and an n-point shrink: n + 2 calls."""
    return 0.0 if np.array_equal(x, _PLATEAU_X0) else 1.0


# the poly search's score at B = -0.9 and N_d = 150, `suggested_order`'s there
_POLY_SCORE, _POLY_SCORE_ALL = search._scorer(-0.9, "poly", 150)


def _poly_objective(x):
    return -_POLY_SCORE(x)[0]


def _poly_objectives(xs):
    return [-ratio for ratio, _ in _POLY_SCORE_ALL(xs)]


_PROJECTED_X0 = np.array([1.0, 0.5, 0, 0, 0, 0, 0, 0])


def _poly_sum(x) -> float:
    """sum |p_i| of a poly search point x = (re p_1, im p_1, ...)."""
    return float(np.abs(x[0::2] + 1j * x[1::2]).sum())


def _recording(f, f_all=None):
    """(points, f, f_all) that record each point scored, in order; f_all by
    default scores the points one at a time."""
    points = []

    def recorded(x):
        points.append(np.array(x, dtype=float))
        return f(x)

    def recorded_all(xs):
        points.extend(np.array(x, dtype=float) for x in xs)
        values = f_all(xs) if f_all else [f(x) for x in xs]
        assert values == [f(x) for x in xs]  # a batch scores each point as f does
        return values

    return points, recorded, recorded_all


@pytest.mark.parametrize(
    "f, x0, maxfev, converges",
    [
        (_rastrigin, np.array([5.0, 0.0]), 2000, True),
        # the same run capped at its own 117 calls: the cap is tested before
        # the tolerances, so a step that ends on the cap does not converge
        (_rastrigin, np.array([5.0, 0.0]), 117, False),
        # fill 3, one 4-call step, then the cap lands after the reflection,
        # the contraction and the first shrink point of the second step
        (_plateau, _PLATEAU_X0, 3 + 4 + 3, False),
        # the search's own objective from a corner seed, whose seven zero
        # coordinates are each stepped to 0.00025
        (_poly_objective, np.array([0.0, 1.0, 0, 0, 0, 0, 0, 0]), 300, False),
        # from outside the certified simplex (sum |p_i| = 1.118), where most of a
        # search's evaluations land: every point is projected, and points on one
        # ray project to one seed, so vertices tie; it converges in 987 calls
        (_poly_objective, _PROJECTED_X0, 2000, True),
    ],
    ids=["converges", "cap-at-step-end", "cap-inside-shrink", "zero-coordinates", "projected"],
)
def test_nelder_mead_retraces_scipy_bitwise(f, x0, maxfev, converges):
    from scipy.optimize import minimize

    ours, f_ours, f_all_ours = _recording(f, _poly_objectives if f is _poly_objective else None)
    converged, calls = search._nelder_mead(f_ours, f_all_ours, x0, maxfev, xatol=1e-10, fatol=1e-13)
    theirs, f_theirs, _ = _recording(f)
    options = {"maxfev": maxfev, "xatol": 1e-10, "fatol": 1e-13}
    res = minimize(f_theirs, x0, method="Nelder-Mead", options=options)

    assert calls == len(ours) == res.nfev == len(theirs)
    assert converged is res.success is converges
    assert np.stack(ours).tobytes() == np.stack(theirs).tobytes()
    assert converges or calls == maxfev
    for k in np.flatnonzero(x0 == 0):
        assert ours[k + 1][k] == 0.00025
    if x0 is _PROJECTED_X0:
        assert all(_poly_sum(x) > 1.0 for x in ours)
        values = [f(x) for x in ours]
        assert len(values) - len(set(values)) == 422  # values that repeat one before them


def _corner(p1):
    return Polynomial(coeffs=(p1, 0j, 0j, 0j))


# Reports as scipy's Nelder-Mead gives them, scoring sum |q_n|^2 / K(B), for a
# slice of (family, B, k, rng seed, budget) at j = 1, A = 0.8+0.3i: a budget spent
# in the grid, in the initial simplex, at a reflection, at a contraction, inside a
# shrink and at the end of a step, and runs that converge.
_PINNED = [
    (
        ("expdamp", 0.0, 1, 0, 50),
        (32, 50, "0x1.0000000000002p+0", ExpDamp(theta=3.9269908169872414, c=0.0), False),
    ),
    (
        # the last shrink point ends the step
        ("expdamp", 0.0, 1, 0, 200),
        (32, 200, "0x1.0000000000002p+0", ExpDamp(theta=3.9269908169872414, c=0.0), False),
    ),
    (
        ("expdamp", -0.5, 1, 0, 2000),
        (22, 228, "0x1.0000000000001p+0", ExpDamp(theta=3.9269908169872414, c=0.0), True),
    ),
    (
        # the run above, its budget ending on the step that met the tolerances
        ("expdamp", -0.5, 1, 0, 228),
        (22, 228, "0x1.0000000000001p+0", ExpDamp(theta=3.9269908169872414, c=0.0), False),
    ),
    (
        # the same run, its budget ending inside a shrink
        ("expdamp", -0.5, 1, 0, 199),
        (22, 199, "0x1.0000000000001p+0", ExpDamp(theta=3.9269908169872414, c=0.0), False),
    ),
    (
        # after a reflection, before its contraction
        ("expdamp", -0.9, 1, 0, 200),
        (150, 200, "0x1.0000000000002p+0", ExpDamp(theta=3.9269908169872414, c=0.0), False),
    ),
    (
        # after a failed contraction, before the shrink
        ("expdamp", -0.99, 4, 2, 200),
        (6740, 200, "0x1.0000000000000p+0", ExpDamp(theta=3.9269848252748054, c=0.0), False),
    ),
    (
        ("poly", -0.5, 4, 1, 50),
        (88, 50, "0x1.ffffffffffffep-1", _corner(-1 + 1.2246467991473532e-16j), False),
    ),
    (
        ("poly", -0.9, 2, 3, 2000),
        (300, 1154, "0x1.0000000000000p+0", _corner(-1 + 1.2246467991473532e-16j), True),
    ),
    (
        ("poly", -1.0, 1, 0, 200),
        (512, 200, "0x1.ff6485c57e373p-1", _corner(-1 + 1.2246467991473532e-16j), False),
    ),
    # the benchmark's search workload: m = 2 (k = 2), B = -0.5 and -0.9, rng seed 7,
    # budget 2000; every run converges
    (
        ("expdamp", -0.5, 2, 7, 2000),
        (44, 228, "0x1.0000000000001p+0", ExpDamp(theta=3.9269908169872414, c=0.0), True),
    ),
    (
        ("expdamp", -0.9, 2, 7, 2000),
        (300, 249, "0x1.0000000000002p+0", ExpDamp(theta=3.9269908169872414, c=0.0), True),
    ),
    (
        ("poly", -0.5, 2, 7, 2000),
        (44, 1082, "0x1.ffffffffffffep-1", _corner(-1 + 1.2246467991473532e-16j), True),
    ),
    (
        ("poly", -0.9, 2, 7, 2000),
        (300, 1154, "0x1.0000000000000p+0", _corner(-1 + 1.2246467991473532e-16j), True),
    ),
    # where the poly search's held solve changes shape: N_d = 1, 2 and 3 (orders 2, 4
    # and 6 at m = 2), below the seed's degree 4, and three blocks of the band-4
    # solve at B = -0.99 (N_d = 1685)
    (
        ("poly", -0.9, 2, 7, 2000, 2),
        (2, 1094, "0x1.7ab43e26a09cbp-1", _corner(-1 + 1.2246467991473532e-16j), True),
    ),
    (
        ("poly", -0.9, 2, 7, 2000, 4),
        (4, 1164, "0x1.c764430e730e6p-1", _corner(-1 + 1.2246467991473532e-16j), True),
    ),
    (
        ("poly", -0.9, 2, 7, 2000, 6),
        (6, 1157, "0x1.e2ffc9f143efap-1", _corner(-1 + 1.2246467991473532e-16j), True),
    ),
    (
        ("poly", -0.99, 2, 7, 2000),
        (3370, 1176, "0x1.ffffffffffffcp-1", _corner(-1 + 1.2246467991473532e-16j), True),
    ),
    # the benchmark's poly run at B = -0.9 cut short where the points are scored in
    # batches: inside the grid (48 points), inside the initial simplex (9) and after
    # 4 of the first shrink's 8 points
    (
        ("poly", -0.9, 2, 7, 30),
        (300, 30, "0x1.0000000000000p+0", _corner(-1 + 1.2246467991473532e-16j), False),
    ),
    (
        ("poly", -0.9, 2, 7, 52),
        (300, 52, "0x1.0000000000000p+0", _corner(-1 + 1.2246467991473532e-16j), False),
    ),
    (
        ("poly", -0.9, 2, 7, 639),
        (300, 639, "0x1.0000000000000p+0", _corner(-1 + 1.2246467991473532e-16j), False),
    ),
]


@pytest.mark.parametrize("config, pinned", _PINNED, ids=["-".join(map(str, c)) for c, _ in _PINNED])
def test_report_is_pinned(config, pinned):
    family, B, k, rng_seed, budget, *order = config  # an order, where not suggested_order's
    report = adversarial_search(ClassParams(1, k, 0.8 + 0.3j, B), family, budget, rng_seed, *order)
    order, evaluations, max_ratio, best_seed, converged = pinned
    assert (report.order, report.evaluations) == (order, evaluations)
    assert report.max_ratio.hex() == max_ratio
    assert report.best_seed == best_seed
    assert report.converged is converged


@pytest.mark.parametrize("family", FAMILIES)
def test_seed_built_only_for_a_new_best_or_a_tie(monkeypatch, family):
    seed_type, write = search._FAMILY[family]
    built = []

    def counting(*args):
        built.append(seed_type(*args))
        return built[-1]

    monkeypatch.setitem(search._FAMILY, family, (counting, write))
    scored = _record_scores(monkeypatch)
    report = adversarial_search(ClassParams(1, 2, 0.8 + 0.3j, -0.9), family, budget=300, rng_seed=5)
    # the first evaluation, then each that reaches the best ratio before it
    ratios = np.array([ratio for ratio, _ in scored])
    new_best_or_tie = ratios[1:] >= np.maximum.accumulate(ratios)[:-1]
    assert len(built) == 1 + np.count_nonzero(new_best_or_tie) < report.evaluations / 8
    assert any(seed is report.best_seed for seed in built)


@pytest.mark.parametrize("family", FAMILIES)
def test_searches_share_no_buffers(family):
    """A search's solve buffers live and die with it: a search at another m,
    B and order in between leaves the report of a repeated search unchanged."""
    x = (ClassParams(1, 2, 0.8 + 0.3j, -0.9), family, 300, 5)
    first = adversarial_search(*x)
    adversarial_search(ClassParams(1, 4, 1, -0.99), family, 300, 2, order=4 * 900)
    again = adversarial_search(*x)
    assert again == first and again.max_ratio.hex() == first.max_ratio.hex()


# numpy sums |p_i| here to 1.7004611693668328, Python's abs and sum to 1.7004611693668332
_TWO_SUMS_POINT = [0.24686038564983792, 0.2522234183692774, 0.06697787445291226,
                   0.42107967728292994, 0.0, 0.35090112459165146, -0.3310126886729138,
                   0.4643577208942796]


@pytest.mark.parametrize("scale, totals", [(1.0, 2), (0.5, 1)], ids=["projected", "inside"])
def test_poly_certificate_reads_the_total_of_the_coefficients_written(monkeypatch, scale, totals):
    """One numpy total per set of coefficients: the projection reads the
    point's, and the certificate reads the total of what is written, the
    projected coefficients or the point's own, as `Polynomial` reads it."""
    read, certified = [], []

    def total(p, out):
        read.append(members._poly_total(p, out))
        assert out is mags  # each total's |p_i| go to the held buffer
        return read[-1]

    monkeypatch.setattr(search, "_poly_total", total)
    monkeypatch.setattr(search, "_check_poly", lambda t: certified.append(t) or members._check_poly(t))
    v, x, mags = np.zeros(5, dtype=np.complex128), np.array(_TWO_SUMS_POINT) * scale, np.empty(4)
    (coeffs,) = search._poly_point(v, x, mags)
    p = x[0::2] + 1j * x[1::2]
    assert read[0] == members._poly_total(p.tolist()) != sum(map(abs, p.tolist()))
    assert len(read) == totals and certified == read[-1:]
    assert tuple(v[1:].tolist()) == Polynomial(coeffs).coeffs == tuple(coeffs.tolist())
    assert certified[0] == members._poly_total(Polynomial(coeffs).coeffs) <= 1.0


@pytest.mark.parametrize(
    "coeffs, accepted",
    [
        ([0.5, 0.25j, -0.25, 0], True),  # a total of exactly 1: written as it is
        ([0.5 + 2e-12, 0.25j, -0.25, 0], False),  # past the 1e-12 slack: projected
        ([0.5, math.nan, 0, 0], False),
        ([0.5, math.inf, 0, 0], False),
    ],
    ids=["1", "1+2e-12", "nan", "inf"],
)
def test_polynomial_and_poly_point_certify_alike(coeffs, accepted):
    """`Polynomial` accepts coefficients whose total is at most 1 + 1e-12.
    The search point of them writes them as they are where `Polynomial`
    accepts them, projects a finite total above 1 and writes what
    `Polynomial` accepts, and rejects a total that is not finite."""
    v = np.zeros(5, dtype=np.complex128)
    x = np.array([part for c in map(complex, coeffs) for part in (c.real, c.imag)])  # re p_1, im p_1, ...
    if accepted:
        Polynomial(coeffs)
    else:
        with pytest.raises(InvalidSeed):
            Polynomial(coeffs)
    if math.isfinite(abs(sum(coeffs))):
        (written,) = search._poly_point(v, x, np.empty(4))
        assert Polynomial(written).coeffs == tuple(v[1:].tolist())
        assert (written.tolist() == [complex(c) for c in coeffs]) == accepted
    else:
        # a NaN total fails the certificate; an infinite one projects by inf * 0 to NaN
        with np.errstate(invalid="ignore"), pytest.raises(InvalidSeed):
            search._poly_point(v, x, np.empty(4))
        assert not v.any()  # nothing written


def test_poly_point_and_polynomial_read_one_total_bitwise(monkeypatch):
    """Over random points, about 40% of them projected, the total the search
    certifies is the total `Polynomial` reads for the same coefficients."""
    certified = []
    monkeypatch.setattr(search, "_check_poly", lambda t: certified.append(t) or members._check_poly(t))
    rng = np.random.default_rng(3)
    for x in rng.uniform(-0.5, 0.5, (400, 8)) * rng.uniform(0.2, 1.0, (400, 1)):
        (coeffs,) = search._poly_point(np.zeros(5, dtype=np.complex128), x, np.empty(4))
        assert certified[-1] == members._poly_total(Polynomial(coeffs).coeffs)
    assert 100 < sum(abs(t - (1.0 - 1e-12)) <= 1e-15 for t in certified) < 300  # projected


def _by_parts(x):
    """The coefficients of search point x built as x[0::2] + 1j * x[1::2], projected alike."""
    p = x[0::2] + 1j * x[1::2]
    total = members._poly_total(p)
    if total > 1.0:
        p *= (1.0 - 1e-12) / total
    return p


# `_poly_point` reads x as complex128 and copies it.  That differs from
# x[0::2] + 1j * x[1::2] only in the sign of a zero and at non-finite inputs:
# the sum adds 0 * im to each real part and +0.0 to each imaginary part, so a
# -0.0 imaginary part, and a -0.0 real part beside a nonnegative imaginary one,
# become +0.0, and an infinite or NaN imaginary part makes a NaN real one.
# A search never makes -0.0: its grid coordinates are +0.0 or nonzero, and
# every Nelder-Mead coordinate is a sum or difference of earlier ones and of
# their positive multiples (1.05, 2, 3, 1.5, 0.5, 1/n), or the step 0.00025.
# Rounded to nearest, a sum or difference is -0.0 only if an operand is -0.0,
# and a positive multiple of a nonzero double is nonzero unless it underflows,
# which needs a coordinate below about 1e-308.


def test_poly_point_writes_the_bits_of_the_parts_sum():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-0.5, 0.5, (3000, 8)) * rng.uniform(0.1, 1.2, (3000, 1))
    xs[::7, 2:] = 0.0  # corner seeds: p_2 = p_3 = p_4 = 0
    projected = 0
    for x in xs:  # each x a row of xs, as a vertex is a row of the simplex
        before = x.tobytes()
        v = np.zeros(5, dtype=np.complex128)
        (coeffs,) = search._poly_point(v, x, np.empty(4))
        assert coeffs.tobytes() == _by_parts(x).tobytes() == v[1:].tobytes()
        assert x.tobytes() == before  # a projection scales a copy
        projected += _poly_sum(x) > 1.0
    assert 1000 < projected < 2000

    # a -0.0 part: equal values, but the bits of the sum hold +0.0
    x = np.array([-0.0, 0.5, 0.25, -0.0, 0, 0, 0, 0])
    (coeffs,) = search._poly_point(np.zeros(5, dtype=np.complex128), x, np.empty(4))
    assert coeffs.tolist() == _by_parts(x).tolist()
    assert coeffs.tobytes() != _by_parts(x).tobytes()


def test_poly_point_rejects_a_non_finite_coordinate():
    for k in range(8):  # each real and imaginary part
        for value in (math.nan, math.inf, -math.inf):
            x = np.full(8, 0.1)
            x[k] = value
            v = np.zeros(5, dtype=np.complex128)
            # a NaN total fails the certificate; an infinite one projects by inf * 0 to NaN
            with np.errstate(invalid="ignore"), pytest.raises(InvalidSeed):
                search._poly_point(v, x, np.empty(4))
            assert not v.any()  # nothing written


# Points the search scores together, the grid, the initial simplex and each
# shrink, are solved as one stack on the poly solver's held buffers.


def _poly_xs(rng, k: int) -> np.ndarray:
    """k poly search points, about half of them outside the certified simplex
    and about a quarter corner seeds (p_2 = p_3 = p_4 = 0)."""
    xs = rng.uniform(-0.6, 0.6, (k, 8)) * rng.uniform(0.1, 1.2, (k, 1))
    xs[rng.random(k) < 0.25, 2:] = 0.0
    return xs


# N_d at the edges of the held solve: below the seed's degree (1, 2, 3), at it (4),
# about 150 and 80 points a stack (22, 44), the last N_d up to _BLOCK rows (63) and
# the first past it (64), and the last N_d whose band-4 plan is one block
_STACK_N_D = [1, 2, 3, 4, 22, 44, 63, 64, 150, 818]


@settings(max_examples=60, deadline=None)
@given(
    n_d=st.sampled_from(_STACK_N_D),
    B=st.sampled_from([0.0, -0.5, -0.9, -1.0]) | st.floats(-1.0, 0.0),
    size=st.sampled_from(["one", "cap", "cap-1"]) | st.floats(0.0, 1.0),
    rng_seed=st.integers(0, 2**32 - 1),
)
def test_batch_sums_equal_single_sums_bitwise(n_d, B, size, rng_seed):
    """sums(k) of k points written into the held rows is, point by point, the
    bits of sum_sq() of each point written into v, for every k up to the cap."""
    v, sum_sq, (heads, sums) = members._held_solver(B, n_d, search._POLY_DEGREE)
    cap = len(heads)
    k = {"one": 1, "cap": cap, "cap-1": max(cap - 1, 1)}.get(size) or 1 + int(size * (cap - 1))
    rng = np.random.default_rng(rng_seed)
    xs = _poly_xs(rng, k)
    singles = []
    for x in xs:
        search._poly_point(v, x, np.empty(4))
        singles.append(sum_sq())
    search._poly_points(heads, xs)
    batch = sums(k)
    assert [s.hex() for s in batch] == [s.hex() for s in singles]


@pytest.mark.parametrize("n_d", _STACK_N_D + [819, 1685])
def test_score_all_is_score_of_each_point_bitwise(n_d):
    """score_all of more points than one stack takes, so in several stacks, or
    one point at a time where the plan has more than one block (N_d >= 819),
    gives each point's ratio and coefficients as score does, to the bit."""
    score, score_all = search._scorer(-0.9, "poly", n_d)
    heads = members._held_solver(-0.9, n_d, search._POLY_DEGREE)[2]
    xs = _poly_xs(np.random.default_rng(n_d), min(2 * len(heads) + 1, 60) if heads else 20)
    want = [score(x) for x in xs]
    got = score_all(list(xs))  # a list of points, as the grid is
    assert [r.hex() for r, _ in got] == [r.hex() for r, _ in want]
    assert [args[0].tobytes() for _, args in got] == [args[0].tobytes() for _, args in want]


# A stack's `ztbsv` runs each column's update h = 4 entries long, where a point's
# own solve has shorter ones in its last columns.  This point, stacked at N_d = 22
# over a dense band of 22, rounds its sum otherwise than alone (OpenBLAS rounds an
# update of 16 or more entries otherwise than a shorter one); on its band-4 stack
# it keeps the single solve's bits.
_STACKED_POINT = [-0.042, -0.0847, -0.234, 0.195, -0.0492, -0.0023, 0.27, -0.268]


def test_stacked_points_keep_the_single_solve_bits():
    v, sum_sq, (heads, sums) = members._held_solver(-0.9, 22, search._POLY_DEGREE)
    xs = np.array([_STACKED_POINT, _STACKED_POINT])
    search._poly_point(v, xs[0], np.empty(4))
    single = sum_sq()
    search._poly_points(heads, xs)
    assert [s.hex() for s in sums(2)] == [single.hex()] * 2


def test_poly_points_write_each_point_as_poly_point():
    """The batch writer projects, certifies and writes every point as
    `_poly_point` does: the same coefficient bits, also for -0.0 parts, and a
    point it cannot certify fails the whole batch before anything is solved."""
    rng = np.random.default_rng(17)
    xs = _poly_xs(rng, 400)
    xs[::50, 0] = -0.0
    heads = np.zeros((400, 4), dtype=np.complex128)
    written = search._poly_points(heads, xs)
    for x, (coeffs,), head in zip(xs, written, heads):
        v = np.zeros(5, dtype=np.complex128)
        (want,) = search._poly_point(v, x, np.empty(4))
        assert coeffs.tobytes() == want.tobytes() == head.tobytes() == v[1:].tobytes()
    heads = np.zeros((3, 2), dtype=np.complex128)  # N_d = 2: v_1, v_2 of each point
    search._poly_points(heads, xs[:3])
    assert heads.tobytes() == np.array([c[:2] for (c,) in written[:3]]).tobytes()
    for value in (math.nan, math.inf):
        bad = xs[:3].copy()
        bad[1, 3] = value
        heads = np.zeros((3, 4), dtype=np.complex128)
        with np.errstate(invalid="ignore"), pytest.raises(InvalidSeed):
            search._poly_points(heads, bad)
        assert not heads.any()  # nothing written


# The held solves scale x_n by 1/n as one float64 multiply of x's parts, where
# `unit_log_coefficients` divides by n.  numpy's complex-by-real division is that
# same product (Smith's, with ratio 0) but for the sign of a zero part, so every
# finite |q_n|^2 keeps its bits: checked here where q holds zeros, -0.0 parts,
# subnormals and huge values.  (A non-finite x_n is another matter: the division
# reads inf i as NaN + inf i, the product keeps it; no certified seed reaches it.)


class _Written(members.SchwarzSeed):
    """Coefficients written as they are, without a certificate: the solve at its edges."""

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def write(self, cs: np.ndarray) -> None:
        members._write_poly(cs, self.coeffs)


def _unit_sum(B: float, seed, n_d: int) -> float:
    return float((np.abs(unit_log_coefficients(B, seed, n_d)) ** 2).sum())


# re or im parts: signed zeros, a square below the normal range (1e-160), a
# subnormal, and a tiny part whose square is 0 (1e-200)
_EDGE_PARTS = [0.0, -0.0, 1e-200, -1e-160, 2.5e-310, 5e-324]


@settings(max_examples=80, deadline=None)
@given(
    n_d=st.sampled_from(_STACK_N_D + [819, 4096]),
    B=st.sampled_from([0.0, -0.5, -0.9, -1.0]) | st.floats(-1.0, 0.0),
    # parts within 0.17 keep sum |p_i| below 1, as the certificate does: else 1 + Bv can
    # vanish inside the disk, and q overflows long before N_d = 4096
    points=st.lists(
        st.lists(st.sampled_from(_EDGE_PARTS) | st.floats(-0.17, 0.17), min_size=8, max_size=8),
        min_size=1, max_size=4,
    ),
    huge=st.booleans(),
)
def test_held_sums_keep_the_bits_of_the_divided_q(n_d, B, points, huge):
    """sum_sq() and sums(k), for any poly coefficients, give the bits of the sum
    of |q_n|^2 of `unit_log_coefficients`, whose q is x_n / n."""
    coeffs = np.array(points).view(np.complex128)
    if huge:  # at B = 0, u = v: q_n = v_n / n up to 1e150, |q_n|^2 up to 1e300
        B, coeffs = 0.0, coeffs * 1e150
    v, sum_sq, stack = members._held_solver(B, n_d, search._POLY_DEGREE)
    want = [_unit_sum(B, _Written(p), n_d).hex() for p in coeffs]
    singles = []
    for p in coeffs:
        members._write_poly(v, p)
        singles.append(sum_sq().hex())
    assert singles == want
    if stack is not None:
        heads, sums = stack
        heads[: len(coeffs)] = coeffs[:, : heads.shape[1]]
        assert [s.hex() for s in sums(len(coeffs))] == want


@pytest.mark.parametrize(
    "B, seed, n_d",
    [
        (-0.9, _Written([0.5, 1e-200, 0, 0.25j]), 22),
        (-0.9, _Written([0.5, 1e-200j, 0, 0.25j]), 150),
        (-0.5, _Written([complex(-0.0, 0.5), complex(0.25, -0.0), 0, 0]), 22),
        (-0.5, _Written([complex(-0.0, 0.5), complex(0.25, -0.0), 0, 0]), 150),
        # e^{-c} c^i / i! falls below the smallest normal double from i = 104 on
        (-0.9, ExpDamp(0.3, 0.05), 300),
        (-1.0, _Written([-1.0, 0, 0, 0]), 4096),
        (-1.0, ExpDamp(2.0, 0.5), 4096),
    ],
    ids=["1e-200-n22", "1e-200-banded", "-0.0-n22", "-0.0-banded", "subnormal-divisor",
         "B-1-poly", "B-1-expdamp"],
)
def test_held_sum_keeps_the_bits_at_the_edges(B, seed, n_d):
    """The poly solver (and its stack, where it has one) and the scanned
    ExpDamp solver, on seeds whose q holds zeros, -0.0 parts or subnormals."""
    want = _unit_sum(B, seed, n_d)
    q = unit_log_coefficients(B, seed, n_d)
    degree = None if isinstance(seed, ExpDamp) else search._POLY_DEGREE
    v, sum_sq, stack = members._held_solver(B, n_d, degree)
    seed.write(v)
    assert sum_sq().hex() == want.hex()
    if stack is not None:
        heads, sums = stack
        heads[0] = v[1 : heads.shape[1] + 1]
        assert sums(1)[0].hex() == want.hex()
    if isinstance(seed, ExpDamp) and n_d == 300:
        divisor = B * members.seed_series(seed, n_d).array
        assert np.any((divisor != 0) & (np.abs(divisor) < np.finfo(float).tiny))
    if not isinstance(seed, ExpDamp):
        assert np.any(q.view(np.float64) == 0) and np.all(np.isfinite(q))  # zero parts in q
