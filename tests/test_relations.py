"""Metamorphic relations: each holds on any correct build, for every input,
with no oracle per input (Chen, Kuo, Liu, Poon, Towey, Tse & Zhou, ACM
Comput. Surv. 51(1) (2018) 4).  The unit coefficients q depend on (B, seed,
N_d) alone, and every verdict on A only through G = (|A - B|/(2m))^2."""

import cmath

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starlog.errors import InvalidParams
from starlog.members import ClassParams, Identity, Polynomial, Rotation, member_from_seed
from starlog.members import unit_log_coefficients
from starlog.verify import DEFAULT_TOL, bound_plan, plan_rows, verify_member, weighted_sums

_B = st.sampled_from([0.0, -0.5, -0.9, -0.99, -1.0]) | st.floats(-1.0, 0.0)
_THETA = st.floats(-10.0, 10.0)


@st.composite
def _polynomials(draw):
    """A certified polynomial seed of degree 1 to 8: its coefficients over their
    total, times a scale in (0, 1]."""
    parts = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    c = np.array([complex(*z) for z in draw(st.lists(parts, min_size=1, max_size=8))])
    total = float(np.abs(c).sum())
    assume(total > 1e-3)
    return Polynomial(tuple(c * (draw(st.floats(0.01, 1.0)) / total)))


_SEEDS = st.just(Identity()) | st.builds(Rotation, _THETA) | _polynomials()


@settings(max_examples=60, deadline=None)
@given(B=_B, theta=_THETA, n_d=st.integers(1, 600))
def test_rotation_and_its_one_term_polynomial_give_the_same_q(B, theta, n_d):
    # both write e^{i theta} as v_1, and nothing else
    rotation = unit_log_coefficients(B, Rotation(theta), n_d)
    poly = unit_log_coefficients(B, Polynomial((cmath.exp(1j * theta),)), n_d)
    assert rotation.tobytes() == poly.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, B=_B, n_d=st.integers(64, 700), more=st.integers(1, 3000))
def test_q_at_n_d_is_the_head_of_q_at_any_larger_n_d(seed, B, n_d, more):
    # from N_d = 64 on (65 rows) the band is scanned, and row n of the banded
    # solve reads rows 0..n only, whatever the length and the blocks
    head = unit_log_coefficients(B, seed, n_d)
    assert head.tobytes() == unit_log_coefficients(B, seed, n_d + more)[:n_d].tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, B=_B, n_d=st.integers(1, 63), more=st.integers(1, 1000))
def test_a_dense_solve_agrees_with_the_banded_head_to_rounding(seed, B, n_d, more):
    # up to 64 rows the solve is dense, and its `ztbsv` may round otherwise than
    # the banded one (1.3e-15 relative at worst in 4000 random cases)
    head = unit_log_coefficients(B, seed, n_d)
    longer = unit_log_coefficients(B, seed, n_d + more)[:n_d]
    assert np.abs(head - longer).max() <= 1e-14 * np.abs(longer).max()


_PAIRS = [(1, 1), (0, 2), (1, 2), (2, 3), (1, 4)]


@settings(max_examples=60, deadline=None)
@given(
    pair=st.sampled_from(_PAIRS),
    A=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    B=_B,
    seed=_SEEDS,
    order=st.integers(4, 400),
    t_values=st.lists(st.floats(-3.0, 2.0), min_size=1, max_size=3).map(tuple),
)
def test_conjugate_a_leaves_g_and_every_verdict(pair, A, B, seed, order, t_values):
    try:
        params = ClassParams(*pair, A, B)
    except InvalidParams:  # A = B, or G below the normal range
        assume(False)
    conjugate = ClassParams(*pair, A.conjugate(), B)
    assume(order >= params.m)
    assert conjugate.G == params.G
    plan = bound_plan(params, t_values)
    assert repr(bound_plan(conjugate, t_values)) == repr(plan)

    # `starlog verify`'s rows: one unit reduction, scaled by each point's G
    n_d = order // params.m
    sums = weighted_sums(unit_log_coefficients(B, seed, n_d), plan[1])
    rows = [plan_rows(plan, sums, p.G, p, seed, order, n_d, DEFAULT_TOL) for p in (params, conjugate)]
    assert repr(rows[0]) == repr(rows[1])

    # the member path: d_n = ((A - B)/(2m)) q_n differs, |d_n|^2 to rounding
    verdicts = [[row.passed for row in verify_member(member_from_seed(p, seed, order), t_values)]
                for p in (params, conjugate)]
    assert verdicts[0] == verdicts[1]
