"""Truncated-series arithmetic: worked examples and algebraic invariants."""

import json
import math
import subprocess
import sys
import tracemalloc
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starlog.cli import MAX_TERMS
from starlog.errors import NonzeroConstantTerm, NotUnitConstantTerm, ZeroConstantTerm
from starlog.series import (
    TruncatedSeries,
    _solve_toeplitz,
    add,
    div,
    exp_series,
    from_coeffs,
    integrate_over_t,
    log_series,
    scale,
    ztbsv,
)
from zlevel import compose_power


def coeffs_close(s, expected, tol=1e-12):
    got = np.asarray(s.coeffs)
    want = np.asarray([complex(c) for c in expected])
    assert got.shape == want.shape, (got, want)
    assert np.max(np.abs(got - want)) <= tol, (got, want)


class TestAdd:
    def test_cancellation(self):
        coeffs_close(add(from_coeffs([1, 1]), from_coeffs([1, -1])), [2, 0])

    def test_identity(self):
        s = from_coeffs([0.5, -2j, 3])
        coeffs_close(add(s, from_coeffs([0, 0, 0])), s.coeffs)

    def test_direct(self):
        coeffs_close(add(from_coeffs([0, 1, 1]), from_coeffs([0, 0, 1])), [0, 1, 2])

    def test_truncates_to_min_order(self):
        assert add(from_coeffs([1, 2, 3]), from_coeffs([1, 1])).order == 1


class TestDiv:
    def test_geometric_series(self):
        q = div(from_coeffs([1], order=6), from_coeffs([1, -1], order=6))
        coeffs_close(q, [1] * 7)

    def test_self_division(self):
        a = from_coeffs([1, 0.3, -0.2j, 0.1])
        coeffs_close(div(a, a), [1, 0, 0, 0], tol=1e-14)

    def test_factorization(self):
        q = div(from_coeffs([1, 0, -1], order=4), from_coeffs([1, -1], order=4))
        coeffs_close(q, [1, 1, 0, 0, 0], tol=1e-14)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroConstantTerm):
            div(from_coeffs([1, 1]), from_coeffs([0, 1]))


class TestLog:
    def test_mercator(self):
        coeffs_close(
            log_series(from_coeffs([1, 1], order=4)),
            [0, 1, -1 / 2, 1 / 3, -1 / 4],
            tol=1e-15,
        )

    def test_log_of_one(self):
        coeffs_close(log_series(from_coeffs([1], order=5)), [0] * 6, tol=0)

    def test_log_of_square_is_doubled_mercator(self):
        # oracle: Mercator coefficients (-1)^{n+1}/n, doubled
        sq = from_coeffs([1, 2, 1], order=8)
        expected = [0] + [2 * (-1) ** (n + 1) / n for n in range(1, 9)]
        coeffs_close(log_series(sq), expected, tol=1e-14)

    def test_non_unit_rejected(self):
        with pytest.raises(NotUnitConstantTerm):
            log_series(from_coeffs([2, 1]))


class TestExp:
    def test_exponential_series(self):
        coeffs_close(
            exp_series(from_coeffs([0, 1], order=4)),
            [1, 1, 1 / 2, 1 / 6, 1 / 24],
            tol=1e-15,
        )

    def test_exp_of_zero(self):
        coeffs_close(exp_series(from_coeffs([0], order=3)), [1, 0, 0, 0], tol=0)

    def test_exp_log_inverse_pair(self):
        coeffs_close(exp_series(log_series(from_coeffs([1, 1], order=6))), [1, 1, 0, 0, 0, 0, 0], tol=1e-14)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(NonzeroConstantTerm):
            exp_series(from_coeffs([1, 1]))


class TestIntegrateOverT:
    def test_linear(self):
        coeffs_close(integrate_over_t(from_coeffs([0, 1])), [0, 1], tol=0)

    def test_power_rule(self):
        coeffs_close(integrate_over_t(from_coeffs([0, 0, 1])), [0, 0, 0.5], tol=0)

    def test_geometric_integrand_gives_log(self):
        # a = -2z/(1-z): coefficients -2 from exponent 1; integral has -2/n,
        # which equals 2 * log(1 - z) coefficientwise
        a = from_coeffs([0] + [-2] * 8)
        got = integrate_over_t(a)
        oracle = scale(log_series(from_coeffs([1, -1], order=8)), 2)
        coeffs_close(got, oracle.coeffs, tol=1e-14)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(NonzeroConstantTerm):
            integrate_over_t(from_coeffs([1, 1]))


class TestComposePower:
    """The test-side lift from w = z^m to z that the z-level oracles use."""

    def test_cube_substitution(self):
        coeffs_close(compose_power(from_coeffs([1, 1]), 3, 6), [1, 0, 0, 1, 0, 0, 0], tol=0)

    def test_m_one_is_identity(self):
        s = from_coeffs([1, 2, 3])
        coeffs_close(compose_power(s, 1, 2), s.coeffs, tol=0)

    def test_even_support(self):
        coeffs_close(compose_power(from_coeffs([0, 1, 1]), 2, 5), [0, 0, 1, 0, 1, 0], tol=0)

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            compose_power(from_coeffs([1]), 0, 3)


# ---------------------------------------------------------------------------
# invariants


def _random_series(rng, order, constant, max_modulus=1.0):
    radii = rng.uniform(0, max_modulus, order + 1)
    angles = rng.uniform(0, 2 * math.pi, order + 1)
    cs = radii * np.exp(1j * angles)
    cs[0] = constant
    return TruncatedSeries(tuple(cs.tolist()))


def test_log_exp_round_trip_order_64():
    rng = np.random.default_rng(20260823)
    for _ in range(200):
        a = _random_series(rng, 64, 0.0)
        back = log_series(exp_series(a))
        err = np.max(np.abs(np.asarray(back.coeffs) - np.asarray(a.coeffs)))
        assert err <= 1e-11


def test_exp_log_round_trip_order_64():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = _random_series(rng, 64, 1.0, max_modulus=0.5)
        back = exp_series(log_series(a))
        err = np.max(np.abs(np.asarray(back.coeffs) - np.asarray(a.coeffs)))
        assert err <= 1e-11


def test_log_of_product_is_sum_of_logs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = _random_series(rng, 48, 1.0, max_modulus=0.5)
        b = _random_series(rng, 48, 1.0, max_modulus=0.5)
        lhs = log_series(TruncatedSeries(np.convolve(a.array, b.array)[: a.order + 1]))
        rhs = add(log_series(a), log_series(b))
        assert np.max(np.abs(np.asarray(lhs.coeffs) - np.asarray(rhs.coeffs))) <= 1e-11


def test_div_then_mul_recovers_dividend():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = _random_series(rng, 48, rng.uniform(0.5, 1.0), max_modulus=0.5)
        b = _random_series(rng, 48, 1.0, max_modulus=0.5)
        back = np.convolve(div(a, b).array, b.array)[: a.order + 1]
        assert np.max(np.abs(back - a.array)) <= 1e-11


small_complex = st.builds(
    complex,
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(small_complex, min_size=1, max_size=12),
    m=st.integers(min_value=1, max_value=5),
)
def test_compose_power_commutes_with_log(coeffs, m):
    a = TruncatedSeries((1.0,) + tuple(0.5 * c for c in coeffs))
    order = m * a.order
    lhs = log_series(compose_power(a, m, order))
    rhs = compose_power(log_series(a), m, order)
    lv, rv = np.asarray(lhs.coeffs), np.asarray(rhs.coeffs)
    assert np.max(np.abs(lv - rv)) <= 1e-11
    # support on multiples of m is preserved exactly, not merely small
    for n in range(order + 1):
        if n % m != 0:
            assert lhs[n] == 0


# ---------------------------------------------------------------------------
# blocked kernels against the per-coefficient recursions they replace

BLOCK_ORDERS = [0, 1, 63, 64, 65, 127, 128, 129, 300]


def ref_div(a, b):
    n = min(len(a), len(b)) - 1
    q = np.empty(n + 1, dtype=np.complex128)
    q[0] = a[0] / b[0]
    for i in range(1, n + 1):
        q[i] = (a[i] - np.dot(b[1 : i + 1], q[i - 1 :: -1][:i])) / b[0]
    return q


def ref_log(a):
    n = len(a) - 1
    L = np.zeros(n + 1, dtype=np.complex128)
    kL = np.zeros(n + 1, dtype=np.complex128)
    for i in range(1, n + 1):
        s = np.dot(kL[1:i], a[i - 1 : 0 : -1]) if i > 1 else 0.0
        L[i] = a[i] - s / i
        kL[i] = i * L[i]
    return L


def ref_exp(a):
    n = len(a) - 1
    ka = np.arange(n + 1) * a
    E = np.zeros(n + 1, dtype=np.complex128)
    E[0] = 1.0
    for i in range(1, n + 1):
        E[i] = np.dot(ka[1 : i + 1], E[i - 1 :: -1][:i]) / i
    return E


def assert_matches_reference(got, want):
    got = got.array
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("order", BLOCK_ORDERS)
def test_kernels_match_per_coefficient_recursions(order):
    rng = np.random.default_rng(1000 + order)
    a = _random_series(rng, order, rng.uniform(0.5, 1.0), max_modulus=0.5)
    b = _random_series(rng, order, 1.0, max_modulus=0.5)
    z = _random_series(rng, order, 0.0)
    assert_matches_reference(div(a, b), ref_div(a.array, b.array))
    assert_matches_reference(log_series(b), ref_log(b.array))
    assert_matches_reference(exp_series(z), ref_exp(z.array))


def _banded_divisor(rng, order, band):
    """1 + sum_{k<=band} b_k w^k with sum |b_k| <= 1/2, so the quotient stays bounded."""
    b = np.zeros(order + 1, dtype=np.complex128)
    b[0] = 1.0
    width = min(band, order)
    tail = _random_series(rng, width, 0.0, max_modulus=1.0 / (2 * max(width, 1)))
    b[1 : width + 1] = tail.array[1:]
    return b


# bands 63, 64, 65 sit at the block edge; 100 stops mid-block with a zero last entry
BANDS = [0, 1, 4, 63, 64, 65, 100]


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("order", BLOCK_ORDERS)
def test_banded_div_matches_per_coefficient_recursion(order, band):
    rng = np.random.default_rng(10 * order + band)
    a = _random_series(rng, order, rng.uniform(0.5, 1.0), max_modulus=0.5)
    b = _banded_divisor(rng, order, band)
    assert_matches_reference(div(a, TruncatedSeries(b)), ref_div(a.array, b))


# a block's band storage holds 64 * 64 entries, so its rows of x are 4096 // (min(band, 63) + 1)
BLOCK_EDGE_BANDS = {0: 4096, 1: 2048, 4: 819, 63: 64, 64: 64, 65: 64, "dense": 64}


def _block_edge_cases():
    for band, rows in BLOCK_EDGE_BANDS.items():
        for n in (rows - 1, rows, rows + 1, 2 * rows + 1):
            yield pytest.param(band, n - 1, id=f"band{band}-n{n}")


@pytest.mark.parametrize("band, order", list(_block_edge_cases()))
def test_banded_kernels_match_recursions_at_block_edges(band, order):
    rng = np.random.default_rng(order)
    band = order if band == "dense" else band
    a = _random_series(rng, order, 1.0, max_modulus=0.5)
    b = _banded_divisor(rng, order, band)
    assert_matches_reference(div(a, TruncatedSeries(b)), ref_div(a.array, b))
    # log and exp solve with the same band: t = b[:-1] for log, -k z_k for exp,
    # whose diagonal k differs per row and per block
    assert_matches_reference(log_series(TruncatedSeries(b)), ref_log(b))
    z = b.copy()
    z[0] = 0.0
    assert_matches_reference(exp_series(TruncatedSeries(z)), ref_exp(z))


def test_band_one_solve_at_max_terms_allocates_only_its_result():
    # 1/(1 - w) = sum w^n exactly; the per-block band storage stays 64 KiB
    t = np.zeros(MAX_TERMS + 1, dtype=np.complex128)
    t[:2] = 1.0, -1.0
    rhs = np.zeros_like(t)
    rhs[0] = 1.0
    tracemalloc.start()
    try:
        x = _solve_toeplitz(t, rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(x == 1.0)
    assert peak <= x.nbytes + 2**20


@pytest.mark.parametrize("order", [65, 129, 300])
def test_divisor_nonzero_only_at_its_last_entry_reaches_it(order):
    # a gap of zeros, then a nonzero last entry: the band is the full length
    rng = np.random.default_rng(order)
    a = _random_series(rng, order, 1.0, max_modulus=0.5)
    b = _banded_divisor(rng, order, 1)
    b[order] = 0.25
    assert_matches_reference(div(a, TruncatedSeries(b)), ref_div(a.array, b))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "order, pos", [(300, 150), (300, 64), (129, 100), (2048, 2047), (4096, 2048), (4096, 3000)]
)
def test_non_finite_divisor_entry_inside_a_zero_run_poisons_the_quotient(order, pos, bad):
    # [1, 0.5, 0, ..., 0, bad, 0, ..., 0]: a band scan must count NaN and inf as nonzero
    b = np.zeros(order + 1, dtype=np.complex128)
    b[0], b[1], b[pos] = 1.0, 0.5, bad
    a = np.zeros(order + 1, dtype=np.complex128)
    a[0] = 1.0
    q = div(TruncatedSeries(a), TruncatedSeries(b)).array
    assert np.isfinite(q[:pos]).all()
    assert not np.isfinite(q[pos:]).any()


@pytest.mark.parametrize("order", [0, 64, 129])
def test_constant_term_checks_at_every_order(order):
    unit = _random_series(np.random.default_rng(order), order, 1.0)
    with pytest.raises(ZeroConstantTerm):
        div(unit, _random_series(np.random.default_rng(1), order, 0.0))
    with pytest.raises(NotUnitConstantTerm):
        log_series(_random_series(np.random.default_rng(2), order, 1.5))
    for fn in (exp_series, integrate_over_t):
        with pytest.raises(NonzeroConstantTerm):
            fn(_random_series(np.random.default_rng(3), order, 0.25))


@pytest.mark.parametrize("order, pos", [(1, 1), (64, 1), (64, 64), (129, 63), (129, 64), (129, 129)])
def test_nan_coefficient_never_gives_finite_series(order, pos):
    rng = np.random.default_rng(order + pos)

    def poisoned(constant, at=pos):
        cs = _random_series(rng, order, constant).array.copy()
        cs[at] = np.nan
        return TruncatedSeries(cs)

    zero = TruncatedSeries(np.zeros(order + 1))
    results = [
        div(poisoned(1.0), _random_series(rng, order, 1.0)),
        div(zero, poisoned(1.0)),
        div(zero, poisoned(1.0, at=0)),
        log_series(poisoned(1.0)),
        exp_series(poisoned(0.0)),
        exp_series(TruncatedSeries(np.where(np.isnan(poisoned(0.0).array), np.nan, 0.0))),
    ]
    for s in results:
        assert np.isnan(s.array).any()


# ---------------------------------------------------------------------------
# value semantics of the ndarray-backed series


def test_array_is_read_only():
    s = from_coeffs([1, 2, 3])
    with pytest.raises(ValueError):
        s.array[0] = 5
    assert s.coeffs == (1, 2, 3)


def test_source_array_is_copied():
    src = np.array([1.0, 2.0, 3.0])
    s = TruncatedSeries(src)
    src[1] = 99.0
    assert s.coeffs == (1, 2, 3)
    assert s.array.dtype == np.complex128


def test_coeffs_is_a_tuple_of_complex():
    coeffs = from_coeffs([1, 0.5j]).coeffs
    assert isinstance(coeffs, tuple)
    assert all(type(c) is complex for c in coeffs)


@pytest.mark.parametrize("empty", [(), [], np.array([], dtype=complex)])
def test_empty_series_rejected(empty):
    with pytest.raises(ValueError):
        TruncatedSeries(empty)


# The solve's `ztbsv` is scipy's own, loaded from scipy/linalg/_fblas<suffix>
# without the scipy.linalg package, or through the public import when that fails.


# (divisor width, rows, band storage width of the solve): up to 64 rows the
# divisor is taken as dense, so its storage spans every row
@pytest.mark.parametrize("width, rows, stored", [(2, 22, 22), (5, 150, 5), (2, 2048, 2), (64, 64, 64)])
def test_solve_is_bitwise_a_public_ztbsv_solve(width, rows, stored):
    from scipy.linalg.blas import ztbsv as public_ztbsv

    assert ztbsv is public_ztbsv
    rng = np.random.default_rng(width * rows)
    t = np.zeros(rows, dtype=np.complex128)
    t[0] = 1.0
    t[1:width] = rng.normal(size=(width - 1, 2)) @ [0.5, 0.5j] / width
    rhs = rng.normal(size=(rows, 2)) @ [1, 1j]
    ab = np.asfortranarray(np.broadcast_to(t[:stored, None], (stored, rows)))
    want = public_ztbsv(stored - 1, ab, rhs, lower=1)
    assert np.array_equal(_solve_toeplitz(t, rhs), want)


# A fresh interpreter imports starlog, optionally with scipy's directory seen
# as argv[1] instead (so the direct load finds no loadable _fblas), runs the
# CLI on argv[3:] with the report at argv[2], lists which of scipy.linalg,
# scipy.special and scipy.optimize it has loaded, and then imports scipy.linalg.
_CHILD = """
import importlib.util, json, sys
scipy_dir, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
find_spec = importlib.util.find_spec
def moved_scipy(name, package=None):
    spec = find_spec(name, package)
    if name == "scipy" and scipy_dir:
        spec.submodule_search_locations = [scipy_dir]
    return spec
importlib.util.find_spec = moved_scipy
import starlog.cli, starlog.series
importlib.util.find_spec = find_spec
linalg_at_import = "scipy.linalg" in sys.modules
rc = starlog.cli.main([*argv, "--no-timestamp", "--out", out])
after_run = sorted({"scipy.linalg", "scipy.special", "scipy.optimize"} & sys.modules.keys())
import scipy.linalg.blas
same = scipy.linalg.blas.ztbsv is starlog.series.ztbsv
print(json.dumps({"rc": rc, "linalg_at_import": linalg_at_import, "after_run": after_run, "same": same}))
"""


def _run_child(tmp_path, name, scipy_dir, *argv):
    out = tmp_path / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(scipy_dir), str(out), *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), out.read_bytes()


def _scipy_without_fblas(tmp_path, kind):
    """A stand-in scipy directory whose linalg/ has no _fblas, or one that does not load."""
    linalg = tmp_path / kind / "linalg"
    linalg.mkdir(parents=True)
    if kind == "unloadable":
        (linalg / f"_fblas{EXTENSION_SUFFIXES[0]}").write_bytes(b"not a shared object")
    return linalg.parent


VERIFY_ARGV = ["verify", "--j", "1", "--k", "1,2", "--A", "1", "--B=-0.5"]


@pytest.mark.parametrize("kind", ["missing", "unloadable"])
def test_fallback_is_the_public_ztbsv_with_the_same_report(tmp_path, kind):
    state, direct = _run_child(tmp_path, "direct", "", *VERIFY_ARGV)
    assert state == {"rc": 0, "linalg_at_import": False, "after_run": [], "same": True}
    state, fallback = _run_child(tmp_path, kind, _scipy_without_fblas(tmp_path, kind), *VERIFY_ARGV)
    assert state == {"rc": 0, "linalg_at_import": True, "after_run": ["scipy.linalg"], "same": True}
    assert fallback == direct


@pytest.mark.parametrize("family", ["poly", "expdamp"])
def test_search_loads_no_scipy_subpackage_and_matches_the_fallback(tmp_path, family):
    argv = ["search", "--j", "1", "--k", "2", "--A", "0.8+0.3i", "--B=-0.9"]
    argv += ["--family", family, "--budget", "200"]
    state, direct = _run_child(tmp_path, "direct", "", *argv)
    assert state == {"rc": 0, "linalg_at_import": False, "after_run": [], "same": True}
    state, public = _run_child(tmp_path, "public", _scipy_without_fblas(tmp_path, "missing"), *argv)
    assert state == {"rc": 0, "linalg_at_import": True, "after_run": ["scipy.linalg"], "same": True}
    assert direct == public
