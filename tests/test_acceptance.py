"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with `pytest -s` or `-v` to
see them); a failure prints the offending instance via the assert message.
"""

import json
import math
import subprocess
import sys

import numpy as np

import starlog as sl

ZETA2 = math.pi**2 / 6

GRID_PAIRS = [(1, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (1, 4)]
GRID_A = [1, 0.5, 0.8 + 0.3j]
GRID_B = [0.0, -0.25, -0.5, -0.75, -0.9]
T_VALUES = (-1.0, 0.0, 1.0, 2.0)


def grid_params():
    for j, k in GRID_PAIRS:
        for A in GRID_A:
            for B in GRID_B:
                yield sl.ClassParams(j, k, A, B)


def _announce(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def direct_li2_oracle(x, terms=10_000_000):
    """10^7-term direct sum of the defining series, chunked."""
    total = 0.0
    block = 1_000_000
    for start in range(1, terms + 1, block):
        n = np.arange(start, min(start + block, terms + 1), dtype=np.float64)
        vals = x**n / n**2
        total += float(np.sum(vals))
        if vals[-1] == 0.0:
            break
    return total


def test_criterion_1_dilogarithm():
    assert abs(sl.li(2, 1) - ZETA2) <= 1e-12
    for x in (0.1, 0.25, 0.5, 0.81, 0.9025):
        oracle = direct_li2_oracle(x)
        assert abs(sl.li(2, x) - oracle) <= 1e-12, (x, sl.li(2, x), oracle)
    _announce(1, "li(2, x) matches the 10^7-term direct-sum oracle to 1e-12")


def test_criterion_2_extremal_coefficients():
    for params in grid_params():
        member = sl.extremal_function(params, 512)
        d = sl.log_coefficients(member)
        for n in range(1, d.n_terms + 1):
            expected = sl.extremal_log_coefficient(params, n)
            assert abs(d[n - 1] - expected) <= 1e-11, (params, n)
    _announce(2, "pipeline d_n match the closed form to 1e-11 over the full grid at N = 512")


def test_criterion_3_thm_a_sharpness():
    for params in grid_params():
        member = sl.extremal_function(params, sl.suggested_order(params))
        d = sl.log_coefficients(member)
        bound = sl.thm_a_bound(params)
        total = sl.sum_sq(d) + sl.extremal_tail_bound(params, d.n_terms)
        assert abs(total - bound) <= 1e-8 * bound, params
    _announce(3, "sum_sq + tail brackets the plain-squares bound to 1e-8 relative on the grid")


def test_criterion_3_koebe_slow_mode():
    # the default is suggested_order's 512 terms; 10^4 bring the partial sum alone within 1e-4
    result = sl.check_sharpness(sl.ClassParams(1, 1, 1, -1), order=10_000)
    assert result.N_d >= 10_000
    assert abs(result.partial_sum - ZETA2) <= 1e-4
    assert abs(result.partial_sum + result.tail_bound - ZETA2) <= 1e-9
    _announce(3, "Koebe endpoint B = -1 reproduces pi^2/6 (1e-4 by partial sum, 1e-9 with tail)")


def test_criterion_4_thm2_sharpness():
    for params in grid_params():
        if params.B == -1.0:
            continue
        member = sl.extremal_function(params, 512)
        got = sl.sum_n2(sl.log_coefficients(member))
        bound = sl.thm2_bound(params)
        assert abs(got - bound) <= 1e-8 * bound, params
    instance = sl.ClassParams(1, 1, 1, -0.5)
    got = sl.sum_n2(sl.log_coefficients(sl.extremal_function(instance, 512)))
    assert abs(got - 0.75) <= 1e-10
    _announce(4, "sum_n2 attains |A-B|^2/(4m^2(1-B^2)); (1,1,1,-1/2) equals 3/4 to 1e-10")


def test_criterion_5_thm3_consistency_and_sharpness():
    for params in grid_params():
        assert abs(sl.thm3_bound(params, 0.0) - sl.thm_a_bound(params)) <= 1e-12, params
        member = sl.extremal_function(params, 512)
        d = sl.log_coefficients(member)
        for t in T_VALUES:
            bound = sl.thm3_bound(params, t)
            assert abs(sl.sum_weighted(d, t) - bound) <= 1e-8 * bound, (params, t)
    _announce(5, "thm3(t=0) = thmA to 1e-12; weighted sums sharp to 1e-8 for t in {-1,0,1,2}")


def test_criterion_6_soundness_fuzzing():
    rng = np.random.default_rng(20260823)
    params_list = list(grid_params())
    checked = 0
    for i in range(200):
        params = params_list[int(rng.integers(len(params_list)))]
        if i % 2 == 0:
            seed = sl.ExpDamp(theta=float(rng.uniform(0, 2 * math.pi)), c=float(rng.uniform(0, 5)))
        else:
            raw = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
            raw *= rng.uniform(0, 1) / max(np.sum(np.abs(raw)), 1e-9)
            seed = sl.Polynomial(coeffs=tuple(raw.tolist()))
        member = sl.member_from_seed(params, seed, sl.suggested_order(params))
        report = sl.verify_member(member, t_values=T_VALUES, tol=1e-9)
        assert all(r.passed for r in report), (params, seed.label())
        checked += sum(1 for r in report if r.ratio is not None)
    _announce(6, f"200 fuzzed members, {checked} ratios, zero violations at 1 + 1e-9")


def _compose(outer, inner):
    order = min(outer.order, inner.order)
    acc = np.zeros(order + 1, dtype=complex)
    acc[0] = outer[0]
    power = np.zeros(order + 1, dtype=complex)
    power[0] = 1.0
    inner_v = np.asarray(inner.coeffs[: order + 1])
    for n in range(1, order + 1):
        power = np.convolve(power, inner_v)[: order + 1]
        acc += outer[n] * power
    return sl.TruncatedSeries(tuple(acc.tolist()))


def test_criterion_7_lemma_suites():
    rng = np.random.default_rng(424242)

    # 200 constructed subordinate pairs, including equality witnesses
    witness_seeds = [sl.Identity(), sl.Rotation(0.9), sl.ExpDamp(1.1, 0.7)]
    for trial in range(200):
        g = rng.normal(size=21) + 1j * rng.normal(size=21)
        g[0] = 0.0
        g_series = sl.TruncatedSeries(tuple(g.tolist()))
        if trial < 3:
            omega_seed = witness_seeds[trial]
        elif trial % 3 == 0:
            raw = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
            raw /= max(np.sum(np.abs(raw)), 1.0)
            omega_seed = sl.Polynomial(coeffs=tuple(raw.tolist()))
        else:
            omega_seed = sl.ExpDamp(
                theta=float(rng.uniform(0, 2 * math.pi)), c=float(rng.uniform(0, 3))
            )
        omega = sl.seed_series(omega_seed, 20)
        f_series = _compose(g_series, omega)
        ok, _ = sl.rogosinski_l2_check(f_series.array, g_series.array, 20)
        assert ok, (trial, omega_seed.label())

    # 500 hypothesis-satisfying weight transfers
    for _ in range(500):
        y = rng.uniform(0, 1, 25)
        x = y * rng.uniform(0, 1, 25)
        t = float(rng.uniform(-2, 2))
        ok, _ = sl.abel_weight_transfer(x, y, 1.0, t)
        assert ok

    # 50 hypothesis-violating instances must be rejected
    rejected = 0
    for _ in range(50):
        y = rng.uniform(0.1, 1, 25)
        x = y.copy()
        pos = int(rng.integers(25))
        x[pos] += np.sum(y) * rng.uniform(1.0, 2.0)
        try:
            sl.abel_weight_transfer(x, y, 1.0, float(rng.uniform(-2, 2)))
        except sl.errors.HypothesisViolated:
            rejected += 1
    assert rejected == 50

    # weight positivity through k = 10^4 and a t = 2.5 counterexample
    ks = np.arange(1, 10_001, dtype=np.float64)
    for t in T_VALUES:
        factors = (ks + 1) ** t / ks**2 - (ks + 2) ** t / (ks + 1) ** 2
        assert np.all(factors > 0), t
    bad = (ks + 1) ** 2.5 / ks**2 - (ks + 2) ** 2.5 / (ks + 1) ** 2
    first_bad = int(ks[np.argmax(bad <= 0)])
    assert np.any(bad <= 0)
    _announce(7, f"lemma suites pass; weight factor goes nonpositive at k = {first_bad} for t = 2.5")


def test_criterion_8_adversarial_search():
    for params in (sl.ClassParams(1, 1, 1, -0.5), sl.ClassParams(1, 2, 1, -0.75)):
        report = sl.adversarial_search(params, family="expdamp", budget=2000, rng_seed=0)
        assert 1 - 1e-6 <= report.max_ratio <= 1 + 1e-9, (params, report.max_ratio)
        assert report.best_seed.c <= 1e-3, report.best_seed
    _announce(8, "search max ratios in [1 - 1e-6, 1 + 1e-9] with argmax at c <= 1e-3")


def test_criterion_9_corollary_instances():
    # B = 0 specialization: bound |A|^2/(4k^2) = 1/16, attained by a single term
    p1 = sl.ClassParams(1, 2, 1, 0)
    d1 = sl.log_coefficients(sl.extremal_function(p1, 64))
    assert abs(sl.thm_a_bound(p1) - 1 / 16) <= 1e-15
    assert abs(sl.sum_sq(d1) - 1 / 16) <= 1e-12

    # B = -A specialization at A = 1/2: bound Li_2(1/4)
    p2 = sl.ClassParams(1, 1, 0.5, -0.5)
    assert abs(sl.thm_a_bound(p2) - direct_li2_oracle(0.25)) <= 1e-10
    d2 = sl.log_coefficients(sl.extremal_function(p2, sl.suggested_order(p2)))
    total = sl.sum_sq(d2) + sl.extremal_tail_bound(p2, d2.n_terms)
    assert abs(total - sl.thm_a_bound(p2)) <= 1e-8 * sl.thm_a_bound(p2)
    _announce(9, "corollary instances: 1/16 attained exactly; Li_2(1/4) bound sharp")


def test_criterion_10_cli_end_to_end(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "starlog", *args], capture_output=True, text=True
        )

    out_a = tmp_path / "a.json"
    proc = run("verify", "--no-timestamp", "--out", str(out_a))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out_a.read_text())
    assert rows
    required = {"theorem", "j", "k", "A", "B", "seed", "t", "N", "N_d",
                "partial_sum", "bound", "ratio", "pass", "tail_bound", "note"}
    assert all(set(r) == required for r in rows)

    fault = run("verify", "--inject-d1", "1e-3", "--no-timestamp", "--out", str(tmp_path / "f.json"))
    assert fault.returncode == 1

    out_b = tmp_path / "b.json"
    proc2 = run("verify", "--no-timestamp", "--out", str(out_b))
    assert proc2.returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    _announce(10, "default verify exits 0 with schema-valid JSON; fault flips to 1; reruns byte-identical")
