"""Isolated layer timings of the starlog pipeline at N = 22, 600 and 10^4.

Times seed_series, div, integrate_over_t, exp_series, log_series, the
weighted sums and the bound evaluators on inputs of truncation order N
(m = 1, an expdamp seed drawn from --seed), and prints one JSON object
{"<layer>.<function>.n<N>_ms": median milliseconds}.

The bound evaluators have no order argument; they run at the B whose
extremal tail needs about N terms (B = -1, the Koebe endpoint, for
N = 10^4, where the n^2-weighted bound is excluded).

    PYTHONPATH=src python3 bench/layers.py --seed 0
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
import time

from starlog import bounds, logcoeffs, members, series

SIZES = {22: -0.5, 600: -0.973, 10_000: -1.0}  # N -> B
MIN_REPS = 5
MIN_SECONDS = 0.1


def time_ms(fn, *args) -> float:
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_REPS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(samples)


def layer_timings(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    seed_fn = members.ExpDamp(theta=rng.uniform(0.0, 2.0 * math.pi), c=rng.uniform(0.0, 2.0))
    out = {}
    for n, B in SIZES.items():
        params = members.ClassParams(j=1, k=1, A=0.8 + 0.3j, B=B)
        v = members.seed_series(seed_fn, n)
        num = series.scale(v, params.A - B)
        den = series.one(n) + series.scale(v, B)
        p = series.div(num, den)
        q = series.integrate_over_t(p)
        ratio = series.exp_series(q)
        d = logcoeffs.LogCoeffVector(d=tuple(series.log_series(ratio).coeffs[1:]), m=1)
        cases = {
            "members.seed_series": (members.seed_series, seed_fn, n),
            "series.div": (series.div, num, den),
            "series.integrate_over_t": (series.integrate_over_t, p),
            "series.exp_series": (series.exp_series, q),
            "series.log_series": (series.log_series, ratio),
            "logcoeffs.sum_sq": (logcoeffs.sum_sq, d),
            "logcoeffs.sum_n2": (logcoeffs.sum_n2, d),
            "logcoeffs.sum_weighted": (logcoeffs.sum_weighted, d, 0.5),
            "bounds.thm_a_bound": (bounds.thm_a_bound, params),
            "bounds.thm3_bound": (bounds.thm3_bound, params, 0.5),
            "bounds.extremal_tail_bound": (bounds.extremal_tail_bound, params, n),
        }
        if B != -1.0:
            cases["bounds.thm2_bound"] = (bounds.thm2_bound, params)
        for name, (fn, *args) in cases.items():
            out[f"{name}.n{n}_ms"] = time_ms(fn, *args)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    print(json.dumps(layer_timings(ap.parse_args().seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
