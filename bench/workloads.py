"""Workload process of the starlog benchmark.

Each workload makes its inputs from the seed, runs closed-loop passes
through the public entry points (one process, one compute thread), checks
every operation against an independent correctness gate, and prints one
JSON object as its last stdout line.

    PYTHONPATH=src python3 bench/workloads.py --workload sweep --seed 0 --seconds 10 [--trace]
    PYTHONPATH=src python3 bench/workloads.py --self-test

Workloads:
  sweep   `starlog verify` over the default grid (135 points, m = 1..5) with
          the identity seed and two seeded rotations; many short members, so
          per-call overhead dominates.
  koebe   `starlog sharpness --slow --B -1` for m = 1 and m = 4 with a seeded
          A; N = 10^4 and 4*10^4, so the O(N^2) recursions dominate.
  search  `adversarial_search` for both seed families at m = 2,
          B in {-0.5, -0.9}; thousands of evaluations at repeated parameters.

An operation is a check row (sweep), a certificate (koebe) or a search
(search).  An exception, a wrong exit code or a failed gate fails it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import reference  # the script's directory is on sys.path
import starlog.cli
import starlog.members
import starlog.search

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

REL_TOL = 1e-12
SWEEP_CHECKS = 2430  # 135 grid points x 3 seeds x (ThmA, Thm2, 4 x Thm3)
KOEBE_KS = (1, 4)  # j = 1, so m = k
SEARCH_PARAMS = [(1, 2, 0.8 + 0.3j, B) for B in (-0.5, -0.9)]
SEARCH_BUDGET = 2000


def _close(x, ref, rel=REL_TOL) -> bool:
    return x is not None and math.isfinite(x) and abs(x - ref) <= rel * abs(ref)


def _fmt_complex(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}i"


def _parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j"))


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "sweep":
        thetas = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(2)]
        return {"seeds": ["identity"] + [f"rotation:{th!r}" for th in thetas]}
    if workload == "koebe":
        return {"A": complex(rng.uniform(0.25, 1.5), rng.uniform(-0.5, 0.5))}
    return {"rng_seed": seed}


def _cli(p: "Pass", key: str, argv: list[str], out: str) -> tuple[int | None, list[dict], str]:
    """Run `starlog <argv> --out <out>` in-process as the timed operation `key`.

    Returns (exit code or None on an exception, report rows, stderr).
    """
    open(out, "w").close()  # a failed run must not leave the previous report behind
    err = io.StringIO()

    def call():
        with contextlib.redirect_stderr(err):
            return starlog.cli.main(argv + ["--out", out])

    try:
        rc = p.time(key, call)
    except Exception:  # counted as failed operations by the caller
        err.write(traceback.format_exc())
        rc = None
    try:
        with open(out, encoding="utf-8") as fh:
            rows = json.load(fh)
    except ValueError:
        rows = []
    return rc, rows, err.getvalue()


# --- correctness gates ------------------------------------------------------


def closed_form_sum(row: dict) -> float:
    """The extremal member's weighted sum, from |d_n| = |A-B|/(2m) |B|^(n-1)/n."""
    A, B = _parse_complex(row["A"]), float(row["B"])
    m = row["j"] + row["k"] - 1
    n = np.arange(1, row["N_d"] + 1, dtype=np.float64)
    dsq = (abs(A - B) / (2.0 * m)) ** 2 * (B * B) ** (n - 1.0) / n**2
    if row["theorem"] == "ThmA":
        w = 1.0
    elif row["theorem"] == "Thm2":
        w = n**2
    else:
        w = (n + 1.0) ** row["t"]
    return float(np.sum(w * dsq))


def sweep_failures(rows: list[dict]) -> int:
    """Rows that fail: verdict, identity vs closed form, rotation vs identity."""
    key = lambda r: (r["j"], r["k"], r["A"], r["B"], r["theorem"], r["t"])  # noqa: E731
    identity = {key(r): r["partial_sum"] for r in rows if r["seed"] == "identity"}
    failed = 0
    for row in rows:
        try:
            if row["seed"] == "identity":
                ok = _close(row["partial_sum"], closed_form_sum(row))
            else:
                ref = identity.get(key(row))
                ok = ref is not None and _close(row["partial_sum"], ref)
        except (KeyError, TypeError, ValueError):  # a malformed row fails
            ok = False
        failed += not (ok and row["pass"] is True)
    return failed


def koebe_failures(rows: list[dict], A: complex, m: int) -> int:
    """1 unless the single certificate passes, brackets and has the closed-form bound."""
    if len(rows) != 1:
        return 1
    row = rows[0]
    expected = (abs(A + 1.0) / (2.0 * m)) ** 2 * math.pi**2 / 6.0
    try:
        bound = row["bound"]
        ok = (
            row["pass"] is True
            and _close(bound, expected)
            and abs(row["partial_sum"] + row["tail_bound"] - bound) <= 1e-8 * bound
        )
    except (KeyError, TypeError):  # a malformed row fails
        ok = False
    return int(not ok)


# --- one pass of each workload ---------------------------------------------

REF_SHARE = 0.1  # share of the measured time spent in the reference kernel


class Calibration:
    """Times the reference kernel between consecutive operations."""

    def __init__(self):
        self.last = reference.median_time(3)

    def around(self, raw: float) -> float:
        """Reference seconds around an operation that has just taken `raw` seconds."""
        ref = reference.median_time(max(3, round(REF_SHARE * raw / reference.REF_S)))
        around, self.last = (self.last + ref) / 2.0, ref
        return around


class Pass:
    """Timings of one pass, raw and in nominal seconds (see reference.py)."""

    def __init__(self, cal: Calibration):
        self.cal = cal
        self.raw: dict[str, float] = {}
        self.nominal: dict[str, float] = {}
        self.work = 0  # checks, certificates or member evaluations
        self.attempted = 0
        self.failed = 0

    def time(self, key: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            raw = time.perf_counter() - start
            self.raw[key] = raw
            self.nominal[key] = raw * reference.REF_S / self.cal.around(raw)

    def close(self) -> "Pass":
        self.raw["pass"] = sum(self.raw.values())
        self.nominal["pass"] = sum(self.nominal.values())
        return self


def sweep_pass(cal: Calibration, inputs: dict, out: str, inject: float = 0.0,
               sum_scale: float = 1.0) -> Pass:
    """`inject` and `sum_scale` are self-test faults: an offset on d_1 inside
    starlog, and a scale on every reported partial sum."""
    p = Pass(cal)
    argv = ["verify", "--seeds", ",".join(inputs["seeds"])]
    if inject:
        argv += ["--inject-d1", repr(inject)]
    rc, rows, err = _cli(p, "verify", argv, out)
    if sum_scale != 1.0:
        for row in rows:
            row["partial_sum"] *= sum_scale
    p.work = len(rows)
    p.attempted = max(len(rows), SWEEP_CHECKS)
    p.failed = p.attempted if rc != 0 else sweep_failures(rows) + p.attempted - len(rows)
    if p.failed and not inject and sum_scale == 1.0:
        sys.stderr.write(err[-4000:])
    return p.close()


def koebe_pass(cal: Calibration, inputs: dict, out: str, bound_scale: float = 1.0) -> Pass:
    """`bound_scale` is a self-test fault: a scale on the reported bound."""
    p = Pass(cal)
    A = inputs["A"]
    for k in KOEBE_KS:
        argv = ["sharpness", "--j", "1", "--k", str(k), "--A", _fmt_complex(A), "--B", "-1", "--slow"]
        rc, rows, err = _cli(p, f"cert_m{k}", argv, out)
        if bound_scale != 1.0:
            for row in rows:
                row["bound"] *= bound_scale
        bad = 1 if rc != 0 else koebe_failures(rows, A, m=k)
        if bad and bound_scale == 1.0:
            sys.stderr.write(err[-4000:])
        p.attempted += 1
        p.failed += bad
    p.work = len(KOEBE_KS)
    return p.close()


def search_pass(cal: Calibration, inputs: dict, out: str) -> Pass:
    p = Pass(cal)
    for family in starlog.search.FAMILIES:
        for j, k, A, B in SEARCH_PARAMS:
            p.attempted += 1
            try:
                report = p.time(
                    f"{family}_B{B}",
                    starlog.search.adversarial_search,
                    starlog.members.ClassParams(j=j, k=k, A=A, B=B),
                    family,
                    SEARCH_BUDGET,
                    inputs["rng_seed"],
                )
            except Exception:
                traceback.print_exc()
                p.failed += 1
                continue
            p.work += report.evaluations
            p.failed += not abs(report.max_ratio - 1.0) <= 1e-9
    return p.close()


PASSES = {"sweep": sweep_pass, "koebe": koebe_pass, "search": search_pass}


# --- measurement -------------------------------------------------------------

def summarize(samples: list[float]) -> dict:
    """Median, sample count, and the highest of p75/p90/p99 with >= 10 samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for p in (99, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            break
    return out


def named_metrics(workload: str, passes: list[Pass]) -> dict:
    """The per-workload metrics in nominal seconds, with unit and sample count."""
    rates = [p.work / p.nominal["pass"] for p in passes]
    if workload == "sweep":
        named = {"checks_per_s": ("checks/s", rates)}
    elif workload == "koebe":
        named = {f"cert_m{k}_s": ("s", [p.nominal[f"cert_m{k}"] for p in passes]) for k in KOEBE_KS}
    else:
        named = {
            "search_s": ("s", [p.nominal["pass"] for p in passes]),
            "evals_per_s": ("evals/s", rates),
        }
    return {name: {"unit": unit, **summarize(v)} for name, (unit, v) in named.items()}


def measure(workload: str, seed: int, seconds: float, tracer=None, spans_path=None) -> dict:
    inputs = make_inputs(workload, seed)
    run_pass = PASSES[workload]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    fd, out = tempfile.mkstemp(dir=RESULTS_DIR, prefix=f"{workload}-", suffix=".json")
    os.close(fd)
    try:
        cal = Calibration()
        warm = run_pass(cal, inputs, out)  # fills caches and finishes lazy set-up
        passes, layers = [], []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.reset()
            passes.append(run_pass(cal, inputs, out))
            if tracer is not None:
                layers.append(tracer.pass_metrics(passes[-1].raw["pass"]))
    finally:
        os.remove(out)
    if tracer is not None and spans_path:
        tracer.dump(spans_path)

    attempted = warm.attempted + sum(p.attempted for p in passes)
    failed = warm.failed + sum(p.failed for p in passes)
    result = {
        "workload": workload,
        "seed": seed,
        "inputs": {k: (_fmt_complex(v) if isinstance(v, complex) else v) for k, v in inputs.items()},
        "attempted": attempted,
        "failed": failed,
        "pass_s": statistics.median(p.nominal["pass"] for p in passes),
        "work_per_s": statistics.median(p.work / p.nominal["pass"] for p in passes),
        "raw_pass_s": statistics.median(p.raw["pass"] for p in passes),
        "samples": [{"raw": p.raw, "nominal": p.nominal, "work": p.work} for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "named": named_metrics(workload, passes),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    result["named"]["peak_rss_mb"] = {"unit": "MB", "value": result["peak_rss_mb"]}
    result["named"]["error_rate"] = {"unit": "fraction", "value": failed / attempted}
    if layers:
        # counts repeat exactly from pass to pass; the low median keeps them whole
        result["layers"] = {k: statistics.median_low(d[k] for d in layers) for k in layers[0]}
    return result


def self_test() -> int:
    """The gate must pass clean runs and fail injected faults."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    fd, out = tempfile.mkstemp(dir=RESULTS_DIR, prefix="selftest-", suffix=".json")
    os.close(fd)
    cal, sweep, koebe = Calibration(), make_inputs("sweep", 0), make_inputs("koebe", 0)
    try:
        cases = {
            "sweep": sweep_pass(cal, sweep, out),
            "sweep --inject-d1 0.5": sweep_pass(cal, sweep, out, inject=0.5),
            "sweep, partial sums x (1 + 1e-9)": sweep_pass(cal, sweep, out, sum_scale=1.0 + 1e-9),
            "koebe": koebe_pass(cal, koebe, out),
            "koebe, bound x (1 + 1e-6)": koebe_pass(cal, koebe, out, bound_scale=1.0 + 1e-6),
        }
    finally:
        os.remove(out)
    ok = True
    for name, p in cases.items():
        rate = p.failed / p.attempted
        expect_fail = name not in ("sweep", "koebe")
        good = (rate > 0) == expect_fail
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: error_rate={rate:.6g} ({p.failed}/{p.attempted})")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true", help="install the span tracer")
    ap.add_argument("--spans", help="write the last traced pass's spans here")
    ap.add_argument("--self-test", action="store_true", help="check that the gate bites")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    print(json.dumps(measure(args.workload, args.seed, args.seconds, tracer, args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
