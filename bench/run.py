"""Benchmark of the starlog pipeline.

    python3 bench/run.py --workload {sweep,koebe,search,all} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --self-test

Run from anywhere inside a source checkout; the package runs from `src/`
(PYTHONPATH), uninstalled.  Every measurement runs in its own process,
one at a time, with OpenBLAS/OpenMP pinned to one thread.

--trace 0 measures the end-to-end metrics of BENCHMARK.json:
  setup_s      median over fresh interpreters of spawn -> `import starlog.cli`
               returned (CLOCK_MONOTONIC is shared across processes)
  peak_rss_mb  peak RSS of the workload process
  pass_s       median time of one workload pass, after one warm-up pass
  work_per_s   median per-pass rate of checks (sweep), certificates (koebe)
               or member evaluations (search)
and prints the per-workload metrics (checks_per_s, cert_m1_s, cert_m4_s,
search_s, evals_per_s, setup_s, error_rate) by name and unit.  error_rate
is failed / attempted operations, the result's `failed` and `attempted`.

Timings are in nominal seconds: each timed operation is scaled by
REF_S over the time of a fixed reference kernel run right next to it
(reference.py), which cancels the host's drift.  Raw seconds go to the
record; per-layer times are raw.

--trace 1 measures the per-layer metrics: an untraced and a traced
workload process (seconds / 2 each; the tracer wraps every public
function of every module, see tracing.py), `python -X importtime`
for setup.import_s and its split, and isolated layer timings
(layers.py).  Calls, computed MACs and evaluations are per pass and
repeat exactly; self times are per pass, in seconds where every workload
runs the code and as a share of the pass (*_frac) where some never does.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.  A
full record (environment, samples, traced spans) goes to bench/results/.
Exit code 2, without a result, when the checkout has no starlog sources
or a measurement process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("sweep", "koebe", "search")
SETUP_PROBES = 8  # plus one discarded probe that writes the bytecode caches
SETUP_REF_REPS = 5
IMPORTTIME_PROBES = 3
# shares of setup.import_s, not seconds: an import that a later change drops
# then reads as a zero share, not as a constant zero time
SETUP_SPLIT = {
    "setup.numpy_frac": ("numpy",),
    "setup.scipy_special_frac": ("scipy.special",),
    "setup.scipy_optimize_frac": ("scipy.optimize",),
    "setup.starlog_frac": ("starlog", "starlog.cli"),
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def python(args: list[str], timeout: float, stdout=subprocess.PIPE, stderr=None,
           check=True) -> subprocess.CompletedProcess:
    """Run the interpreter on `args` in the checkout and wait for it to end."""
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(), stdout=stdout,
            stderr=stderr, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    if check and proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(args)}")
    return proc


def last_json(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines:
        raise BenchError("measurement process printed no result")
    return json.loads(lines[-1])


def setup_probe() -> tuple[float, float]:
    """(raw, nominal) seconds from spawning a fresh interpreter until
    `import starlog.cli` returns; the child then times the reference kernel."""
    code = (
        "import starlog.cli, time; t = time.perf_counter(); import sys; "
        f"sys.path.insert(0, {str(BENCH)!r}); import reference; "
        f"print(t, reference.REF_S / reference.median_time({SETUP_REF_REPS}))"
    )
    start = time.perf_counter()
    done, scale = map(float, python(["-c", code], timeout=60).stdout.split())
    return done - start, (done - start) * scale


def importtime_probe() -> dict[str, float]:
    """Seconds of `import starlog.cli` (setup.import_s) and the shares spent in
    numpy, scipy.special, scipy.optimize and starlog itself, each exclusive of
    the others nested inside it."""
    proc = python(["-X", "importtime", "-c", "import starlog.cli"], timeout=60, stderr=subprocess.PIPE)
    exclusive = {m: 0.0 for mods in SETUP_SPLIT.values() for m in mods}
    pending: list[tuple[int, str, float, float]] = []  # (depth, module, cumulative, nested targets)
    # importtime prints each module after its imports, indented by depth
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, field = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        depth, name, seconds = len(field) - len(field.lstrip()), field.strip(), int(cum) / 1e6
        nested = 0.0
        while pending and pending[-1][0] > depth:
            _, child, child_s, child_nested = pending.pop()
            nested += child_s if child in exclusive else child_nested
        if name in exclusive:
            exclusive[name] += seconds - nested
        pending.append((depth, name, seconds, nested))
    total = sum(exclusive.values())
    out = {metric: sum(exclusive[m] for m in mods) / total for metric, mods in SETUP_SPLIT.items()}
    out["setup.import_s"] = total
    return out


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    args = [str(BENCH / "workloads.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds)]
    if traced:
        args += ["--trace", "--spans", str(RESULTS / f"spans-{workload}-seed{seed}.json")]
    return last_json(python(args, timeout=seconds + 100).stdout)


def environment(seed: int, versions: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        **versions,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": 1,
    }


def measure_end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    half = SETUP_PROBES // 2
    setup = [setup_probe() for _ in range(half + 1)][1:]
    result = run_workload(workload, seed, seconds, traced=False)
    setup += [setup_probe() for _ in range(SETUP_PROBES - half)]
    result["named"]["setup_s"] = {"unit": "s", "median": statistics.median(s for _, s in setup),
                                  "n": len(setup)}
    result["raw_setup_s"] = statistics.median(raw for raw, _ in setup)
    values = {
        "setup_s": result["named"]["setup_s"]["median"],
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_s": result["pass_s"],
        "work_per_s": result["work_per_s"],
    }
    result["setup_s_samples"] = setup
    return values, result


def measure_layers(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    probes = [importtime_probe() for _ in range(IMPORTTIME_PROBES)]
    values = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
    plain = run_workload(workload, seed, seconds / 2, traced=False)
    traced = run_workload(workload, seed, seconds / 2, traced=True)
    values.update(traced["layers"])
    values["trace_overhead_frac"] = traced["pass_s"] / plain["pass_s"] - 1.0
    values.update(last_json(python([str(BENCH / "layers.py"), "--seed", str(seed)], timeout=120).stdout))
    record = {"untraced": plain, "traced": traced, "attempted": plain["attempted"] + traced["attempted"],
              "failed": plain["failed"] + traced["failed"], "named": plain["named"],
              "versions": plain["versions"]}
    return values, record


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measure = measure_layers if trace else measure_end_to_end
    values, record = measure(workload, seed, seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    for name, named in record["named"].items():
        value = named.get("median", named.get("value"))
        print(f"{workload:7s} {name:14s} {value:.6g} {named['unit']}"
              + (f" (median of {named['n']})" if "n" in named else ""))
    env = environment(seed, record["versions"])
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics, "record": record}, fh, indent=1)
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that the correctness gate fails injected faults")
    args = ap.parse_args()
    if not (SRC / "starlog" / "__init__.py").is_file():
        print(f"error: no starlog sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return python([str(BENCH / "workloads.py"), "--self-test"], timeout=170,
                          stdout=None, check=False).returncode
        if args.workload is None:
            ap.error("--workload is required")
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            print(json.dumps(bench(workload, args.seed, args.seconds, bool(args.trace))), flush=True)
    except (BenchError, KeyError, ValueError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
