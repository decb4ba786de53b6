"""Mutation gate: each mutant weakens one verdict-bearing line of `src/starlog`,
and the test module named with it must fail on it.

Run from anywhere:

    python tests/mutants.py

A mutant is data: a file under `src/starlog`, the exact old text (which must
occur once in it), the new text, and the test module that must kill it.  The
runner copies `src/` to a temporary directory, applies one mutant there and
runs only the named module, with PYTHONPATH at the copy; it first checks,
on the unmutated copy, that the copy is what `import starlog` loads (an
editable install must not shadow it).  A mutant counts as killed only if its module fails on the mutant and
passes on the unmutated copy.  Exit status 0: every mutant killed; 1: not.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/starlog
    old: str  # occurs exactly once in the file
    new: str
    module: str  # under tests/, the module that must fail on the mutant


MUTANTS = (
    Mutant("verdict tolerance times 10", "verify.py",
           "passed = s is None or ratio <= 1.0 + tol",
           "passed = s is None or ratio <= 1.0 + 10 * tol", "test_verify.py"),
    Mutant("member row passes an inf bound", "verify.py",
           "ratio = s / bound if math.isfinite(bound) and bound > 0 else math.nan",
           "ratio = s / bound if bound > 0 else math.nan", "test_verify.py"),
    Mutant("sharpness passes an inf bound", "verify.py",
           "ok = math.isfinite(bound) and bound > 0",
           "ok = bound > 0", "test_verify.py"),
    Mutant("sharpness tolerance times 100", "verify.py",
           "SHARPNESS_TOL = 1e-8", "SHARPNESS_TOL = 1e-6", "test_verify.py"),
    Mutant("term tolerance 1e-9", "verify.py",
           "COEFF_TOL = 1e-11", "COEFF_TOL = 1e-9", "test_verify.py"),
    Mutant("one-way lift", "verify.py",
           "e = min(max(0, -exp), room - exp)", "e = max(0, -exp)", "test_verify.py"),
    Mutant("lift down to [1/2, 1) at any peak", "verify.py",
           "e = min(max(0, -exp), room - exp)", "e = -exp", "test_verify.py"),
    Mutant("ThmA weighted by (n+1)^1", "verify.py",
           'plan("ThmA", None, 0.0, thm_a_bound)', 'plan("ThmA", None, 1.0, thm_a_bound)',
           "test_verify.py"),
    Mutant("kernel tail switch at 2^-40", "bounds.py",
           "terms[-1] * x > 2**-60 * terms[0]", "terms[-1] * x > 2**-40 * terms[0]",
           "test_bounds.py"),
    Mutant("tail rounding allowance times 10^4", "bounds.py",
           "TAIL_ROUNDING = 1e-13", "TAIL_ROUNDING = 1e-9", "test_verify.py"),
    Mutant("tail without its rounding allowance", "bounds.py",
           "n_terms + 1) * (1.0 + TAIL_ROUNDING)", "n_terms + 1)", "test_bounds.py"),
    Mutant("order tail target times 10^4", "members.py",
           "ORDER_TAIL_EPS = 1e-13", "ORDER_TAIL_EPS = 1e-9", "test_verify.py"),
    Mutant("poly certificate slack 1e-9", "members.py",
           "if not total <= 1.0 + 1e-12:", "if not total <= 1.0 + 1e-9:", "test_search.py"),
    Mutant("pair bound j <= k", "members.py",
           "if not (0 <= j <= k - 1 or (j, k) == (1, 1)):", "if not (0 <= j <= k or (j, k) == (1, 1)):",
           "test_members.py"),
    Mutant("held solve reuses the previous solution", "members.py",
           "x[...] = v  # a fresh rhs", "pass  # a fresh rhs", "test_search.py"),
    Mutant("rotation by -theta", "members.py",
           "cs[1:2] = cmath.exp(1j * self.theta)", "cs[1:2] = cmath.exp(-1j * self.theta)",
           "test_members.py"),
    Mutant("lerch_tail takes a non-finite argument", "polylog.py",
           "if not (finite and mu >= 0.0", "if not (mu >= 0.0", "test_polylog.py"),
    Mutant("projection onto the simplex's boundary", "search.py",
           "p *= (1.0 - 1e-12) / total", "p *= 1.0 / total", "test_search.py"),
)


def mutate(src: Path, mutant: Mutant) -> None:
    """Apply `mutant` to the copy of `src/` at `src`."""
    path = src / "starlog" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name!r}: its old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def environment(src: Path) -> dict:
    """The environment in which `import starlog` reads the copy at `src`."""
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def run_module(src: Path, module: str, work: Path) -> bool:
    """Whether `tests/<module>` passes with `import starlog` reading the copy at `src`.

    pytest runs in `work`, so hypothesis keeps its example database there.
    """
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), str(ROOT / "tests" / module)]
    return subprocess.run(cmd, env=environment(src), cwd=work, capture_output=True).returncode == 0


def main() -> int:
    start = time.perf_counter()
    survived = []
    with tempfile.TemporaryDirectory(prefix="starlog-mutants-") as tmp:
        tmp = Path(tmp)
        clean = tmp / "clean"
        shutil.copytree(ROOT / "src", clean)
        # every copy sits in `tmp` with the same layout, so one probe covers them all
        probe = [sys.executable, "-c", "import starlog; print(starlog.__file__)"]
        loaded = subprocess.run(probe, env=environment(clean), cwd=tmp, capture_output=True,
                                text=True, check=True).stdout.strip()
        if not Path(loaded).resolve().is_relative_to(clean.resolve()):
            raise SystemExit(f"import starlog loads {loaded}, not the copy at {clean}")
        for module in sorted({m.module for m in MUTANTS}):
            t0 = time.perf_counter()
            if not run_module(clean, module, tmp):
                print(f"FAILED unmutated: {module}", flush=True)
                return 1
            print(f"passes unmutated: {module} ({time.perf_counter() - t0:.1f} s)", flush=True)
        for i, mutant in enumerate(MUTANTS):
            src = tmp / f"mutant{i}"
            shutil.copytree(ROOT / "src", src)
            mutate(src, mutant)
            t0 = time.perf_counter()
            killed = not run_module(src, mutant.module, tmp)
            shutil.rmtree(src)
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict}: {mutant.name} by {mutant.module} ({time.perf_counter() - t0:.1f} s)",
                  flush=True)
            if not killed:
                survived.append(mutant.name)
    elapsed = time.perf_counter() - start
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed in {elapsed:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
