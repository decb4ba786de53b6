"""The package namespace, the README's Python example, and the names the
benchmark reads from the package."""

import ast
import contextlib
import importlib
import io
import re
import subprocess
import sys
from pathlib import Path

import starlog

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

#: the API that the commands and the README quick start use
API = [
    "CheckRow",
    "ClassMember",
    "ClassParams",
    "ExpDamp",
    "Identity",
    "Polynomial",
    "Rotation",
    "SchwarzSeed",
    "SearchReport",
    "adversarial_search",
    "check_sharpness",
    "extremal_function",
    "extremal_tail_bound",
    "li",
    "member_from_seed",
    "suggested_order",
    "thm2_bound",
    "thm3_bound",
    "thm_a_bound",
    "verify_member",
]
#: names no command runs: the series and sum helpers stay in their modules, which the
#: benchmark imports; the proof-chain checkers and the closed form are in tests/proofchain.py
CUT_FROM_NAMESPACE = [
    "LogCoeffVector", "TruncatedSeries", "abel_weight_transfer", "extremal_log_coefficient",
    "log_coefficients", "rogosinski_l2_check", "seed_series", "sum_n2", "sum_sq", "sum_weighted",
    "telescoping_weight",
]
MOVED_TO_TESTS = {
    "errors": ["HypothesisViolated"],
    "logcoeffs": ["extremal_log_coefficient", "log_coefficients"],
    "verify": ["SLACK_ABS", "SLACK_REL", "abel_weight_transfer", "rogosinski_l2_check",
               "telescoping_weight"],
}


def test_every_exported_name_resolves_once():
    assert len(starlog.__all__) == len(set(starlog.__all__))
    for name in starlog.__all__:
        assert hasattr(starlog, name), name


def test_the_namespace_is_the_documented_api():
    assert starlog.__all__ == API
    for name in CUT_FROM_NAMESPACE:
        assert not hasattr(starlog, name), name
    for module, names in MOVED_TO_TESTS.items():
        for name in names:
            assert not hasattr(importlib.import_module(f"starlog.{module}"), name), (module, name)


def test_the_cli_import_leaves_logcoeffs_unloaded():
    code = "import sys, starlog.cli; print('starlog.logcoeffs' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def starlog_reads(path: Path) -> set:
    """(module, attribute chain) of each starlog name that a benchmark file reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {}  # a local name -> the dotted path it is bound to
    imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "starlog":
            aliases.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "starlog":
                    aliases[a.asname or "starlog"] = a.name if a.asname else "starlog"
                    imports.add(a.name)
    reads = {(path, ()) for path in {*aliases.values(), *imports}}
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            reads.add((aliases[node.id], tuple(chain)))
    return reads


def test_every_starlog_name_the_benchmark_reads_resolves():
    # bench/run.py --trace 1 runs layers.py and the workloads, and imports every traced layer
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(n.value) for n in tree.body
                  if isinstance(n, ast.Assign) and n.targets[0].id == "LAYERS")
    reads = {(f"starlog.{layer}", ()) for layer in layers}
    for name in ("layers.py", "workloads.py"):
        reads |= starlog_reads(ROOT / "bench" / name)
    assert ("starlog.logcoeffs", ("sum_weighted",)) in reads  # the scan sees `from starlog import`
    assert ("starlog", ("search", "adversarial_search")) in reads  # ... and `import starlog.x`
    for path, chain in sorted(reads, key=lambda read: len(read[1])):  # imports first
        module, _, attr = path.rpartition(".")
        try:
            obj = importlib.import_module(path)
        except ModuleNotFoundError:
            obj = getattr(importlib.import_module(module), attr)
        for attr in chain:
            assert hasattr(obj, attr), (path, chain)
            obj = getattr(obj, attr)


def test_readme_quick_start_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    partial, bound, passed = out.getvalue().split()
    assert 0 < float(partial) <= float(bound)
    assert passed == "True"
