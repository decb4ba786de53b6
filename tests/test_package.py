"""The package namespace and the README's Python example."""

import contextlib
import io
import re
from pathlib import Path

import starlog

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(starlog.__all__) == len(set(starlog.__all__))
    for name in starlog.__all__:
        assert hasattr(starlog, name), name


def test_readme_quick_start_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    partial, bound, passed = out.getvalue().split()
    assert 0 < float(partial) <= float(bound)
    assert passed == "True"
