"""CLI surface: report files, exit codes, determinism, config handling."""

import csv
import json
import subprocess
import sys

import pytest

SMALL_GRID = ["--j", "1", "--k", "1,2", "--A", "1", "--B", "-0.5"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "starlog", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_polylog_prints_zeta2():
    proc = run_cli("polylog", "2", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1.6449340668482264"


def test_verify_small_grid_json(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", *SMALL_GRID, "--out", str(out), "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())
    assert rows, "expected at least one check row"
    expected_keys = {
        "theorem", "j", "k", "A", "B", "seed", "t", "N", "N_d",
        "partial_sum", "bound", "ratio", "pass", "tail_bound", "note",
    }
    for row in rows:
        assert set(row) == expected_keys
        assert row["pass"] is True
    assert {r["theorem"] for r in rows} >= {"ThmA", "Thm2"}


def test_verify_csv_mirror(tmp_path):
    out = tmp_path / "report.csv"
    proc = run_cli("verify", *SMALL_GRID, "--format", "csv", "--out", str(out), "--no-timestamp")
    assert proc.returncode == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and rows[0]["theorem"]
    assert all(r["pass"] == "True" for r in rows)


def test_fault_injection_flips_exit_status(tmp_path):
    out = tmp_path / "fault.json"
    proc = run_cli("verify", *SMALL_GRID, "--inject-d1", "1e-3", "--out", str(out), "--no-timestamp")
    assert proc.returncode == 1
    rows = json.loads(out.read_text())
    failed = [r for r in rows if not r["pass"]]
    assert failed and any(r["theorem"] == "ThmA" for r in failed)
    assert "FAILED" in proc.stderr


def test_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", *SMALL_GRID, "--rng-seed", "7", "--no-timestamp"]
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_present_by_default(tmp_path):
    out = tmp_path / "ts.json"
    assert run_cli("verify", *SMALL_GRID, "--out", str(out)).returncode == 0
    rows = json.loads(out.read_text())
    assert all("timestamp" in r and "elapsed" in r for r in rows)


def test_empty_grid_warns_and_exits_zero(tmp_path):
    out = tmp_path / "empty.json"
    proc = run_cli("verify", "--j", "5", "--k", "2", "--out", str(out), "--no-timestamp")
    assert proc.returncode == 0
    assert "empty parameter grid" in proc.stderr
    assert json.loads(out.read_text()) == []


def test_malformed_value_is_config_error():
    proc = run_cli("verify", "--A", "banana")
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_unwritable_output_is_io_error():
    proc = run_cli("verify", *SMALL_GRID, "--out", "/nonexistent-dir/report.json")
    assert proc.returncode == 3


def test_sharpness_requires_slow_mode_at_b_one():
    proc = run_cli("sharpness", "--j", "1", "--k", "1", "--A", "1", "--B", "-1")
    assert proc.returncode == 2
    assert "slow" in proc.stderr


def test_sharpness_small_grid(tmp_path):
    out = tmp_path / "sharp.json"
    proc = run_cli("sharpness", *SMALL_GRID, "--out", str(out), "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())
    assert rows and all(r["pass"] for r in rows)


def test_search_command_reports_ratio():
    proc = run_cli(
        "search", "--j", "1", "--k", "1", "--A", "1", "--B", "-0.5",
        "--budget", "200", "--rng-seed", "0",
    )
    assert proc.returncode == 0, proc.stderr
    assert "max ratio" in proc.stdout


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("j = 1\nk = 1,2\nA = 1\nB = -0.25  # endpoint-free sweep\nt = 0,1\n")
    out = tmp_path / "cfg.json"
    proc = run_cli(
        "verify", "--config", str(cfg), "--B", "-0.5", "--out", str(out), "--no-timestamp"
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())
    assert {r["B"] for r in rows} == {-0.5}  # flag overrides the file
    assert {r["t"] for r in rows if r["t"] is not None} == {0.0, 1.0}


def test_bad_config_file_is_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    proc = run_cli("verify", "--config", str(cfg))
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--j", "1", "--k", "1", "--A", "nan", "--B", "-0.5"],
        ["verify", "--j", "1", "--k", "1", "--A", "1e300", "--B", "-0.5"],
        ["verify", *SMALL_GRID, "--terms", "-5"],
        ["search", *SMALL_GRID, "--budget", "0"],
        ["search", *SMALL_GRID, "--budget", "10", "--rng-seed", "-1"],
    ],
    ids=["A-nan", "A-1e300", "terms-negative", "budget-zero", "rng-seed-negative"],
)
def test_invalid_input_is_config_error(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "a(0) = 0" not in proc.stderr
