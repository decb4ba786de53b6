"""CLI surface: report files, exit codes, determinism, config handling."""

import csv
import json
import math
import subprocess
import sys

import pytest

from starlog.cli import MAX_TERMS, build_parser, main, write_report
from starlog.members import ExpDamp, Identity, Polynomial
from starlog.verify import DEFAULT_TOL, SHARPNESS_TOL

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


SEED_LIST = "identity,expdamp:0.3,1.0,poly:0.5,0.25i"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_seed_list_keeps_multi_value_descriptors(tmp_path, source):
    out = tmp_path / "seeds.json"
    argv = ["verify", "--j", "1", "--k", "1", "--A", "1", "--B", "-0.5", "--out", str(out), "--no-timestamp"]
    if source == "flag":
        argv += ["--seeds", SEED_LIST]
    else:
        cfg = tmp_path / "seeds.cfg"
        cfg.write_text(f"seeds = {SEED_LIST}\n")
        argv += ["--config", str(cfg)]
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    labels = {r["seed"] for r in json.loads(out.read_text())}
    expected = [Identity(), ExpDamp(theta=0.3, c=1.0), Polynomial(coeffs=(0.5, 0.25j))]
    assert labels == {s.label() for s in expected}


@pytest.mark.parametrize(
    "seeds", ["expdamp:0.3", "expdamp:0.3,1.0,2.0", "rotation:1.3,0.5", "0.3,identity", "poly:2", "banana"]
)
def test_malformed_seed_list_is_config_error(seeds, capsys):
    assert main(["verify", *SMALL_GRID, "--seeds", seeds]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["report", "-"])
def test_search_reads_out_from_config(tmp_path, out):
    report = tmp_path / "search.json"
    cfg = tmp_path / "search.cfg"
    cfg.write_text(f"j = 1\nk = 1\nA = 1\nB = -0.5\nbudget = 40\nout = {report if out == 'report' else '-'}\n")
    proc = run_cli("search", "--config", str(cfg), "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    if out == "report":
        assert [r["theorem"] for r in json.loads(report.read_text())] == ["ThmA-search"]
    else:
        assert not report.exists()
        assert proc.stdout.startswith("search (") and proc.stdout.count("\n") == 1



def exit_code(argv):
    """main()'s exit code, including argparse's SystemExit on a bad flag value."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, line",
    [
        (["search", *SMALL_GRID, "--budget", "20"], "famly = poly"),
        (["sharpness", "--j", "1", "--k", "1", "--A", "1", "--B", "-1"], "slow = 1"),
        (["verify", *SMALL_GRID], "config = other.cfg"),
        (["verify", *SMALL_GRID], "no-timestamp = 1"),
    ],
    ids=["typo", "switch-slow", "config", "switch-no-timestamp"],
)
def test_unknown_config_key_is_config_error(tmp_path, capsys, argv, line):
    cfg = tmp_path / "bad-key.cfg"
    cfg.write_text(line + "\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    key = line.split("=")[0].strip().replace("-", "_")
    assert "config error" in err and repr(key) in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (["search", *SMALL_GRID, "--budget", "20"], "family = banana"),
        (["verify", *SMALL_GRID], "format = xml"),
    ],
    ids=["family", "format"],
)
def test_config_value_outside_choices_is_config_error(tmp_path, argv, line):
    cfg = tmp_path / "bad-choice.cfg"
    cfg.write_text(line + "\n")
    proc = run_cli(*argv, "--config", str(cfg))
    assert proc.returncode == 2
    assert "config error" in proc.stderr and line.split(" = ")[1] in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "config-inf"])
def test_tol_must_be_finite_and_nonnegative(tmp_path, tol):
    argv = ["verify", *SMALL_GRID, "--inject-d1", "10"]
    if tol == "config-inf":
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("tol = inf\n")
        argv += ["--config", str(cfg)]
    else:
        argv.append(f"--tol={tol}")
    assert exit_code(argv) == 2


@pytest.mark.parametrize("command", ["sharpness", "search"])
def test_empty_grid_warns_in_every_command(tmp_path, command):
    out = tmp_path / "empty.json"
    proc = run_cli(command, "--j", "5", "--k", "2", "--out", str(out), "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    assert "empty parameter grid" in proc.stderr
    assert json.loads(out.read_text()) == []


def test_negative_b_list_with_equals_sign(tmp_path):
    out = tmp_path / "b-list.json"
    argv = ["verify", "--j", "1", "--k", "1", "--A", "1", "--B=-0.5,-0.9", "--out", str(out)]
    assert main([*argv, "--no-timestamp"]) == 0
    assert {r["B"] for r in json.loads(out.read_text())} == {-0.5, -0.9}


@pytest.mark.parametrize("flag", ["--j", "--k", "--B", "--t"])
def test_malformed_number_is_config_error(capsys, flag):
    argv = ["verify", *SMALL_GRID, "--t", "0"]
    argv[argv.index(flag) + 1] = "x"
    assert main(argv) == 2
    assert f"bad {flag[2:]} value" in capsys.readouterr().err


def test_cli_import_leaves_scipy_special_and_optimize_unloaded():
    code = (
        "import sys, starlog.cli; "
        "print(sorted({'scipy.special', 'scipy.optimize'} & sys.modules.keys()))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_nan_weight_exponent_exits_instead_of_looping():
    proc = subprocess.run(
        [sys.executable, "-m", "starlog", "verify", *SMALL_GRID, "--t", "nan"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "weight exponent" in proc.stderr


@pytest.mark.parametrize("t", ["-inf", "inf"])
@pytest.mark.parametrize("B", ["-0.5", "-1"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_infinite_weight_exponent_is_an_error_not_a_violation(tmp_path, capsys, t, B, source):
    out = tmp_path / "inf-t.json"
    argv = ["verify", "--j", "1", "--k", "1", "--A", "1", f"--B={B}", "--out", str(out)]
    if source == "config":
        cfg = tmp_path / "inf-t.cfg"
        cfg.write_text(f"t = 0,{t}\n")
        argv += ["--config", str(cfg)]
    else:
        argv.append(f"--t=0,{t}")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "weight exponent" in err and "FAILED" not in err


@pytest.mark.parametrize("terms", [10**30, MAX_TERMS + 1])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_terms_above_max_is_config_error(tmp_path, capsys, terms, source):
    argv = ["verify", *SMALL_GRID]
    if source == "flag":
        argv += ["--terms", str(terms)]
    else:
        cfg = tmp_path / "terms.cfg"
        cfg.write_text(f"terms = {terms}\n")
        argv += ["--config", str(cfg)]
    assert exit_code(argv) == 2
    assert "--terms" in capsys.readouterr().err


NAN_ROWS = [
    {"theorem": "ThmA", "A": "1.0", "t": None, "ratio": math.nan, "pass": False, "note": ""},
    {"theorem": "Thm3(t=2)", "A": "0.8+0.3i", "t": 2.0, "bound": math.inf, "pass": True},
]


@pytest.mark.parametrize("rows", [[], NAN_ROWS], ids=["empty", "nan-inf"])
def test_json_report_parses_back_to_rows(tmp_path, rows):
    out = tmp_path / "rows.json"
    write_report(rows, str(out), "json")
    text = out.read_text()
    # repr compares NaN by spelling; == would call two NaNs unequal
    assert repr(json.loads(text)) == repr(rows)
    assert len(text.splitlines()) == (len(rows) + 2 if rows else 1)  # one line per row


def test_large_a_extremal_member_passes(tmp_path):
    # the extremal member used to lose all precision for large |A - B| / m
    out = tmp_path / "large-a.json"
    argv = ["verify", "--j", "1", "--k", "1", "--A", "1e3", "--B", "-0.5", "--out", str(out)]
    assert main([*argv, "--no-timestamp"]) == 0
    assert all(r["pass"] and abs(r["ratio"] - 1) <= 1e-12 for r in json.loads(out.read_text()))


@pytest.mark.parametrize(
    "command, tol", [("verify", DEFAULT_TOL), ("sharpness", SHARPNESS_TOL), ("search", DEFAULT_TOL)]
)
def test_tol_defaults_come_from_verify(command, tol):
    assert build_parser().parse_args([command]).tol == tol
