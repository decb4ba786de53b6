"""CLI surface: report files, exit codes, determinism, config handling."""

import csv
import dataclasses
import io
import itertools
import json
import math
import re
import shlex
import subprocess
import sys
import warnings
from collections import Counter
from datetime import datetime
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from starlog import cli
from starlog.cli import MAX_TERMS, REPORT_COLUMNS, build_parser, main, write_report
from starlog.errors import ConfigError
from starlog.members import (
    ClassParams,
    ExpDamp,
    Identity,
    Polynomial,
    Rotation,
    member_from_seed,
    suggested_order,
)
from starlog.verify import DEFAULT_TOL, SHARPNESS_TOL, CheckRow, check_sharpness, verify_member

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


def test_overflowing_fault_injection_fails_every_row_without_a_warning(tmp_path):
    # |d_1|^2 overflows to inf: every sum is inf, so every ratio is inf and fails
    out = tmp_path / "overflow.json"
    argv = ["--j", "1", "--k", "1", "--A", "1", "--B=-0.5", "--inject-d1", "1e200"]
    proc = run_cli("verify", *argv, "--out", str(out), "--no-timestamp")
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr and proc.stderr.startswith("FAILED: 6 of 6")
    rows = json.loads(out.read_text())
    assert len(rows) == 6 and all(not r["pass"] and r["ratio"] == math.inf for r in rows)


def test_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", *SMALL_GRID, "--no-timestamp"]
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


def test_sharpness_at_b_one_ignores_the_slow_flag():
    # the flag certifies nothing more; existing command lines still pass it
    argv = ["sharpness", "--j", "1", "--k", "1", "--A", "1", "--B", "-1", "--no-timestamp"]
    plain, flagged = run_cli(*argv), run_cli(*argv, "--slow")
    assert plain.returncode == 0, plain.stderr
    assert flagged.returncode == 0, flagged.stderr
    assert plain.stdout == flagged.stdout


@pytest.mark.parametrize("k, terms", [("1", "512"), ("4", "2048")])
def test_koebe_sharpness_takes_the_suggested_order(capsys, k, terms):
    # B = -1 has no order rule of its own: the default is suggested_order, 512 m
    argv = ["sharpness", "--j", "1", "--k", k, "--A", "1", "--B=-1", "--no-timestamp"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--terms", terms]) == 0
    assert capsys.readouterr().out == default


# the term test compares the unit |q_n|^2, so at large A it is not below one ulp of
# |d_n|^2 = G |q_n|^2 (|d_3|^2 = 1822828.06... at B = -0.9, G = 2.5e7)
@pytest.mark.parametrize("B", ["-0.9", "-1"])
def test_large_a_extremal_member_certifies(capsys, B):
    assert main(["sharpness", "--j", "1", "--k", "1", "--A", "1e4", f"--B={B}",
                 "--no-timestamp"]) == 0


def test_sharpness_small_grid(tmp_path):
    out = tmp_path / "sharp.json"
    proc = run_cli("sharpness", *SMALL_GRID, "--out", str(out), "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())
    assert rows and all(r["pass"] for r in rows)


def test_check_row_fields_are_the_report_columns():
    # `passed` is reported as `pass`, the only renamed column; the parameters and the
    # timing are the only columns a CheckRow does not carry
    columns = ["pass" if name == "passed" else name for name in CheckRow._fields]
    assert "passed" not in REPORT_COLUMNS and "pass" in REPORT_COLUMNS
    assert set(CheckRow._fields) - {"passed"} <= set(REPORT_COLUMNS)
    assert set(REPORT_COLUMNS) - set(columns) == {"j", "k", "A", "B", "elapsed", "timestamp"}


def test_report_row_carries_every_check_row_field(tmp_path):
    out = tmp_path / "sharp.json"
    assert main(["sharpness", "--j", "1", "--k", "2", "--A", "0.8+0.3i", "--B=-0.5",
                 "--no-timestamp", "--out", str(out)]) == 0
    [row] = json.loads(out.read_text())
    check = check_sharpness(ClassParams(1, 2, 0.8 + 0.3j, -0.5))
    assert {name: row["pass" if name == "passed" else name] for name in CheckRow._fields} == (
        check._asdict()
    )
    assert (row["j"], row["k"], row["A"], row["B"]) == (1, 2, "0.8+0.3i", -0.5)


def test_failed_sharpness_row_reports_the_order_it_ran_at(tmp_path, monkeypatch, capsys):
    import starlog.verify as verify_mod
    from starlog.members import unit_log_coefficients

    def perturbed_unit(B, seed, n_d):
        q = unit_log_coefficients(B, seed, n_d).copy()
        q[0] += 5e-5  # breaks |d_1|^2 equality
        return q

    monkeypatch.setattr(verify_mod, "unit_log_coefficients", perturbed_unit)
    out = tmp_path / "sharp.json"
    argv = ["sharpness", "--j", "1", "--k", "1", "--A", "1", "--B=-0.5", "--out", str(out)]
    assert main([*argv, "--no-timestamp"]) == 1
    [row] = json.loads(out.read_text())
    assert row["pass"] is False and "n=1" in row["note"]
    # --terms is auto (0): the row gives the order suggested_order picked
    assert (row["N"], row["N_d"]) == (22, 22)
    assert "FAILED" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["--A", "inf"], "|A - B|^2 is not a finite double"),
        (["--A=-inf"], "|A - B|^2 is not a finite double"),
        (["--A", "Infinity"], "|A - B|^2 is not a finite double"),
        (["--A", "1", "--seeds", "poly:inf"], "polynomial seed violates sum |p_i| <= 1"),
    ],
)
def test_infinite_value_is_rejected_for_what_it_is(capsys, argv, reason):
    # the i of inf is not the imaginary unit: the value parses, and then fails its check
    assert main(["verify", "--j", "1", "--k", "1", *argv, "--B=-0.5"]) == 2
    err = capsys.readouterr().err
    assert reason in err and "cannot parse" not in err


@pytest.mark.parametrize(
    "token, value",
    [("0.8+0.3i", 0.8 + 0.3j), ("1-0.2i", 1 - 0.2j), ("i", 1j), ("-0.5", -0.5), (" 2i ", 2j),
     ("inf", complex(math.inf)), ("-infi", complex(0, -math.inf))],
)
def test_parse_complex_reads_a_trailing_i_as_the_imaginary_unit(token, value):
    assert repr(cli.parse_complex(token)) == repr(complex(value))  # repr tells -0.0 from 0.0


SEED_LIST = "identity,expdamp:0.3,1.0,poly:0.5,0.25i"


def test_expdamp_seed_with_underflowing_damping_is_verified_on_its_real_coefficients():
    # at c = 750, e^{-c} is 0 in doubles: the member must not collapse to v = 0
    argv = ["--j", "1", "--k", "1", "--A", "1", "--B=-0.5", "--terms", "2000"]
    proc = run_cli("verify", *argv, "--seeds", "expdamp:0,750", "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert len(rows) == 6 and all(r["pass"] for r in rows)
    assert all(r["partial_sum"] > 0 for r in rows)


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
    "seeds",
    ["expdamp:0.3", "expdamp:0.3,1.0,2.0", "rotation:1.3,0.5", "0.3,identity", "poly:2", "banana", ""],
)
def test_malformed_seed_list_is_config_error(seeds, capsys):
    assert main(["verify", *SMALL_GRID, "--seeds", seeds]) == 2
    assert "config error" in capsys.readouterr().err


SEED_FORMS = {"identity": "identity", "rotation": "rotation:theta", "expdamp": "expdamp:theta,c"}


@pytest.mark.parametrize(
    "seeds, given",
    [("expdamp:1", 1), ("expdamp:1,2,3", 3), ("expdamp:", 0),
     ("identity:3", 1), ("rotation:", 0), ("rotation:1.3,0.5", 2)],
)
def test_expdamp_value_count_is_named(seeds, given, capsys):
    # every fixed-count kind: not Python's unpacking or float error, nor a value dropped,
    # but the expected form and the count given
    assert main(["verify", *SMALL_GRID, "--seeds", seeds]) == 2
    err = capsys.readouterr().err
    form = SEED_FORMS[seeds.partition(":")[0]]
    assert f"bad seed descriptor {seeds!r}: expected {form}, got {given} value(s)" in err
    assert "unpack" not in err and "convert" not in err


SEED_VALUES = st.floats(allow_nan=False).map(repr) | st.sampled_from(["nan", "-0.0", "1e999", "x"])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from([*cli.SEED_TYPES, "banana", ""]),
    values=st.lists(SEED_VALUES, max_size=4),
)
def test_seed_descriptor_gives_its_values_or_a_config_error(kind, values, capsys):
    # an accepted descriptor's seed holds exactly the values given; a rejected one exits 2
    descriptor = f"{kind}:{','.join(values)}" if values else kind
    try:
        seed = cli.parse_seed(descriptor)
    except ConfigError:
        assert main(["verify", *SMALL_GRID, "--seeds", descriptor]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        return
    if isinstance(seed, Polynomial):
        held, given = seed.coeffs, tuple(map(cli.parse_complex, values))
    else:
        held, given = dataclasses.astuple(seed), tuple(map(float, values))
    assert type(seed) is cli.SEED_TYPES[kind] and len(held) == len(values) and held == given


@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_t_list_is_config_error(tmp_path, capsys, source):
    # an empty list would drop every Thm3 check and still report "ok"
    argv = ["verify", *SMALL_GRID]
    if source == "flag":
        argv.append("--t=")
    else:
        cfg = tmp_path / "empty-t.cfg"
        cfg.write_text("t =\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert "config error: empty t list" in capsys.readouterr().err


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



@pytest.mark.parametrize("command", ["verify", "sharpness", "search"])
def test_underflowing_lead_factor_is_a_config_error(tmp_path, command):
    # at A = 1e-170, B = 0 every bound's scale G underflows to 0
    out = tmp_path / "report.json"
    grid = ["--j", "1", "--k", "1", "--A", "1e-170", "--B", "0"]
    budget = ["--budget", "20"] if command == "search" else []
    proc = run_cli(command, *grid, *budget, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "positive normal double" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, theorem",
    [
        (["--A", "1", "--B=-0.5", "--t=-1100"], "Thm3(t=-1100)"),
        (["--A", "1.3e154", "--B=-0.5"], "Thm3(t=2)"),
        (["--A", "1e150", "--B=-0.999999999999", "--terms", "64"], "Thm2"),
    ],
    ids=["Thm3-underflow", "Thm3-overflow", "Thm2-overflow"],
)
def test_bound_outside_the_normal_doubles_is_a_config_error(tmp_path, grid, theorem):
    # a zero bound gives a NaN ratio and an infinite one inf / inf: neither is a verdict
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--j", "1", "--k", "1", *grid, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert f"error: {theorem} bound at A = " in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_very_negative_weight_with_a_normal_bound_passes():
    proc = run_cli("verify", "--j", "1", "--k", "1", "--A", "1", "--B=-0.5", "--t=-1000")
    assert proc.returncode == 0, proc.stderr


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


def test_cli_import_leaves_scipy_linalg_special_and_optimize_unloaded():
    code = (
        "import sys, starlog.cli; "
        "print(sorted({'scipy.linalg', 'scipy.special', 'scipy.optimize'} & sys.modules.keys()))"
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


NAN_INF_CHECKS = (  # in report order
    CheckRow("Thm3(t=2)", "identity", 2.0, 20, 20, None, math.inf, 0.0, True, None, "vacuous"),
    CheckRow("ThmA", "identity", None, 20, 20, 1.5, 1.0, math.nan, False, None, ""),
    # one column holds 0.0, -0.0, NaN, inf and -inf, and 0.1 repeats across rows and
    # columns: a float text may be reused only for a float that json.dumps writes alike
    CheckRow("Thm2", "rotation(1.3)", None, 20, 20, 0.0, 0.1, 0.0, True, 0.1, ""),
    CheckRow("Thm3(t=0)", "rotation(1.3)", 0.0, 20, 20, -0.0, 0.1, -0.0, True, None, ""),
    CheckRow("Thm3(t=1)", "rotation(1.3)", 1.0, 20, 20, math.nan, 0.1, math.nan, False, 0.1, ""),
    CheckRow("Thm3(t=2)", "rotation(1.3)", 2.0, 20, 20, math.inf, 0.1, math.inf, False, -0.0, ""),
    CheckRow("ThmA", "rotation(1.3)", None, 20, 20, -math.inf, 0.1, 0.0, True, 0.0, ""),
)


@pytest.mark.parametrize("checks", [(), NAN_INF_CHECKS], ids=["empty", "nan-inf"])
def test_json_report_parses_back_to_rows(tmp_path, checks):
    out = tmp_path / "rows.json"
    params, stamp = ClassParams(1, 2, 0.8 + 0.3j, -0.5), "2024-02-29T12:00:00+00:00"
    write_report([(params, checks, 0.25)] if checks else [], str(out), "json", stamp)
    text = out.read_text()
    rows = [
        {"theorem": check.theorem, "j": 1, "k": 2, "A": "0.8+0.3i", "B": -0.5,
         **{"pass" if f == "passed" else f: getattr(check, f) for f in CheckRow._fields[1:]},
         "elapsed": 0.25, "timestamp": stamp}
        for check in checks
    ]
    # repr compares NaN by spelling; == would call two NaNs unequal
    assert repr(json.loads(text)) == repr(rows)
    assert text == json_oracle(rows)
    assert len(text.splitlines()) == (len(rows) + 2 if rows else 1)  # one line per row


EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
               sys.float_info.max, -sys.float_info.max, 0.1]
EDGE_TEXTS = ['"', "\\", '0, "k": 0', "\x00\x1f\x7f\n\t", "é∑😀", "\ud800", "a\udfffb"]
FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(EDGE_FLOATS)
#: every value type a CheckRow field holds, beyond what the pipeline makes: json.dumps
#: is the oracle, np.float64 included
REPORT_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200) | st.sampled_from([2**63, -(2**64)]),
    FLOATS,
    FLOATS.map(np.float64),
    st.text(st.characters(exclude_categories=())) | st.sampled_from(EDGE_TEXTS),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    values=st.lists(REPORT_VALUES, min_size=len(CheckRow._fields), max_size=len(CheckRow._fields)),
    B=st.sampled_from([0.0, -0.0, -0.5, -1.0]),
    stamp=st.sampled_from([None, "2024-02-29T12:00:00+00:00"]),
)
def test_json_row_is_json_dumps_of_any_row(tmp_path, values, B, stamp):
    out, check = tmp_path / "row.json", CheckRow(*values)
    write_report([(ClassParams(1, 2, 0.8 + 0.3j, B), (check,), 0.25)], str(out), "json", stamp)
    row = dict(zip(REPORT_COLUMNS, (check.theorem, 1, 2, "0.8+0.3i", B, *check[1:])))
    if stamp is not None:
        row.update(elapsed=0.25, timestamp=stamp)
    assert out.read_text() == json_oracle([row])


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True)], ids=["int64", "bool_"])
@pytest.mark.parametrize("field", ["N", "passed"])
def test_value_json_cannot_write_is_a_type_error(tmp_path, value, field):
    with pytest.raises(TypeError):
        json.dumps(value)  # the oracle
    check = NAN_INF_CHECKS[1]._replace(**{field: value})
    out = tmp_path / "row.json"
    with pytest.raises(TypeError):
        write_report([(ClassParams(1, 2, 1, -0.5), (check,), 0.25)], str(out), "json", None)
    assert not out.exists()


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


GRID_KEYS = {"j", "k", "A", "B", "terms", "tol", "out", "format"}
COMMAND_KEYS = {
    "verify": GRID_KEYS | {"t", "seeds", "inject_d1"},
    "sharpness": GRID_KEYS,
    "search": GRID_KEYS | {"family", "budget", "rng_seed"},
}
KEY_VALUES = {
    "j": "1", "k": "2", "A": "0.5", "B": "-0.5", "terms": "30", "tol": "0.1", "out": "r.json",
    "format": "csv", "t": "0,1", "seeds": "rotation:1.3", "inject_d1": "0.5", "family": "poly",
    "budget": "5", "rng_seed": "3",
}


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_config_keys_are_the_value_flags_the_command_reads(tmp_path, command):
    keys = COMMAND_KEYS[command]
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {KEY_VALUES[key]}\n" for key in sorted(keys)))
    parser = build_parser()
    args = parser.parse_args([command, "--config", str(cfg)])
    assert set(args.config_flags) == keys
    from_config = parser.parse_args([command, *cli._config_argv(args)])
    flags = [f"--{key.replace('_', '-')}={KEY_VALUES[key]}" for key in sorted(keys)]
    from_flags = parser.parse_args([command, *flags])
    defaults = parser.parse_args([command])
    assert vars(from_config) == vars(from_flags)
    assert all(getattr(from_flags, key) != getattr(defaults, key) for key in keys)


REMOVED_FLAGS = [
    ("verify", "--rng-seed", "1"),
    ("verify", "--slow", None),
    ("sharpness", "--t", "0"),
    ("sharpness", "--seeds", "identity"),
    ("sharpness", "--rng-seed", "1"),
    ("search", "--t", "0"),
    ("search", "--seeds", "identity"),
    ("search", "--slow", None),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS)
def test_flag_the_command_does_not_read_is_rejected(tmp_path, capsys, source, command, flag, value):
    argv = [command, *SMALL_GRID]
    key = flag[2:].replace("-", "_")
    if source == "flag":
        assert exit_code([*argv, flag, *([value] if value else [])]) == 2
        assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err
    else:
        cfg = tmp_path / "other-command.cfg"
        cfg.write_text(f"{key} = {value or 1}\n")
        assert main([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: unknown config key {key!r}" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [("verify", "--inj", "1e-3"), ("search", "--bud", "20"), ("search", "--rng", "3")],
)
def test_flag_prefix_is_not_a_second_spelling(capsys, command, flag, value):
    # each flag has one spelling, the one a config file accepts as its key
    assert exit_code([command, *SMALL_GRID, flag, value]) == 2
    assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_config_values_do_not_outlive_their_call(tmp_path):
    # the parser is built once per process, so a config file must not change it
    assert build_parser() is build_parser()
    cfg = tmp_path / "leak.cfg"
    cfg.write_text("B = -0.25\nformat = csv\n")
    first, second = tmp_path / "first.csv", tmp_path / "second.json"
    argv = ["verify", "--j", "1", "--k", "1", "--A", "1", "--no-timestamp"]
    assert main([*argv, "--config", str(cfg), "--out", str(first)]) == 0
    assert first.read_text().startswith("theorem,")
    assert main([*argv, "--out", str(second)]) == 0
    assert sorted({r["B"] for r in json.loads(second.read_text())}) == [-0.9, -0.75, -0.5, -0.25, 0]


def readme_command_lines():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("starlog ")]


@pytest.mark.parametrize("argv", readme_command_lines(), ids=lambda argv: argv[0])
def test_readme_command_lines_exit_zero(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0


THREE_SEEDS = ["--seeds", "identity,rotation:1.3,rotation:4.1"]


def report_order(row: dict) -> tuple:
    """The report's row order: j, k, A as written, B, seed, theorem, then t, None first."""
    t = -math.inf if row["t"] is None else row["t"]
    return (row["j"], row["k"], row["A"], row["B"], row["seed"], row["theorem"], t)


def json_oracle(rows: list[dict]) -> str:
    """A JSON report of `rows`: one `json.dumps` line per row."""
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n" if rows else "[]\n"


def first_difference(got: str, want: str):
    """None where the texts are equal, else the number of their first differing
    line and its two versions: a short failure, where pytest would diff the
    long texts for minutes."""
    if got == want:
        return None
    pairs = itertools.zip_longest(got.splitlines(), want.splitlines())
    return next((n, a, b) for n, (a, b) in enumerate(pairs) if a != b)


def csv_oracle(rows: list[dict], columns: list[str]) -> str:
    """A CSV report of `rows`, written by `csv.DictWriter`."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows({c: "" if row[c] is None else row[c] for c in columns} for row in rows)
    return buf.getvalue()


def failed_count(stderr):
    return sum(int(n) for n in re.findall(r"^FAILED: (\d+) of", stderr, flags=re.M))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", *THREE_SEEDS],
        ["verify", *THREE_SEEDS, "--inject-d1", "0.5"],
        ["verify", *THREE_SEEDS, "--terms", "64"],
        ["verify", *THREE_SEEDS, "--B=0,-0.0"],
        # three spellings of A = 1, and one (j, k) pair twice: rows that tie in the order
        ["verify", "--A", "1,1-0i,1.0", "--seeds", "identity,rotation:2"],
        ["verify", "--j", "1,1", "--k", "2,2"],
        ["sharpness"],
        # (0, 2) and (1, 1) share m = 1
        ["search", "--j", "0,1", "--k", "1,2", "--A", "1,0.8+0.3i", "--B=-0.5,-0.9", "--budget", "200"],
    ],
    ids=["verify", "inject-d1", "terms", "signed-zero-B", "tied-A", "tied-jk", "sharpness",
         "search"],
)
def test_grid_report_is_its_one_pair_reports_merged(tmp_path, capsys, argv, fmt):
    # a grid command computes each distinct (m, A, B) once and reuses it for every
    # (j, k) with that m; its report must still be the one-pair runs' rows, sorted
    parsed = build_parser().parse_args(argv)
    rows, codes, stdout, failed = [], [], "", 0
    for j in parsed.j.split(","):
        for k in parsed.k.split(","):
            out = tmp_path / f"{j}-{k}.json"
            codes.append(main([*argv, "--j", j, "--k", k, "--out", str(out), "--no-timestamp"]))
            rows += json.loads(out.read_text())
            captured = capsys.readouterr()
            stdout, failed = stdout + captured.out, failed + failed_count(captured.err)
    rows.sort(key=report_order)  # stable: tied rows keep the order they ran in
    expected = json_oracle(rows) if fmt == "json" else csv_oracle(rows, list(rows[0]))
    report = tmp_path / f"grid.{fmt}"
    code = main([*argv, "--format", fmt, "--out", str(report), "--no-timestamp"])
    captured = capsys.readouterr()
    assert first_difference(report.read_text(), expected) is None
    assert code == max(codes)
    assert failed_count(captured.err) == failed
    assert captured.out == stdout  # the search's one line per point, in grid order


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_tied_rows_keep_grid_order(tmp_path, fmt):
    # B = 0 and -0.0 tie in the row order; each tie keeps grid order, 0, -0.0, 0
    out = tmp_path / f"tied.{fmt}"
    argv = ["verify", "--j", "1", "--k", "2", "--A", "1", "--B=0,-0.0,0", "--no-timestamp"]
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = json.load(fh) if fmt == "json" else list(csv.DictReader(fh))
    assert [str(row["B"]) for row in rows] == ["0.0", "-0.0", "0.0"] * 6


def test_failed_summary_lists_the_reports_first_failed_rows(tmp_path, capsys):
    out = tmp_path / "failed.json"
    argv = ["verify", *THREE_SEEDS, "--inject-d1", "0.5", "--no-timestamp", "--out", str(out)]
    assert main(argv) == 1
    failed = [row for row in json.loads(out.read_text()) if not row["pass"]]
    listed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("  ")]
    assert listed == [
        f"  {r['theorem']} (j={r['j']}, k={r['k']}, A={r['A']}, B={r['B']}, "
        f"seed={r['seed']}): ratio={r['ratio']}"
        for r in failed[:20]
    ]


def count_calls(monkeypatch, name, key=lambda params, *args: params.m):
    """Record `key` of the arguments of every call `cli` makes to its function
    `name`: by default the m of its first argument, a ClassParams."""
    calls, real = [], getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(key(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def count_unit_solves(monkeypatch):
    """Record the (B, seed, N_d) of every unit solve `cli` asks for."""
    return count_calls(monkeypatch, "unit_log_coefficients", key=lambda *args: args)


def test_default_sweep_builds_each_distinct_point_once(tmp_path, monkeypatch):
    solves = count_unit_solves(monkeypatch)
    out = tmp_path / "sweep.json"
    assert main(["verify", *THREE_SEEDS, "--out", str(out), "--no-timestamp"]) == 0
    # 135 grid points, 75 distinct (m, A, B), but 5 B times 3 seeds at one N_d each:
    # 15 unit solves, where a member per (m, A, B, seed) would be 225
    assert len(json.loads(out.read_text())) == 135 * 3 * 6
    assert len(solves) == len(set(solves)) == 15
    assert {n_d for _, _, n_d in solves} == {32, 11, 22, 54, 150}


@pytest.mark.parametrize("terms, ks, searched_ms, orders", [
    # the default order gives m = 1 and m = 2 one N_d, 150, at B = -0.9: one search
    ("0", "1,2", [1], [150, 150, 300]),
    # an explicit order gives m = 1..4 the N_d 12, 6, 4 and 3: a search each
    ("12", "1,2,3,4", [1, 2, 3, 4], [12] * 7),
], ids=["default-order", "terms-12"])
def test_search_runs_once_per_distinct_b_and_n_d(tmp_path, monkeypatch, capsys, terms, ks,
                                                  searched_ms, orders):
    ms = count_calls(monkeypatch, "adversarial_search")
    out = tmp_path / "search.json"
    argv = ["search", "--j", "0,1", "--k", ks, "--A", "1,0.8+0.3i", "--B=-0.9", "--budget", "60",
            "--terms", terms, "--no-timestamp", "--out", str(out)]
    assert main(argv) == 0
    assert ms == searched_ms
    rows = json.loads(out.read_text())
    # every point with one (B, N_d) reports its search, under its own N
    assert [row["N"] for row in rows if row["A"] == "1.0"] == orders
    tails = {line.split(": ", 1)[1] for line in capsys.readouterr().out.splitlines()}
    assert len(tails) == len(searched_ms)


def test_computed_points_do_not_outlive_their_command(tmp_path, monkeypatch):
    solves = count_unit_solves(monkeypatch)
    argv = ["verify", "--j", "0,1", "--k", "1,2", "--A", "1", "--B=-0.5", "--no-timestamp"]
    for run in (1, 2):
        assert main([*argv, "--out", str(tmp_path / f"{run}.json")]) == 0
        # m = 1 and m = 2 share their one unit solve within a command, never across two
        assert solves == [(-0.5, Identity(), 22)] * run


#: `verify`'s default --t
DEFAULT_T = (-1.0, 0.0, 1.0, 2.0)


def member_path_pairs(rows: list[dict], seeds, t_values, terms: int = 0, d1_offset=0.0):
    """Each report row with the `verify_member` row of its point and seed, on
    that seed's own member: a point's rows, grouped by (j, k, A, B as written),
    are its seeds' member rows in check order, tied checks in seed order."""
    points: dict = {}
    for row in rows:
        points.setdefault((row["j"], row["k"], row["A"], repr(row["B"])), []).append(row)
    for (j, k, A, B), got in points.items():
        params = ClassParams(j, k, cli.parse_complex(A), float(B))
        order = terms or suggested_order(params)
        members = (member_from_seed(params, seed, order) for seed in seeds)
        want = [r for m in members for r in verify_member(m, t_values, DEFAULT_TOL, d1_offset)]
        want.sort(key=cli._check_key)
        assert len(got) == len(want)
        yield from zip(got, want)


def assert_member_row(row: dict, want: CheckRow, rel: float = 1e-13) -> None:
    """The report row has the member row's verdict, note, labels and counts,
    and its numbers within `rel` (equal where not both finite), or within
    2 N_d u relative, u = 2^-53, where that is larger: each path's d_N_d comes
    out of an N_d-step recursion, and near B = -1, where |B| x rounds a part
    of an ulp off x at every step, each can drift by up to about N_d u."""
    labels = ("theorem", "seed", "t", "N", "N_d", "note")
    assert [row[c] for c in labels] == [getattr(want, c) for c in labels]
    assert row["pass"] == want.passed
    rel = max(rel, 2 * want.N_d * 2.0**-53)
    for name in ("partial_sum", "bound", "ratio", "tail_bound"):
        got, exp = row[name], getattr(want, name)
        if got is None or exp is None or not (math.isfinite(got) and math.isfinite(exp)):
            assert got == exp or (got != got and exp != exp), (name, got, exp)
        else:
            assert abs(got - exp) <= rel * abs(exp), (name, got, exp, row)


def seed_descriptor(seed) -> str:
    if isinstance(seed, Identity):
        return "identity"
    if isinstance(seed, Rotation):
        return f"rotation:{seed.theta!r}"
    if isinstance(seed, ExpDamp):
        return f"expdamp:{seed.theta!r},{seed.c!r}"
    return "poly:" + ",".join(map(cli.format_complex, seed.coeffs))


ANGLES = st.floats(-7.0, 7.0, allow_nan=False)
SEEDS = st.one_of(
    st.just(Identity()),
    st.builds(Rotation, ANGLES),
    st.builds(ExpDamp, ANGLES, st.floats(0.0, 6.0) | st.sampled_from([0.0, 50.0, 800.0])),
    st.lists(st.complex_numbers(max_magnitude=0.33, allow_nan=False), min_size=1, max_size=3)
    .map(lambda cs: Polynomial(tuple(cs))),
)


A_VALUES = [1.0, 0.5, 0.8 + 0.3j, 1e4, 3700 + 1100j, -0.2 + 1e-3j]
#: each --t set with the A values it is drawn with: below t = -1022 the weight rows start
#: below the normal range, and Thm3's bound, about G 2^t, stays normal only for G >= 2^28,
#: which takes A >= about 1.7e5 at m = 5
T_SETS = {
    DEFAULT_T: A_VALUES,
    (-300.0, 0.5, 1.5, 2.0): A_VALUES,
    (-1050.0, -1040.0, -1.5, 0.5): [1e6, 3e6 + 1e6j],
}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    js=st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True),
    ks=st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True),
    t_and_As=st.sampled_from(list(T_SETS)).flatmap(lambda t: st.tuples(
        st.just(t), st.lists(st.sampled_from(T_SETS[t]), min_size=1, max_size=2, unique=True))),
    Bs=st.lists(st.sampled_from([0.0, -0.0, -1.0, -0.5, -0.99]) | st.floats(-1.0, 0.0),
                min_size=1, max_size=2, unique_by=repr),
    seeds=st.lists(SEEDS, min_size=1, max_size=3),
    terms=st.just(0) | st.integers(5, 300),
)
# |q_1|^2 is subnormal: G times it rounded twice, one ulp from the member's |d_1|^2
@example(js=[0], ks=[1, 2], t_and_As=(DEFAULT_T, [1.0]), Bs=[0.0],
         seeds=[Polynomial((2.225199645155884e-160,))], terms=0)
# N_d = 4096 one ulp from B = -1: the member's d_n drifts 1.5e-13 relative from G^(1/2) q_n
@example(js=[0], ks=[2], t_and_As=(DEFAULT_T, [0.5]), Bs=[-0.9999999999999999], seeds=[Identity()],
         terms=0)
# v_1 = 0: no n = 1 term keeps the sums of the rows below the normal range normal
@example(js=[1], ks=[1], t_and_As=((-1050.0, -1040.0, -1.5, 0.5), [1e6]), Bs=[-0.5],
         seeds=[Polynomial((0.0, 0.0, 0.3))], terms=0)
def test_verify_rows_in_units_of_g_match_each_members_rows(tmp_path, js, ks, t_and_As, Bs, seeds,
                                                          terms):
    # the sums come from one unit solve per (B, seed, N_d), scaled by each point's G;
    # every row is the row of that point's own member, to rounding
    t_values, As = t_and_As
    out = tmp_path / "units.json"
    descriptors = [seed_descriptor(seed) for seed in seeds]
    seeds = [cli.parse_seed(text) for text in descriptors]  # as written, e.g. -0j as 0j
    argv = [
        "verify", "--j", ",".join(map(str, js)), "--k", ",".join(map(str, ks)),
        "--A=" + ",".join(map(cli.format_complex, As)), "--B=" + ",".join(map(repr, Bs)),
        "--seeds", ",".join(descriptors), "--terms", str(terms),
        "--t=" + ",".join(map(repr, t_values)), "--no-timestamp", "--out", str(out),
    ]
    assert main(argv) == 0
    rows = json.loads(out.read_text())
    for row, want in member_path_pairs(rows, seeds, t_values, terms):
        assert_member_row(row, want)


@pytest.mark.parametrize("seed", ["poly:0.7,0.1", "poly:0.3+0.2i"])
def test_sums_on_weight_rows_below_the_normal_range_round_once(tmp_path, seed):
    # (n+1)^t is subnormal from n = 1 at t = -1050: unlifted, G times a unit sum already
    # rounded there would round twice, 2e-8 relative from the member's sum at A = 1e5
    t_values = (-1040.0, -1050.0)
    out = tmp_path / "deep.json"
    argv = ["verify", "--j", "1", "--k", "1", "--A", "1e5", "--B=-0.5", "--seeds", seed,
            "--t=-1040,-1050", "--no-timestamp", "--out", str(out)]
    assert main(argv) == 0
    rows = json.loads(out.read_text())
    pairs = list(member_path_pairs(rows, [cli.parse_seed(seed)], t_values))
    assert [row["theorem"] for row, _ in pairs] == ["Thm2", "Thm3(t=-1040)", "Thm3(t=-1050)", "ThmA"]
    assert all(0 < row["partial_sum"] < 2.0**-1000 for row, _ in pairs[1:3])
    for row, want in pairs:
        assert_member_row(row, want)


@pytest.mark.parametrize("delta", [0.0, 1e154])
def test_unit_sums_scale_past_the_largest_double_only_where_the_sum_does(tmp_path, delta):
    # G = 2.5e307 and the lifted unit sums are 2^4 times the plain ones: their product
    # with G passes the largest double, though the Thm2 sum itself, 1.57e307, is below
    # its bound; with d_1 moved by 1e154 the Thm3(t=2) sum itself overflows, and fails
    seed = "poly:0,0,0.7,0.2"
    out = tmp_path / "huge.json"
    argv = ["verify", "--j", "1", "--k", "1", "--A", "1e154", "--B=-0.5", "--t=1,2",
            "--seeds", seed, "--inject-d1", repr(delta), "--no-timestamp", "--out", str(out)]
    assert main(argv) == (1 if delta else 0)
    rows = json.loads(out.read_text())
    pairs = list(member_path_pairs(rows, [cli.parse_seed(seed)], (1.0, 2.0), d1_offset=delta))
    assert len(pairs) == 4
    for row, want in pairs:
        assert_member_row(row, want)
    sums = {row["theorem"]: row["partial_sum"] for row in rows}
    if delta:
        assert sums["Thm3(t=2)"] == math.inf
    else:
        assert sums["Thm2"] == 1.565600898737762e307


FAULT_GRID = [
    "verify", "--j", "0,1", "--k", "1,2,3", "--A", "1,0.8+0.3i,1e4", "--B=0,-0.5,-1",
    "--seeds", "identity,rotation:1.3,expdamp:2,0.5,poly:0.5,0.25i", "--no-timestamp",
]
FAULT_SEEDS = (Identity(), Rotation(1.3), ExpDamp(2.0, 0.5), Polynomial((0.5, 0.25j)))


@pytest.mark.parametrize("delta", [0.5, 1e-6, math.nan, 1e200])
def test_injected_d1_offset_fails_as_on_each_member(tmp_path, delta):
    # the hook moves q_1 of a copy of the shared unit row by 2 delta/((A - B)/m), so each
    # point fails as its member fails with d_1 + delta, and warns of nothing
    out = tmp_path / "fault.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*FAULT_GRID, "--inject-d1", repr(delta), "--out", str(out)]) == 1
        rows = json.loads(out.read_text())
        pairs = list(member_path_pairs(rows, FAULT_SEEDS, DEFAULT_T, d1_offset=delta))
    assert len(pairs) == 45 * 4 * 6
    assert any(not w.passed for _, w in pairs)
    for row, want in pairs:  # the pass flag, the note, and the numbers to rounding
        assert_member_row(row, want)


def test_thm_a_row_is_the_t_zero_row_bit_for_bit(tmp_path):
    # ThmA's plain squares are Thm3's t = 0 weights, exactly 1, against one kernel: on
    # every default-grid point and each seed kind the two rows agree bit for bit, on the
    # command's unit path and on each member's own path
    out = tmp_path / "t0.json"
    seeds = ",".join(map(seed_descriptor, FAULT_SEEDS))
    assert main(["verify", "--seeds", seeds, "--no-timestamp", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    pairs = list(member_path_pairs(rows, FAULT_SEEDS, DEFAULT_T))
    assert len(pairs) == 135 * 4 * 6
    numbers = ("partial_sum", "bound", "ratio")
    checks: dict = {}
    for row, want in pairs:
        at = (row["j"], row["k"], row["A"], repr(row["B"]), row["seed"])
        checks.setdefault(at, {})[row["theorem"]] = (
            [float(row[name]).hex() for name in numbers],
            [float(getattr(want, name)).hex() for name in numbers],
        )
    assert len(checks) == 135 * 4
    for at, by in checks.items():
        assert by["ThmA"] == by["Thm3(t=0)"], at


# (1, 4) alone, or last in a grid whose earlier points (m = 1..3) have N_d >= 1
@pytest.mark.parametrize("grid, terms, summed_before", [
    (["--j", "1", "--k", "4"], "2", False),
    (["--j", "0,1", "--k", "1,2,3,4"], "3", True),
])
def test_an_order_below_m_is_refused_before_any_sum(tmp_path, monkeypatch, capsys, grid, terms,
                                                    summed_before):
    # N_d = order // m would be 0: no unit row may be made, let alone report empty sums as passes
    lengths = count_calls(monkeypatch, "weighted_sums", key=lambda c, *rest: len(c))
    out = tmp_path / "short.json"
    argv = ["verify", *grid, "--A", "1", "--B=-0.5", "--terms", terms, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith(f"error: order {terms} < m = 4\n")
    assert not out.exists()
    assert 0 not in lengths and bool(lengths) == summed_before


def test_seeds_equal_as_keys_keep_their_own_labels(tmp_path, monkeypatch):
    # Rotation(0.0) == Rotation(-0.0), so they share one unit solve, but not a label
    solves = count_unit_solves(monkeypatch)
    out = tmp_path / "labels.json"
    argv = ["verify", "--j", "0,1", "--k", "1,2", "--A", "1", "--B=-0.5",
            "--seeds", "rotation:0,rotation:-0.0", "--no-timestamp", "--out", str(out)]
    assert main(argv) == 0
    rows = json.loads(out.read_text())
    assert len(solves) == 1
    labels = Counter(row["seed"] for row in rows)
    assert labels == {"rotation(theta=0)": 18, "rotation(theta=-0)": 18}
    for row, want in member_path_pairs(rows, (Rotation(0.0), Rotation(-0.0)), DEFAULT_T):
        assert_member_row(row, want)


def test_default_sweep_plans_each_distinct_point_once(tmp_path, monkeypatch):
    # the bounds of a point depend on it alone: one plan serves its three seeds
    import starlog.verify as verify_mod

    calls, real = [], verify_mod.thm2_bound

    def counted(params):
        calls.append(params.m)
        return real(params)

    monkeypatch.setattr(verify_mod, "thm2_bound", counted)
    out = tmp_path / "sweep.json"
    assert main(["verify", *THREE_SEEDS, "--out", str(out), "--no-timestamp"]) == 0
    assert len(calls) == 75


# at B = -1 Thm2 is skipped and Thm3(t >= 1) vacuous: the summary counts them apart
@pytest.mark.parametrize("argv, counts", [
    (["--t", "1,2"], "ok: 4 checks passed on 1 parameter points compared=1 skipped=1 vacuous=2"),
    ([], "ok: 6 checks passed on 1 parameter points compared=3 skipped=1 vacuous=2"),
    (["--inject-d1", "0.5"],
     "FAILED: 3 of 6 checks violated their bound compared=3 skipped=1 vacuous=2"),
])
def test_summary_counts_skipped_and_vacuous_rows(capsys, argv, counts):
    grid = ["verify", "--j", "1", "--k", "1", "--A", "1", "--B=-1", "--no-timestamp"]
    main([*grid, *argv])
    assert capsys.readouterr().err.splitlines()[0] == counts


def test_summary_without_skipped_or_vacuous_rows_has_no_counts(capsys):
    assert main(["verify", *SMALL_GRID, "--no-timestamp"]) == 0
    assert capsys.readouterr().err == "ok: 12 checks passed on 2 parameter points\n"


def test_search_prints_one_line_per_point_in_grid_order(capsys):
    argv = ["search", "--j", "0,1", "--k", "1,2", "--A", "1", "--B=-0.9", "--budget", "100"]
    assert main([*argv, "--no-timestamp"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(", A=")[0] for line in lines] == [
        "search (j=0, k=2", "search (j=1, k=1", "search (j=1, k=2",
    ]
    # (1, 1) reuses the search of (0, 2) and prints it under its own (j, k)
    assert lines[0].split(", A=")[1] == lines[1].split(", A=")[1]


# (0, 2) and (1, 1) share m = 1, so (1, 1) reuses the checks of (0, 2); (0, 1) is
# skipped; at B = -1 Thm2 is skipped (null bound and ratio) and Thm3(t >= 1) vacuous
# (an Infinity bound)
BYTE_FORM_GRID = ["verify", "--j", "0,1", "--k", "1,2", "--A", "1,0.8+0.3i", "--B=-0.5,-1",
                  "--seeds", "identity,rotation:1.3"]
INJECTED = {"clean": [], "failing": ["--inject-d1", "0.5"], "nan": ["--inject-d1", "nan"]}


@pytest.fixture
def fixed_clock(monkeypatch):
    """Make every command's elapsed values and timestamp the same: each command
    starts `cli`'s perf_counter over, its n-th reading `reading(n)` (n/10 by
    default), and now() is fixed."""

    class Instant(datetime):
        @classmethod
        def now(cls, tz=None):
            return datetime(2024, 2, 29, 12, 0, 0, 123456, tzinfo=tz)

    def restart(reading=lambda n: n / 10):
        ticks = map(reading, itertools.count())
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=ticks.__next__))

    monkeypatch.setattr(cli, "datetime", Instant)
    return restart


def byte_form_rows(rows, injected):
    """Check that the byte-form grid holds the rows it is meant to hold."""
    def at(j, k):
        return [{**r, "j": 0, "k": 0, "elapsed": 0} for r in rows if (r["j"], r["k"]) == (j, k)]

    assert at(0, 2) and at(0, 2) == at(1, 1)  # a reused point: the same rows, its own j and k
    assert len({(r["j"], r["k"]) for r in rows}) == 3
    skipped = [r for r in rows if r["theorem"] == "Thm2" and r["B"] == -1]
    vacuous = [r for r in rows if r["theorem"] == "Thm3(t=1)" and r["B"] == -1]
    assert skipped and all(r["bound"] is None and r["ratio"] is None for r in skipped)
    assert vacuous and all(r["bound"] == math.inf for r in vacuous)
    failed = [r for r in rows if not r["pass"]]
    assert bool(failed) == (injected != "clean")
    if injected == "nan":
        assert all(math.isnan(r["ratio"]) for r in failed)


@pytest.mark.parametrize("stamp", [True, False], ids=["timestamp", "no-timestamp"])
@pytest.mark.parametrize("injected", sorted(INJECTED))
def test_json_report_rows_are_json_dumps_of_the_rows(tmp_path, capsys, injected, stamp):
    out, flags = tmp_path / "report.json", [] if stamp else ["--no-timestamp"]
    assert main([*BYTE_FORM_GRID, *INJECTED[injected], *flags, "--out", str(out)]) == (
        injected != "clean"
    )
    text = out.read_text()
    rows = json.loads(text)
    byte_form_rows(rows, injected)
    assert all(("timestamp" in row) == stamp for row in rows)
    assert first_difference(text, json_oracle(rows)) is None  # each row line is json.dumps(row)
    if injected == "nan":
        assert '"ratio": NaN' in text
    empty = tmp_path / "empty.json"
    assert main(["verify", "--j", "0", "--k", "1", *flags, "--out", str(empty)]) == 0
    assert empty.read_text() == "[]\n"


@pytest.mark.parametrize("stamp", [True, False], ids=["timestamp", "no-timestamp"])
@pytest.mark.parametrize("injected", sorted(INJECTED))
def test_csv_report_is_dict_writer_of_the_json_rows(tmp_path, capsys, fixed_clock, injected, stamp):
    reports, flags = {}, [] if stamp else ["--no-timestamp"]
    for fmt in ("json", "csv"):
        reports[fmt] = tmp_path / f"report.{fmt}"
        argv = [*BYTE_FORM_GRID, *INJECTED[injected], *flags, "--format", fmt]
        fixed_clock()
        assert main([*argv, "--out", str(reports[fmt])]) == (injected != "clean")
    rows = json.loads(reports["json"].read_text())
    byte_form_rows(rows, injected)
    timestamp = "2024-02-29T12:00:00.123456+00:00" if stamp else None
    assert all(row.get("timestamp") == timestamp for row in rows)
    assert all(isinstance(row.get("elapsed"), float) == stamp for row in rows)
    if stamp:  # each point's own elapsed, to the bit: the clock read 2i/10, then (2i + 1)/10
        grid = [(j, k, A, B) for j, k in [(0, 2), (1, 1), (1, 2)]
                for A in ["1.0", "0.8+0.3i"] for B in [-0.5, -1.0]]
        place = {point: i for i, point in enumerate(grid)}
        at = [place[row["j"], row["k"], row["A"], row["B"]] for row in rows]
        assert [row["elapsed"] for row in rows] == [(2 * i + 1) / 10 - 2 * i / 10 for i in at]
    assert first_difference(reports["csv"].read_text(), csv_oracle(rows, list(rows[0]))) is None
    # an empty grid's header names every column, the stamp's too
    empty = tmp_path / "empty.csv"
    argv = ["verify", "--j", "0", "--k", "1", *flags, "--format", "csv"]
    assert main([*argv, "--out", str(empty)]) == 0
    assert empty.read_text() == csv_oracle([], REPORT_COLUMNS)


# at every (j, k) four points tie in the row order: A = 1 and 1-0i, both written 1.0,
# times B = 0 and -0.0; each has its own checks, and (0, 2) and (1, 1) share m
TIED_GRID = ["verify", "--j", "0,1", "--k", "1,2", "--A", "1,1-0i", "--B=0,-0.0",
             "--seeds", "identity,rotation:1.3"]


def test_tied_points_keep_their_own_rows_and_stamps(tmp_path, capsys, fixed_clock):
    reports = {}
    for fmt in ("json", "csv"):
        reports[fmt] = tmp_path / f"tied.{fmt}"
        fixed_clock(lambda n: float(n * n))  # point i reads (2i)^2, then (2i + 1)^2: elapsed 4i + 1
        assert main([*TIED_GRID, "--format", fmt, "--out", str(reports[fmt])]) == 0
    rows = json.loads(reports["json"].read_text())
    grid = [(j, k, B) for j, k in [(0, 2), (1, 1), (1, 2)] for A in ("1", "1-0i") for B in (0.0, -0.0)]
    place = [(row["elapsed"] - 1) / 4 for row in rows]
    assert sorted(place) == [i for i in range(len(grid)) for _ in range(12)]
    for row, i in zip(rows, place):
        j, k, B = grid[int(i)]
        assert (row["j"], row["k"], row["A"], repr(row["B"])) == (j, k, "1.0", repr(B))
        assert row["timestamp"] == "2024-02-29T12:00:00.123456+00:00"
    # point key, check key, then grid order: no two rows of a point share a check key
    assert place == [i for _, i in sorted(zip(map(report_order, rows), place))]
    assert first_difference(reports["json"].read_text(), json_oracle(rows)) is None
    assert first_difference(reports["csv"].read_text(), csv_oracle(rows, list(rows[0]))) is None
