"""Command-line front end: parameter sweeps, sharpness certification,
adversarial search, and polylogarithm evaluation.

Reports are machine-readable (JSON canonical, CSV mirror) with one row per
check; rows are sorted deterministically so identical inputs produce
byte-identical files once timestamps are suppressed.

Exit codes: 0 success, 1 check failure, 2 config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from datetime import datetime, timezone

from .bounds import extremal_tail_bound
from .errors import ConfigError, InvalidParams, SharpnessFailure, SlowModeRequired, StarlogError
from .members import (
    ClassParams,
    ExpDamp,
    Identity,
    Polynomial,
    Rotation,
    SchwarzSeed,
    check_pair,
    member_from_seed,
    suggested_order,
)
from .polylog import li
from .search import FAMILIES, adversarial_search
from .verify import check_sharpness, verify_member

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

REPORT_COLUMNS = [
    "theorem",
    "j",
    "k",
    "A",
    "B",
    "seed",
    "t",
    "N",
    "N_d",
    "partial_sum",
    "bound",
    "ratio",
    "pass",
    "tail_bound",
    "note",
    "elapsed",
    "timestamp",
]

DEFAULTS = {
    "j": "0,1,2",
    "k": "1,2,3,4",
    "A": "1,0.5,0.8+0.3i",
    "B": "0,-0.25,-0.5,-0.75,-0.9",
    "t": "-1,0,1,2",
    "seeds": "identity",
    "terms": 0,  # 0 means auto per (params)
    "tol": None,  # per-command default
    "rng_seed": 0,
    "out": "-",
    "format": "json",
    "family": "expdamp",
    "budget": 2000,
}

SEED_KINDS = ("identity", "rotation", "expdamp", "poly")


def parse_complex(token: str) -> complex:
    """Parse `re+imi` syntax, e.g. 0.8+0.3i or -0.5 or 1-0.2i."""
    text = token.strip().replace("i", "j")
    try:
        return complex(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex value {token!r}") from exc


def format_complex(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _split(text: str) -> list[str]:
    return [tok for tok in str(text).split(",") if tok.strip() != ""]


def _split_seeds(text: str) -> list[str]:
    """Split a seed list at the commas that start a new descriptor.

    The commas inside `expdamp:theta,c` and `poly:p1,p2,...` stay with their
    descriptor; a token that does not start with a seed kind joins the one
    before it.
    """
    seeds: list[str] = []
    for tok in _split(text):
        kind = tok.partition(":")[0].strip().lower()
        if seeds and kind not in SEED_KINDS:
            seeds[-1] += "," + tok
        else:
            seeds.append(tok)
    return seeds


def parse_seed(token: str) -> SchwarzSeed:
    """Seed descriptor: identity | rotation:theta | expdamp:theta,c | poly:p1,p2,..."""
    name, _, rest = token.strip().partition(":")
    name = name.strip().lower()
    try:
        if name == "identity":
            return Identity()
        if name == "rotation":
            return Rotation(theta=float(rest))
        if name == "expdamp":
            theta, c = _split(rest)
            return ExpDamp(theta=float(theta), c=float(c))
        if name == "poly":
            return Polynomial(coeffs=tuple(parse_complex(p) for p in _split(rest)))
    except (ValueError, StarlogError) as exc:
        raise ConfigError(f"bad seed descriptor {token!r}: {exc}") from exc
    raise ConfigError(f"unknown seed kind {name!r} in {token!r}")


def load_config_file(path: str) -> dict:
    """Flat key=value file mirroring the long flags; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _setting(args: argparse.Namespace, config: dict, key: str, cast=None):
    """Flag value if given, else config-file value, else built-in default."""
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    if key in config:
        raw = config[key]
        if cast is not None:
            try:
                return cast(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key}={raw!r}: {exc}") from exc
        return raw
    return DEFAULTS.get(key)


def _int_setting(args: argparse.Namespace, config: dict, key: str, minimum: int) -> int:
    value = int(_setting(args, config, key, int))
    if value < minimum:
        raise ConfigError(f"{key} = {value} must be at least {minimum}")
    return value


def _parse_grid(args, config):
    js = [int(v) for v in _split(_setting(args, config, "j"))]
    ks = [int(v) for v in _split(_setting(args, config, "k"))]
    As = [parse_complex(v) for v in _split(_setting(args, config, "A"))]
    Bs = [float(v) for v in _split(_setting(args, config, "B"))]
    grid, skipped = [], []
    for j in js:
        for k in ks:
            try:
                check_pair(j, k)
            except InvalidParams as exc:
                skipped.append((j, k, str(exc)))
                continue
            # an invalid A or B is a config error, not a point to skip
            grid.extend(ClassParams(j=j, k=k, A=A, B=B) for A in As for B in Bs)
    return grid, skipped


def _log_skipped(skipped):
    for j, k, reason in skipped:
        print(f"warning: skipping (j, k) = ({j}, {k}): {reason}", file=sys.stderr)


def _finish_rows(rows, no_timestamp: bool):
    rows.sort(
        key=lambda r: (
            r["j"],
            r["k"],
            r["A"],
            r["B"],
            r["seed"],
            r["theorem"],
            r["t"] if r["t"] is not None else -math.inf,
        )
    )
    if no_timestamp:
        for row in rows:
            row.pop("elapsed", None)
            row.pop("timestamp", None)
    return rows


def write_report(rows, out: str, fmt: str):
    if fmt == "json":
        text = json.dumps(rows, indent=2, allow_nan=True) + "\n"
    elif fmt == "csv":
        columns = [c for c in REPORT_COLUMNS if any(c in row for row in rows)] or REPORT_COLUMNS
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: ("" if row.get(c) is None else row.get(c)) for c in columns})
        text = buf.getvalue()
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_verify(args) -> int:
    config = load_config_file(args.config) if args.config else {}
    grid, skipped = _parse_grid(args, config)
    _log_skipped(skipped)
    seeds = [parse_seed(s) for s in _split_seeds(_setting(args, config, "seeds"))]
    t_values = tuple(float(v) for v in _split(_setting(args, config, "t")))
    tol = _setting(args, config, "tol", float)
    tol = 1e-9 if tol is None else float(tol)
    terms = _int_setting(args, config, "terms", minimum=0)
    inject = float(getattr(args, "inject_d1", 0.0) or 0.0)
    timestamp = datetime.now(timezone.utc).isoformat()

    if not grid:
        print("warning: empty parameter grid; nothing to verify", file=sys.stderr)
        write_report([], _setting(args, config, "out"), _setting(args, config, "format"))
        return EXIT_OK

    rows = []
    failures = 0
    for params in grid:
        order = terms if terms > 0 else suggested_order(params)
        for seed in seeds:
            start = time.perf_counter()
            member = member_from_seed(params, seed, order)
            report = verify_member(member, t_values=t_values, tol=tol, d1_offset=inject)
            elapsed = time.perf_counter() - start
            for check in report.rows:
                if not check.passed:
                    failures += 1
                rows.append(
                    {
                        "theorem": check.theorem,
                        "j": params.j,
                        "k": params.k,
                        "A": format_complex(params.A),
                        "B": params.B,
                        "seed": report.seed_label,
                        "t": check.t,
                        "N": report.order,
                        "N_d": report.n_terms,
                        "partial_sum": check.partial_sum,
                        "bound": check.bound,
                        "ratio": check.ratio,
                        "pass": check.passed,
                        "tail_bound": report.tail_bound,
                        "note": check.note,
                        "elapsed": elapsed,
                        "timestamp": timestamp,
                    }
                )

    rows = _finish_rows(rows, args.no_timestamp)
    write_report(rows, _setting(args, config, "out"), _setting(args, config, "format"))
    if failures:
        failed = [r for r in rows if not r["pass"]]
        print(f"FAILED: {failures} of {len(rows)} checks violated their bound", file=sys.stderr)
        for row in failed[:20]:
            print(
                f"  {row['theorem']} (j={row['j']}, k={row['k']}, A={row['A']}, "
                f"B={row['B']}, seed={row['seed']}): ratio={row['ratio']}",
                file=sys.stderr,
            )
        return EXIT_CHECK_FAILED
    print(f"ok: {len(rows)} checks passed on {len(grid)} parameter points", file=sys.stderr)
    return EXIT_OK


def cmd_sharpness(args) -> int:
    config = load_config_file(args.config) if args.config else {}
    grid, skipped = _parse_grid(args, config)
    _log_skipped(skipped)
    tol = _setting(args, config, "tol", float)
    tol = 1e-8 if tol is None else float(tol)
    terms = _int_setting(args, config, "terms", minimum=0)
    timestamp = datetime.now(timezone.utc).isoformat()

    rows = []
    failures = 0
    for params in grid:
        start = time.perf_counter()
        try:
            result = check_sharpness(
                params, order=(terms if terms > 0 else None), tol=tol, slow=args.slow
            )
        except SlowModeRequired as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except SharpnessFailure as exc:
            result = {
                "order": terms,
                "n_terms": None,
                "partial_sum": None,
                "tail_bound": None,
                "bound": None,
                "pass": False,
                "note": f"term-by-term equality failed at n={exc.n}: {exc}",
            }
        elapsed = time.perf_counter() - start
        if not result["pass"]:
            failures += 1
        rows.append(
            {
                "theorem": "ThmA-sharpness",
                "j": params.j,
                "k": params.k,
                "A": format_complex(params.A),
                "B": params.B,
                "seed": "identity",
                "t": None,
                "N": result.get("order"),
                "N_d": result.get("n_terms"),
                "partial_sum": result.get("partial_sum"),
                "bound": result.get("bound"),
                "ratio": (
                    (result["partial_sum"] + result["tail_bound"]) / result["bound"]
                    if result.get("bound")
                    else None
                ),
                "pass": result["pass"],
                "tail_bound": result.get("tail_bound"),
                "note": result.get("note", ""),
                "elapsed": elapsed,
                "timestamp": timestamp,
            }
        )

    rows = _finish_rows(rows, args.no_timestamp)
    write_report(rows, _setting(args, config, "out"), _setting(args, config, "format"))
    if failures:
        print(f"FAILED: {failures} of {len(rows)} sharpness certificates", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"ok: {len(rows)} sharpness certificates", file=sys.stderr)
    return EXIT_OK


def cmd_search(args) -> int:
    config = load_config_file(args.config) if args.config else {}
    grid, skipped = _parse_grid(args, config)
    _log_skipped(skipped)
    family = _setting(args, config, "family")
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
    budget = _int_setting(args, config, "budget", minimum=1)
    rng_seed = _int_setting(args, config, "rng_seed", minimum=0)
    terms = _int_setting(args, config, "terms", minimum=0)
    tol = _setting(args, config, "tol", float)
    tol = 1e-9 if tol is None else float(tol)
    timestamp = datetime.now(timezone.utc).isoformat()

    rows = []
    failures = 0
    for params in grid:
        start = time.perf_counter()
        report = adversarial_search(
            params,
            family=family,
            budget=budget,
            rng_seed=rng_seed,
            order=(terms if terms > 0 else None),
        )
        elapsed = time.perf_counter() - start
        passed = report.max_ratio <= 1.0 + tol
        if not passed:
            failures += 1
        print(
            f"search (j={params.j}, k={params.k}, A={format_complex(params.A)}, "
            f"B={params.B}) [{family}]: max ratio {report.max_ratio!r} at "
            f"{report.best_seed.label()} after {report.evaluations} evaluations"
            f"{'' if report.converged else ' (did not converge)'}",
        )
        rows.append(
            {
                "theorem": "ThmA-search",
                "j": params.j,
                "k": params.k,
                "A": format_complex(params.A),
                "B": params.B,
                "seed": report.best_seed.label(),
                "t": None,
                "N": terms if terms > 0 else suggested_order(params),
                "N_d": None,
                "partial_sum": None,
                "bound": None,
                "ratio": report.max_ratio,
                "pass": passed,
                "tail_bound": None,
                "note": (
                    f"family={family} budget={budget} evaluations={report.evaluations} "
                    f"converged={report.converged}"
                ),
                "elapsed": elapsed,
                "timestamp": timestamp,
            }
        )

    rows = _finish_rows(rows, args.no_timestamp)
    out = _setting(args, config, "out")
    if out != "-":  # stdout carries the summary lines, so "-" writes no report
        write_report(rows, out, _setting(args, config, "format"))
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def cmd_polylog(args) -> int:
    value = li(args.v, args.x)
    print(repr(value))
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--j", help="comma list of j values")
    parser.add_argument("--k", help="comma list of k values")
    parser.add_argument("--A", help="comma list of complex A values, re+imi syntax")
    parser.add_argument("--B", help="comma list of real B values in [-1, 0]")
    parser.add_argument("--t", help="comma list of weight exponents t <= 2")
    parser.add_argument("--terms", type=int, help="truncation order N >= 0 (0 = auto)")
    parser.add_argument("--seeds", help="comma list of seed descriptors")
    parser.add_argument("--tol", type=float, help="pass tolerance on ratios")
    parser.add_argument("--rng-seed", dest="rng_seed", type=int, help="deterministic RNG seed")
    parser.add_argument("--out", help="report path ('-' = stdout)")
    parser.add_argument("--format", choices=["json", "csv"], help="report format")
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="drop timestamp/elapsed fields for byte-identical reruns",
    )
    parser.add_argument("--slow", action="store_true", help="allow long-tail certifications")
    parser.add_argument("--config", help="flat key=value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starlog",
        description="Verify logarithmic-coefficient bounds for Janowski-type "
        "(j,k)-symmetric starlike functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run every bound check over a parameter sweep")
    _add_common(p_verify)
    p_verify.add_argument(
        "--inject-d1",
        dest="inject_d1",
        type=float,
        default=0.0,
        help="fault-injection test hook: offset added to d_1 before checking",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_sharp = sub.add_parser("sharpness", help="certify equality at the extremal member")
    _add_common(p_sharp)
    p_sharp.set_defaults(func=cmd_sharpness)

    p_search = sub.add_parser("search", help="adversarial search for bound violations")
    _add_common(p_search)
    p_search.add_argument("--family", choices=list(FAMILIES), help="seed family to search")
    p_search.add_argument("--budget", type=int, help="evaluation budget")
    p_search.set_defaults(func=cmd_search)

    p_li = sub.add_parser("polylog", help="evaluate Li_v(x) at full precision")
    p_li.add_argument("v", type=float)
    p_li.add_argument("x", type=float)
    p_li.set_defaults(func=cmd_polylog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except StarlogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
