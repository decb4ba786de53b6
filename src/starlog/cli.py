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

from .errors import ConfigError, InvalidParams, SharpnessFailure, StarlogError
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
from .verify import DEFAULT_TOL, SHARPNESS_TOL, check_sharpness, verify_member

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

#: largest --terms accepted; above slow Koebe certification's 10^4 m terms
MAX_TERMS = 10**6

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


def _values(text: str, cast, key: str) -> list:
    """The comma list `text` of `key` values, each through `cast`."""
    try:
        return [cast(tok) for tok in _split(text)]
    except ValueError as exc:
        raise ConfigError(f"bad {key} value in {text!r}: {exc}") from exc


def _parse_grid(args) -> list[ClassParams]:
    """The (j, k, A, B) grid; a (j, k) pair outside the class is skipped with a warning."""
    js, ks = _values(args.j, int, "j"), _values(args.k, int, "k")
    As, Bs = _values(args.A, parse_complex, "A"), _values(args.B, float, "B")
    grid = []
    for j in js:
        for k in ks:
            try:
                check_pair(j, k)
            except InvalidParams as exc:
                print(f"warning: skipping (j, k) = ({j}, {k}): {exc}", file=sys.stderr)
                continue
            # an invalid A or B is a config error, not a point to skip
            grid.extend(ClassParams(j=j, k=k, A=A, B=B) for A in As for B in Bs)
    return grid


def write_report(rows, out: str, fmt: str):
    if fmt == "json":
        # one compact row per line: `indent` would force the pure-Python encoder
        body = ",\n".join(json.dumps(row) for row in rows)
        text = f"[\n{body}\n]\n" if rows else "[]\n"
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


def _verify_rows(args):
    seeds = [parse_seed(s) for s in _split_seeds(args.seeds)]
    t_values = tuple(_values(args.t, float, "t"))

    def rows(params):
        order = args.terms or suggested_order(params)
        for seed in seeds:
            member = member_from_seed(params, seed, order)
            report = verify_member(
                member, t_values=t_values, tol=args.tol, d1_offset=args.inject_d1
            )
            for check in report.rows:
                yield {
                    "theorem": check.theorem,
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
                }

    return rows


def _verify_summary(rows, failed, points):
    if not failed:
        print(f"ok: {len(rows)} checks passed on {points} parameter points", file=sys.stderr)
        return
    print(f"FAILED: {len(failed)} of {len(rows)} checks violated their bound", file=sys.stderr)
    for row in failed[:20]:
        print(
            f"  {row['theorem']} (j={row['j']}, k={row['k']}, A={row['A']}, "
            f"B={row['B']}, seed={row['seed']}): ratio={row['ratio']}",
            file=sys.stderr,
        )


def _sharpness_rows(args):
    def rows(params):
        row = {"theorem": "ThmA-sharpness", "seed": "identity", "note": ""}
        try:
            result = check_sharpness(params, order=args.terms or None, tol=args.tol, slow=args.slow)
        except SharpnessFailure as exc:
            note = f"term-by-term equality failed at n={exc.n}: {exc}"
            return [{**row, "N": args.terms, "pass": False, "note": note}]
        row.update({key: result[key] for key in ("partial_sum", "tail_bound", "bound", "pass")})
        ratio = (row["partial_sum"] + row["tail_bound"]) / row["bound"] if row["bound"] else None
        return [{**row, "N": result["order"], "N_d": result["n_terms"], "ratio": ratio}]

    return rows


def _sharpness_summary(rows, failed, points):
    status = f"FAILED: {len(failed)} of" if failed else "ok:"
    print(f"{status} {len(rows)} sharpness certificates", file=sys.stderr)


def _search_rows(args):
    def rows(params):
        report = adversarial_search(
            params, args.family, args.budget, args.rng_seed, order=args.terms or None
        )
        print(
            f"search (j={params.j}, k={params.k}, A={format_complex(params.A)}, "
            f"B={params.B}) [{args.family}]: max ratio {report.max_ratio!r} at "
            f"{report.best_seed.label()} after {report.evaluations} evaluations"
            f"{'' if report.converged else ' (did not converge)'}",
        )
        return [
            {
                "theorem": "ThmA-search",
                "seed": report.best_seed.label(),
                "N": report.order,
                "ratio": report.max_ratio,
                "pass": report.max_ratio <= 1.0 + args.tol,
                "note": (
                    f"family={args.family} budget={args.budget} "
                    f"evaluations={report.evaluations} converged={report.converged}"
                ),
            }
        ]

    return rows


def _row_key(row: dict) -> tuple:
    t = -math.inf if row["t"] is None else row["t"]
    return (row["j"], row["k"], row["A"], row["B"], row["seed"], row["theorem"], t)


def _run(args) -> int:
    """Run one grid command: `args.rows(args)` maps a ClassParams to its report
    fields, and this does the rest: timing, row filling, sorting, the report,
    the stderr summary (`args.summary`) and the exit code."""
    grid = _parse_grid(args)
    point_rows = args.rows(args)
    timestamp = datetime.now(timezone.utc).isoformat()
    if not grid:
        print("warning: empty parameter grid; nothing to verify", file=sys.stderr)
    empty_row = dict.fromkeys(REPORT_COLUMNS[:-2] if args.no_timestamp else REPORT_COLUMNS)
    rows = []
    for params in grid:
        start = time.perf_counter()
        fields = list(point_rows(params))
        point = dict(empty_row, j=params.j, k=params.k, A=format_complex(params.A), B=params.B)
        if not args.no_timestamp:
            point.update(elapsed=time.perf_counter() - start, timestamp=timestamp)
        rows.extend({**point, **f} for f in fields)  # fields hold report columns only
    rows.sort(key=_row_key)
    failed = [r for r in rows if not r["pass"]]
    # without a summary (search) stdout carries one line per point, so "-" writes no report
    if args.summary or args.out != "-":
        write_report(rows, args.out, args.format)
    if args.summary and grid:
        args.summary(rows, failed, len(grid))
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_polylog(args) -> int:
    print(repr(li(args.v, args.x)))
    return EXIT_OK


def _bounded(cast, minimum, maximum=math.inf):
    """argparse `type=` for a flag and its config value: cast, then require a
    finite value in [minimum, maximum]."""

    def parse(text):
        value = cast(text)
        if not (minimum <= value <= maximum and value < math.inf):  # also false for NaN
            raise argparse.ArgumentTypeError(
                f"expected a finite value in [{minimum}, {maximum}], got {text!r}"
            )
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid float value: 'x'"
    return parse


def _apply_config(args: argparse.Namespace) -> None:
    """Make the config file's values the defaults of the chosen subcommand, whose
    re-parse applies each flag's `type=` to them.  argparse checks no `choices`
    on a default, so that check is made here."""
    config = load_config_file(args.config)
    for key, value in config.items():
        flag = args.config_flags.get(key)
        if flag is None:
            raise ConfigError(f"unknown config key {key!r} for {args.command}")
        if flag.choices is not None and value not in flag.choices:
            raise ConfigError(f"config key {key} = {value!r}: expected one of {list(flag.choices)}")
    args.subparser.set_defaults(**config)


def _grid_command(sub, name: str, help_text: str, *extra) -> argparse.ArgumentParser:
    """Add the grid subcommand `name`, run by `_run`: the shared flags, then
    `extra`, its own value-taking flags as (flag, add_argument keywords) pairs.
    A config file may set every value-taking flag but --config."""
    parser = sub.add_parser(name, help=help_text)
    add = parser.add_argument
    b_help = "comma list of real B values in [-1, 0]; write a list of negatives as --B=-0.5,-0.9"
    flags = [
        add("--j", default="0,1,2", help="comma list of j values"),
        add("--k", default="1,2,3,4", help="comma list of k values"),
        add("--A", default="1,0.5,0.8+0.3i", help="comma list of complex A values, re+imi syntax"),
        add("--B", default="0,-0.25,-0.5,-0.75,-0.9", help=b_help),
        add("--t", default="-1,0,1,2", help="comma list of weight exponents t <= 2"),
        add(
            "--terms",
            type=_bounded(int, 0, MAX_TERMS),
            default=0,
            help=f"truncation order 0 <= N <= {MAX_TERMS} (0 = auto)",
        ),
        add("--seeds", default="identity", help="comma list of seed descriptors"),
        add("--tol", type=_bounded(float, 0.0), help="pass tolerance on ratios, finite and >= 0"),
        add("--rng-seed", type=_bounded(int, 0), default=0, help="deterministic RNG seed"),
        add("--out", default="-", help="report path ('-' = stdout)"),
        add("--format", choices=["json", "csv"], default="json", help="report format"),
    ]
    add(
        "--no-timestamp",
        action="store_true",
        help="drop timestamp/elapsed fields for byte-identical reruns",
    )
    add("--slow", action="store_true", help="allow long-tail certifications")
    add("--config", help="flat key=value config file; flags override it")
    flags += [add(flag, **kw) for flag, kw in extra]
    parser.set_defaults(func=_run, subparser=parser, config_flags={f.dest: f for f in flags})
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starlog",
        description="Verify logarithmic-coefficient bounds for Janowski-type "
        "(j,k)-symmetric starlike functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inject_help = "fault-injection test hook: offset added to d_1 before checking"
    inject = ("--inject-d1", dict(type=float, default=0.0, help=inject_help))
    p_verify = _grid_command(sub, "verify", "run every bound check over a parameter sweep", inject)
    p_verify.set_defaults(rows=_verify_rows, summary=_verify_summary, tol=DEFAULT_TOL)

    p_sharp = _grid_command(sub, "sharpness", "certify equality at the extremal member")
    p_sharp.set_defaults(rows=_sharpness_rows, summary=_sharpness_summary, tol=SHARPNESS_TOL)

    family_help = "seed family to search"
    family = ("--family", dict(choices=list(FAMILIES), default="expdamp", help=family_help))
    budget = ("--budget", dict(type=_bounded(int, 1), default=2000, help="evaluation budget"))
    search_help = "adversarial search for bound violations"
    p_search = _grid_command(sub, "search", search_help, family, budget)
    p_search.set_defaults(rows=_search_rows, summary=None, tol=DEFAULT_TOL)

    p_li = sub.add_parser("polylog", help="evaluate Li_v(x) at full precision")
    p_li.add_argument("v", type=float)
    p_li.add_argument("x", type=float)
    p_li.set_defaults(func=cmd_polylog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(args)
            args = parser.parse_args(argv)
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
