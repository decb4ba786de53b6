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
import dataclasses
import functools
import json
import math
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import SimpleNamespace

from .errors import ConfigError, InvalidParams, StarlogError
from .members import (
    ClassParams,
    ExpDamp,
    Identity,
    Polynomial,
    Rotation,
    SchwarzSeed,
    check_pair,
    log_order,
    suggested_order,
    unit_log_coefficients,
)
from .polylog import li
from .search import FAMILIES, adversarial_search
from .verify import DEFAULT_TOL, SHARPNESS_TOL, SKIPPED, VACUOUS, CheckRow, _unit_certificate
from .verify import bound_plan, plan_rows, sharpness_row, weighted_sums

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

#: largest --terms accepted; far above `suggested_order`'s defaults (512 m at B = -1)
MAX_TERMS = 10**6

#: a CheckRow's fields, `passed` written as `pass`, with the parameters after the theorem
REPORT_COLUMNS = [
    "theorem", "j", "k", "A", "B",
    *("pass" if name == "passed" else name for name in CheckRow._fields[1:]),
    "elapsed", "timestamp",
]

#: each seed kind's type: a descriptor gives its dataclass fields' values, in order
SEED_TYPES = {"identity": Identity, "rotation": Rotation, "expdamp": ExpDamp, "poly": Polynomial}

#: each report column's JSON key as a row writes it, `"key": `, after ', ' but the first
_JSON_KEYS = tuple(f"{', ' if i else ''}{json.dumps(c)}: " for i, c in enumerate(REPORT_COLUMNS))


def parse_complex(token: str) -> complex:
    """Parse `re+imi` syntax, e.g. 0.8+0.3i or -0.5 or 1-0.2i.  Only a trailing
    `i` is the imaginary unit: the `i` of `inf` and `Infinity` is not."""
    text = token.strip()
    if text.endswith("i"):
        text = text[:-1] + "j"
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
        if seeds and kind not in SEED_TYPES:
            seeds[-1] += "," + tok
        else:
            seeds.append(tok)
    return seeds


def parse_seed(token: str) -> SchwarzSeed:
    """Seed descriptor: identity | rotation:theta | expdamp:theta,c | poly:p1,p2,...

    One real value per field of the kind's type; poly takes any number of complex
    coefficients (none: the zero seed)."""
    name, _, rest = token.strip().partition(":")
    name = name.strip().lower()
    seed_type = SEED_TYPES.get(name)
    if seed_type is None:
        raise ConfigError(f"unknown seed kind {name!r} in {token!r}")
    values = _split(rest)
    try:
        if seed_type is Polynomial:
            return Polynomial(coeffs=tuple(map(parse_complex, values)))
        fields = [field.name for field in dataclasses.fields(seed_type)]
        if len(values) != len(fields):
            form = f"{name}:{','.join(fields)}" if fields else name
            raise ValueError(f"expected {form}, got {len(values)} value(s)")
        return seed_type(*map(float, values))
    except (ValueError, StarlogError) as exc:
        raise ConfigError(f"bad seed descriptor {token!r}: {exc}") from exc


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


def _point_key(params: ClassParams) -> tuple:
    """A point's place in the report: j, k, A as written, then B."""
    return (params.j, params.k, format_complex(params.A), params.B)


def _check_key(check: CheckRow) -> tuple:
    """A check's place among its point's rows: seed, theorem, then t, None first."""
    return (check.seed, check.theorem, -math.inf if check.t is None else check.t)


def _json_encoder():
    """A function that gives one report value's text as `json.dumps` writes
    it, or raises the `TypeError` it raises: exact floats, ints, strs, bools
    and None by json's own rules, any other type by `json.dumps` itself.

    Most floats of a report repeat, so their texts are memoised in a dict
    that lives as long as the function.  A zero is never kept: 0.0 and -0.0
    are one key.  A NaN is kept under itself, so only the same object finds
    it."""
    floats = {}

    def encode(value) -> str:
        cls = type(value)
        if cls is float:
            text = floats.get(value)
            if text is None:
                if value - value == 0.0:  # finite
                    text = float.__repr__(value)
                else:
                    text = "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
                if value:
                    floats[value] = text
            return text
        if cls is str:
            return encode_basestring_ascii(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if cls is int:
            return int.__repr__(value)
        return json.dumps(value)  # its text, or its TypeError

    return encode


def write_report(points, out: str, fmt: str, timestamp: str | None = None):
    """Write a grid command's report: `points` are its (params, checks,
    elapsed) triples in grid order, and each check is one row.  `timestamp`
    is None for --no-timestamp, which drops the elapsed and timestamp columns.

    Rows are in the order of `_point_key`, then `_check_key`, stably: tied
    rows keep grid order, then check order.  Points that share their `checks`
    tuple share its (m, A, B), so each tuple is encoded once, each check with
    its theorem and the columns from A to note, and its rows are sorted by
    check key once.  The points are then sorted by point key, and each writes
    its tuple's rows with its own j, k and stamp; the rows of points that tie
    on the point key are merged by check key, stably.  A JSON row is the text
    `json.dumps` gives its dict, built from one template over the keys
    (`_JSON_KEYS`) and each value's text (`_json_encoder`, one per call, so no
    float text outlives the report), with A and B encoded once per tuple; a
    CSV row is the text of `csv.DictWriter` with `lineterminator="\n"`."""
    # a row is head, j, sep, k, rest, then pre, elapsed, post, or end without a stamp
    if fmt == "json":
        value = _json_encoder()
        (theorem_key, j_key, sep, a_key, b_key, seed_key, t_key, n_key, n_d_key, sum_key,
         bound_key, ratio_key, pass_key, tail_key, note_key, pre, stamp_key) = _JSON_KEYS

        def encode(checks, a, b) -> list:
            ab = f"{a_key}{value(a)}{b_key}{value(b)}"
            return [
                (
                    f"{{{theorem_key}{value(theorem)}{j_key}",
                    f"{ab}{seed_key}{value(seed)}{t_key}{value(t)}{n_key}{value(N)}"
                    f"{n_d_key}{value(N_d)}{sum_key}{value(partial_sum)}{bound_key}{value(bound)}"
                    f"{ratio_key}{value(ratio)}{pass_key}{value(passed)}"
                    f"{tail_key}{value(tail_bound)}{note_key}{value(note)}",
                )
                for theorem, seed, t, N, N_d, partial_sum, bound, ratio, passed, tail_bound, note
                in checks
            ]

        end, post = "}", f"{stamp_key}{value(timestamp)}}}"
    elif fmt == "csv":
        # writerow returns what the file's write returns: here the line itself
        line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow

        def field(value) -> str:
            # written as the first of two fields: a line of one empty field is '""'
            return line((value, None))[:-2]

        def encode(checks, a, b) -> list:
            return [(f"{field(c.theorem)},", "," + line((a, b, *c[1:]))[:-1]) for c in checks]

        sep, end = ",", "\n"
        pre, post = ",", f",{field(timestamp)}\n"
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    encoded = {}
    placed = []  # each point's (key, its tuple's (check key, (head, rest)) in row order, close)
    for params, checks, elapsed in points:
        key = _point_key(params)
        parts = encoded.get(id(checks))
        if parts is None:
            parts = list(zip(map(_check_key, checks), encode(checks, *key[2:])))
            encoded[id(checks)] = parts
            if len(parts) > 1:
                parts.sort(key=itemgetter(0))
        placed.append((key, parts, end if timestamp is None else f"{pre}{elapsed!r}{post}"))
    if len(placed) > 1:  # the sort's set-up is a measurable share of a one-point report
        placed.sort(key=itemgetter(0))
    lines, n, i = [], len(placed), 0
    while i < n:
        key, tied = placed[i][0], i + 1
        while tied < n and placed[tied][0] == key:  # e.g. B = 0 and -0.0, or a (j, k) twice
            tied += 1
        jk = f"{key[0]}{sep}{key[1]}"
        # each row keeps its own point's A, B and close; tied points merge by check key, stably
        rows = [
            (order, f"{head}{jk}{rest}{close}")
            for _, parts, close in placed[i:tied]
            for order, (head, rest) in parts
        ]
        if tied - i > 1:
            rows.sort(key=itemgetter(0))
        lines += map(itemgetter(1), rows)
        i = tied
    if fmt == "csv":
        columns = REPORT_COLUMNS if timestamp is not None or not lines else REPORT_COLUMNS[:-2]
        text = line(columns) + "".join(lines)
    elif lines:
        text = "[\n" + ",\n".join(lines) + "\n]\n"
    else:
        text = "[]\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _verify_rows(args):
    seeds = [parse_seed(s) for s in _split_seeds(args.seeds)]
    if not seeds:
        raise ConfigError(f"empty seed list {args.seeds!r}")
    t_values = tuple(_values(args.t, float, "t"))
    if not t_values:
        raise ConfigError(f"empty t list {args.t!r}")

    # |d_n|^2 = G |q_n|^2, and q depends only on (B, seed, N_d): this command solves
    # and reduces each q once, against the weight rows of the plan keys, and every
    # point with that key scales the sums by its own G
    units = {}

    def rows(params):
        order = args.terms or suggested_order(params)
        n_d = log_order(params, order)  # an order below m raises here, before any sum
        plan = bound_plan(params, t_values)
        keys = plan[1]
        # the fault hook in units of G: |d_1 + delta|^2 = G |q_1 + 2 delta/((A - B)/m)|^2
        offset = 2.0 * args.inject_d1 / ((params.A - params.B) / params.m)
        for seed in seeds:
            # repr tells B = 0.0 from -0.0, which are one dict key
            key = (repr(params.B), seed, n_d, keys)
            unit = units.get(key)
            if unit is None:
                q = unit_log_coefficients(params.B, seed, n_d)
                unit = units[key] = q, weighted_sums(q, keys)
            q, sums = unit
            if offset:
                sums = weighted_sums(q, keys, offset)
            yield from plan_rows(plan, sums, params.G, params, seed, order, n_d, args.tol)

    return rows


def _verify_summary(points, failed):
    """The ok or FAILED line, counting rows by kind where any was not compared."""
    notes = Counter(check.note for _, checks, _ in points for check in checks)
    n_rows, skipped, vacuous = notes.total(), notes[SKIPPED], notes[VACUOUS]
    counts = f" compared={n_rows - skipped - vacuous} skipped={skipped} vacuous={vacuous}"
    counts = counts if skipped or vacuous else ""
    if not failed:
        ok = f"ok: {n_rows} checks passed on {len(points)} parameter points"
        print(ok + counts, file=sys.stderr)
        return
    print(f"FAILED: {len(failed)} of {n_rows} checks violated their bound{counts}", file=sys.stderr)
    for params, check in failed[:20]:
        print(
            f"  {check.theorem} (j={params.j}, k={params.k}, A={format_complex(params.A)}, "
            f"B={params.B}, seed={check.seed}): ratio={check.ratio}",
            file=sys.stderr,
        )


def _sharpness_rows(args):
    # the term test and sum |q_n|^2 of the extremal member are G-free: this command
    # makes each (B, N_d)'s unit certificate once, and every point with that key
    # scales it by its own G
    certificates = {}

    def rows(params):
        order = args.terms or suggested_order(params)
        n_d = log_order(params, order)  # an order below m raises here
        key = (repr(params.B), n_d)  # repr tells 0.0 from -0.0
        certificate = certificates.get(key)
        if certificate is None:
            certificate = certificates[key] = _unit_certificate(params.B, n_d)
        return [sharpness_row(params, order, certificate, args.tol)]

    return rows


def _sharpness_summary(points, failed):
    status = f"FAILED: {len(failed)} of" if failed else "ok:"
    print(f"{status} {len(points)} sharpness certificates", file=sys.stderr)


def _search_rows(args):
    # the search scores sum |q_n|^2 / K(B), so its report depends on (B, N_d) alone:
    # this command runs each such search once, and every point with that key reads it
    searches = {}

    def rows(params):
        N = args.terms or suggested_order(params)
        key = (repr(params.B), log_order(params, N))  # repr tells 0.0 from -0.0
        report = searches.get(key)
        if report is None:
            report = searches[key] = adversarial_search(
                params, args.family, args.budget, args.rng_seed, order=N
            )
        seed, ratio = report.best_seed.label(), report.max_ratio
        note = (
            f"family={args.family} budget={args.budget} "
            f"evaluations={report.evaluations} converged={report.converged}"
        )
        passed = ratio <= 1.0 + args.tol
        return [CheckRow("ThmA-search", seed, None, N, None, None, None, ratio, passed, None, note)]

    return rows


def _search_echo(args, params, checks):
    """Print a search point's stdout line, read off its one row, whose note
    holds the evaluation count and the convergence flag."""
    [row] = checks
    note = dict(field.split("=") for field in row.note.split())
    print(
        f"search (j={params.j}, k={params.k}, A={format_complex(params.A)}, "
        f"B={params.B}) [{args.family}]: max ratio {row.ratio!r} at {row.seed} after "
        f"{note['evaluations']} evaluations"
        f"{'' if note['converged'] == 'True' else ' (did not converge)'}",
    )


def _run(args) -> int:
    """Run one grid command: `args.rows(args)` maps a ClassParams to its
    CheckRows, and this does the rest: timing, the per-point stdout line
    (`args.echo`, search only), the report, the stderr summary
    (`args.summary`, given the (params, checks, elapsed) triples and the
    failed (params, check) pairs in report order) and the exit code.

    j and k enter a point's checks only through m = j + k - 1, so the checks
    of each distinct (m, A, B) are computed once and every grid point with
    that key reuses them; the memo is local to this call, so no command sees
    another's.  A point's `elapsed` is its time in this call: a lookup, for a
    reused point."""
    grid = _parse_grid(args)
    point_rows = args.rows(args)
    timestamp = datetime.now(timezone.utc).isoformat()
    if not grid:
        print("warning: empty parameter grid; nothing to verify", file=sys.stderr)
    computed = {}
    points = []
    for params in grid:
        start = time.perf_counter()
        # repr tells 0.0 from -0.0, which are one dict key
        key = (params.m, repr(params.A), repr(params.B))
        checks = computed.get(key)
        if checks is None:
            checks = computed[key] = tuple(point_rows(params))
        elapsed = time.perf_counter() - start
        if args.echo:
            args.echo(args, params, checks)
        points.append((params, checks, elapsed))
    failed = [(params, c) for params, checks, _ in points for c in checks if not c.passed]
    failed.sort(key=lambda row: _point_key(row[0]) + _check_key(row[1]))  # the report's order
    # without a summary (search) stdout carries one line per point, so "-" writes no report
    if args.summary or args.out != "-":
        write_report(points, args.out, args.format, None if args.no_timestamp else timestamp)
    if args.summary and grid:
        args.summary(points, failed)
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


def _grid_command(sub, name: str, help_text: str, extra, echo=None, **defaults) -> None:
    """Add the grid subcommand `name`, run by `_run`: the shared flags, then
    `extra`, the flags only this subcommand takes, as (flag, add_argument
    keywords) pairs, then `defaults`; `echo(args, params, checks)`, if given,
    prints a point's stdout line.  A config file may set every value-taking
    flag but --config."""
    parser = sub.add_parser(name, help=help_text, allow_abbrev=False)
    add = parser.add_argument
    b_help = "comma list of real B values in [-1, 0]; write a list of negatives as --B=-0.5,-0.9"
    terms_help = f"truncation order 0 <= N <= {MAX_TERMS} (0 = auto)"
    stamp_help = "drop timestamp/elapsed fields for byte-identical reruns"
    flags = [
        add("--j", default="0,1,2", help="comma list of j values"),
        add("--k", default="1,2,3,4", help="comma list of k values"),
        add("--A", default="1,0.5,0.8+0.3i", help="comma list of complex A values, re+imi syntax"),
        add("--B", default="0,-0.25,-0.5,-0.75,-0.9", help=b_help),
        add("--terms", type=_bounded(int, 0, MAX_TERMS), default=0, help=terms_help),
        add("--tol", type=_bounded(float, 0.0), help="pass tolerance on ratios, finite and >= 0"),
        add("--out", default="-", help="report path ('-' = stdout)"),
        add("--format", choices=["json", "csv"], default="json", help="report format"),
        add("--no-timestamp", action="store_true", help=stamp_help),
    ]
    add("--config", help="flat key=value config file; flags override it")
    flags += [add(flag, **kw) for flag, kw in extra]
    keys = {f.dest: f for f in flags if f.nargs != 0}  # a switch (nargs 0) is no key
    parser.set_defaults(func=_run, config_flags=keys, echo=echo, **defaults)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `starlog` parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="starlog",
        allow_abbrev=False,
        description="Verify logarithmic-coefficient bounds for Janowski-type "
        "(j,k)-symmetric starlike functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inject_help = "fault-injection test hook: offset added to d_1 before checking"
    verify_flags = [
        ("--t", dict(default="-1,0,1,2", help="comma list of weight exponents t <= 2")),
        ("--seeds", dict(default="identity", help="comma list of seed descriptors")),
        ("--inject-d1", dict(type=float, default=0.0, help=inject_help)),
    ]
    _grid_command(sub, "verify", "run every bound check over a parameter sweep", verify_flags,
                  rows=_verify_rows, summary=_verify_summary, tol=DEFAULT_TOL)

    no_op = ("--slow", dict(action="store_true", help="no effect; kept for existing command lines"))
    _grid_command(sub, "sharpness", "certify equality at the extremal member", [no_op],
                  rows=_sharpness_rows, summary=_sharpness_summary, tol=SHARPNESS_TOL)

    search_flags = [
        ("--family", dict(choices=list(FAMILIES), default="expdamp", help="seed family to search")),
        ("--budget", dict(type=_bounded(int, 1), default=2000, help="evaluation budget")),
        ("--rng-seed", dict(type=_bounded(int, 0), default=0, help="deterministic RNG seed")),
    ]
    _grid_command(sub, "search", "adversarial search for bound violations", search_flags,
                  rows=_search_rows, echo=_search_echo, summary=None, tol=DEFAULT_TOL)

    p_li = sub.add_parser("polylog", help="evaluate Li_v(x) at full precision", allow_abbrev=False)
    p_li.add_argument("v", type=float)
    p_li.add_argument("x", type=float)
    p_li.set_defaults(func=cmd_polylog)

    return parser


def _config_argv(args: argparse.Namespace) -> list[str]:
    """The config file's values as flags of the chosen subcommand, so that the
    parser applies each flag's `type=` to them.  The key and `choices` checks
    are made here to report a bad entry as a config error."""
    argv = []
    for key, value in load_config_file(args.config).items():
        flag = args.config_flags.get(key)
        if flag is None:
            raise ConfigError(f"unknown config key {key!r} for {args.command}")
        if flag.choices is not None and value not in flag.choices:
            raise ConfigError(f"config key {key} = {value!r}: expected one of {list(flag.choices)}")
        argv.append(f"{flag.option_strings[0]}={value}")
    return argv


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # config flags go ahead of the command line's, which override them;
            # argv[0] is the command, since the top-level parser takes no option
            args = parser.parse_args([argv[0], *_config_argv(args), *argv[1:]])
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
