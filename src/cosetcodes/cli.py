"""Command-line surface: inspect cosets, build codes and families,
regenerate the parameter tables, and run the verification sweeps.

Output is text by default; --format json/csv produce machine-readable
output with a stable schema (tool_version, command, rows, discrepancies).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import sys
import warnings

import numpy as np

from . import __version__, conv, cosets, cyclic, families, oracle, tables, verify
from .oracle import OracleBudget, SweepReport

# ----------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------

def _output(args):
    """args.out opened for writing, or stdout; a file that cannot be opened
    is a usage error."""
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else None
    except OSError as exc:
        args.parser.error(f"cannot write output file: {exc}")
    return out or contextlib.nullcontext(sys.stdout)


def _emit(args, command: str, rows, discrepancies, text_lines) -> None:
    r"""Write the row and line lists in args.format to args.out, or to
    stdout, through the standard writers; the coset listing, which alone
    runs to hundreds of thousands of rows, formats its own (cmd_cosets).
    Every output ends in one newline, except that CSV on stdout keeps a
    newline after the writer's final \r\n."""
    with _output(args) as fh:
        if args.format == "text":
            fh.write("\n".join(text_lines))
        elif args.format == "json":
            fh.write(json.dumps({"tool_version": __version__, "command": command,
                                 "rows": rows, "discrepancies": discrepancies}, indent=2))
        elif rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        if not (args.out and args.format == "csv" and rows):
            fh.write("\n")


def _config_defaults(args) -> dict:
    """budget and seed from the --config file, or their defaults; a line
    that does not parse is a usage error."""
    defaults = {"budget": oracle.DEFAULT_MAX_ENUMERATION, "seed": 0}
    if not args.config:
        return defaults
    try:
        with open(args.config, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        args.parser.error(f"cannot read config file: {exc}")
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            args.parser.error(f"bad config line: {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in defaults:
            args.parser.error(f"unknown config key: {key}")
        try:
            defaults[key] = _nonnegative(val)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            args.parser.error(f"config key {key}: {exc}")
    return defaults


def _budget_from(args, cfg) -> OracleBudget:
    budget = args.budget if args.budget is not None else cfg["budget"]
    seed = args.seed if args.seed is not None else cfg["seed"]
    return OracleBudget(max_enumeration=budget, seed=seed)


@contextlib.contextmanager
def _usage_errors(args):
    """Report a ValueError raised on the user's values as a usage error."""
    try:
        yield
    except ValueError as exc:
        args.parser.error(str(exc))


def _family_instance(args):
    """The instance that --family, --q and --m/--c/--i name.  A missing
    option, an option the family does not take, and a value its
    constructor rejects are usage errors; its warnings are one line each."""
    fam = families.BY_NAME[f"{args.command}-{args.family}"]
    given = {p: v for p in "mci" if (v := vars(args).get(p)) is not None}
    extra = sorted(given.keys() - set(fam.params))
    if extra:
        args.parser.error(f"--family {args.family} does not take --{extra[0]}")
    if "m" in fam.params:
        given.setdefault("m", 2)
    missing = [p for p in fam.params if p not in given]
    if missing:
        args.parser.error(f"--family {args.family} needs --{missing[0]}")
    with _usage_errors(args), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        instance = fam.build(q=args.q, **given)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return instance


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _coset_layout(args, part) -> tuple[str, np.ndarray, str, str]:
    """The head, row templates, row separator and tail of the coset listing in
    args.format.  templates[k, g, o] lays out a coset of cardinality k, with a
    gap if g and an odd representative if o, as a %-template taking its rep,
    its k elements, its gap if any and its complement's rep, in that order.
    json.dumps and csv.DictWriter lay out the JSON and CSV rows themselves."""
    q, m, fmt, props = part.q, args.m, args.format, args.properties
    templates = np.empty((m + 1, 2, 2), object)
    for k, g, o in itertools.product(range(1, m + 1), (0, 1), (0, 1)):
        row = {"rep": "%d", "cardinality": k, "elements": ["%d"] * k}
        if props:
            row |= {"gap": "%d" if g else None, "complement": "%d"}
            if q % 2 == 1:
                row["parity"] = "odd" if o else "even"
        elements = ", ".join(row["elements"])
        if fmt == "text":
            line = f"C_%d = {{{elements}}}"
            if props:
                line += f"  gap={row['gap'] or '-'}  complement=C_%d"
                line += f"  parity={row['parity']}" if "parity" in row else ""
        elif fmt == "json":
            line = json.dumps(row, indent=2).replace('"%d"', "%d").replace("\n", "\n    ")
        else:
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(row))
            writer.writeheader()
            writer.writerow({**row, "elements": f"[{elements}]"})
            header, line, _ = buf.getvalue().split("\r\n")
        templates[k, g, o] = line
    if fmt == "text":
        return f"q={q}, m={m}, n={part.n}: {len(part.reps)} cosets\n", templates, "\n", "\n"
    if fmt == "csv":
        return header + "\r\n", templates, "\r\n", "\r\n" + "\n" * (not args.out)
    head, _, tail = json.dumps({"tool_version": __version__, "command": f"cosets {q} {m}",
                                "rows": [None], "discrepancies": []}, indent=2).rpartition("null")
    return head, templates, ",\n    ", tail + "\n"


def cmd_cosets(args, cfg) -> int:
    """List the cosets, streamed 4096 rows per write: each block is one
    %-format call on its rows' templates (231,135 rows at the modulus cap)."""
    q, m = args.q, args.m
    with _usage_errors(args):
        part = cosets.partition(q, m)
    # the template fields per coset as columns, -1 where a row has none
    columns = [part.reps, np.where(np.arange(m) < part.cards[:, None], part.elements, -1)]
    gaps = part.gaps() if args.properties else np.zeros_like(part.reps)
    if args.properties:
        columns += [np.where(gaps > 0, gaps, -1), part.reps[part.complements()]]
        if q % 2 == 1 and (mixed := part.mixed()).any():
            raise AssertionError(f"mixed parity in {part.coset(int(mixed.argmax()))!r}")
    head, templates, sep, tail = _coset_layout(args, part)
    rows = templates[part.cards, np.minimum(gaps, 1), part.reps % 2]
    with _output(args) as fh:
        fh.write(head)
        for a in range(0, len(part.reps), 4096):
            vals = np.column_stack([col[a:a + 4096] for col in columns])
            block = sep.join(rows[a:a + 4096].tolist()) % tuple(vals[vals >= 0].tolist())
            fh.write(sep * (a > 0) + block)
        fh.write(tail)
    return 0


def cmd_code(args, cfg) -> int:
    with _usage_errors(args):
        code = cyclic.code_from_cosets(args.q, args.m, args.exponents)
    delta = cyclic.bch_bound(code)
    row = {
        "n": code.n, "q": code.q, "k": code.k, "bch_bound": delta,
        "defining": list(code.defining.exponents),
        "generator": code.generator.tolist(),
        "contains_dual": cyclic.contains_dual(code),
    }
    lines = [
        f"[{code.n}, {code.k}, d >= {delta}]_{code.q}",
        f"defining set ({code.defining.size}): {list(code.defining.exponents)}",
        f"generator coefficients (low to high): {row['generator']}",
        f"contains its dual: {row['contains_dual']}",
    ]
    _emit(args, "code", [row], [], lines)
    return 0


def cmd_css(args, cfg) -> int:
    params = _family_instance(args)
    row = {"text": params.bracket(), "n": params.n, "k": params.k,
           "q": params.q, "m": params.m, "c": params.designed_distance,
           "distance_lb": params.distance_lb,
           "k1": params.k1, "k2": params.k2, "family": params.family}
    lines = [params.bracket(),
             f"outer [{params.n}, {params.k1}], inner [{params.n}, {params.k2}]",
             f"run-based distance bound: {params.distance_lb}"]
    _emit(args, "css", [row], [], lines)
    return 0


def cmd_conv(args, cfg) -> int:
    code = _family_instance(args)
    rep = conv.check_reduced_basic(code.generator)
    row = {"text": code.bracket(), "n": code.n, "k": code.k,
           "degree": code.degree, "memory": code.memory, "q": code.q,
           "i": code.index, "dfree_lb": code.dfree_lb,
           "dfree_lb_derived": code.dfree_lb_derived,
           "d0_lb": code.d0_lb, "d1_lb": code.d1_lb,
           "d_parent_lb": code.d_parent_lb,
           "reduced_basic": rep.passed, "family": code.family}
    lines = [code.bracket(),
             f"split bounds: d0 >= {code.d0_lb}, d1 >= {code.d1_lb}, "
             f"parent d >= {code.d_parent_lb} "
             f"(combined: dfree >= {code.dfree_lb_derived})",
             f"reduced/basic check: {rep.summary()}"]
    _emit(args, "conv", [row], [], lines)
    return 0


def cmd_table(args, cfg) -> int:
    bud = _budget_from(args, cfg)
    rows = tables.build_table(args.which, bud)
    dicts = [r.to_dict() for r in rows]
    lines = [f"{r.text}  [{r.status}]" for r in rows]
    _emit(args, f"table {args.which}", dicts, [], lines)
    return 0


def cmd_verify(args, cfg) -> int:
    if args.q is not None and args.scope in ("cosets", "cyclic"):
        args.parser.error(f"--q restricts only css/conv, not verify {args.scope}")
    for flag in ("qmax", "mmax"):
        if vars(args)[flag] is not None and args.scope not in ("cosets", "all"):
            args.parser.error(f"--{flag} sizes only the coset grid, not verify {args.scope}")
    bud = _budget_from(args, cfg)
    report = SweepReport()
    if args.scope in ("cosets", "all"):
        qmax = 9 if args.qmax is None else args.qmax
        mmax = 3 if args.mmax is None else args.mmax
        qs, ms = verify.coset_grid(qmax, mmax)
        if not qs or not ms:
            args.parser.error(f"empty coset grid (prime powers 3 <= q <= "
                              f"{qmax}, 2 <= m <= {mmax})")
        report.records.extend(oracle.coset_theorem_sweep(qs, ms).records)
    if args.scope in ("cyclic", "all"):
        report.records.extend(verify.verify_cyclic_identities().records)
    with _usage_errors(args):
        if args.scope in ("css", "all"):
            report.records.extend(
                verify.verify_css_families(bud, only_q=args.q).records)
        if args.scope in ("conv", "all"):
            report.records.extend(
                verify.verify_conv_families(bud, only_q=args.q).records)
    rows = [r.to_dict() for r in report.records]
    discrepancies = [r.to_dict() for r in report.failures]
    n_skip = sum(1 for r in report.records if r.status == "skipped")
    lines = [f"{r.check} (q={r.q}, m={r.m}): {r.status}"
             + (f" [{r.detail}]" if r.detail and r.status != "pass" else "")
             for r in report.records]
    lines.append(f"{len(report.records)} checks, {len(discrepancies)} failures, "
                 f"{n_skip} skipped")
    _emit(args, f"verify {args.scope}", rows, discrepancies, lines)
    if n_skip and not discrepancies:
        print(f"warning: {n_skip} checks skipped", file=sys.stderr)
    return 1 if discrepancies else 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors are one line on stderr, with exit status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.set_defaults(parser=sub)
    sub.add_argument("--format", choices=["text", "json", "csv"], default="text")
    sub.add_argument("--out", metavar="FILE", default=None)
    sub.add_argument("--budget", type=_nonnegative, default=None,
                     help="max oracle enumeration size (0 disables the oracle)")
    sub.add_argument("--seed", type=_nonnegative, default=None)
    sub.add_argument("--config", metavar="FILE", default=None,
                     help="key=value file: budget, seed")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cosetcodes",
        description="cyclotomic cosets, cyclic codes, CSS and convolutional "
                    "code families, with built-in verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cosets", help="list the cosets modulo q^m - 1")
    p.add_argument("q", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--properties", action="store_true",
                   help="include gap, complement and parity per coset")
    _add_common(p)
    p.set_defaults(func=cmd_cosets)

    p = subs.add_parser("code", help="build a cyclic code from exponents")
    p.add_argument("q", type=int)
    p.add_argument("m", type=int)
    p.add_argument("exponents", type=int, nargs="*")
    _add_common(p)
    p.set_defaults(func=cmd_code)

    for kind, help_text, func in (
            ("css", "build one CSS family instance", cmd_css),
            ("conv", "build one convolutional family instance", cmd_conv)):
        kin = [fam for fam in families.FAMILIES if fam.kind == kind]
        p = subs.add_parser(kind, help=help_text)
        p.add_argument("--family", required=True,
                       choices=[fam.name.removeprefix(f"{kind}-") for fam in kin])
        p.add_argument("--q", type=int, required=True)
        for param in "mci":
            if any(param in fam.params for fam in kin):
                p.add_argument(f"--{param}", type=int, default=None,
                               help="default 2" if param == "m" else None)
        _add_common(p)
        p.set_defaults(func=func)

    p = subs.add_parser("table", help="regenerate a parameter table")
    p.add_argument("which", type=int, choices=[1, 2, 3])
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("verify", help="run verification sweeps")
    p.add_argument("scope", choices=["cosets", "cyclic", "css", "conv", "all"])
    p.add_argument("--qmax", type=int, default=None,
                   help="coset grid of verify cosets/all: largest q (default 9)")
    p.add_argument("--mmax", type=int, default=None,
                   help="coset grid of verify cosets/all: largest m (default 3)")
    p.add_argument("--q", type=int, default=None,
                   help="restrict css/conv family checks to one alphabet")
    _add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    cfg = _config_defaults(args)
    return args.func(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
