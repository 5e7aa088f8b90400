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
import math
import os
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

# base-100 digit pairs as uint16 for _decimal: index d < 100 writes d without
# its leading zeros, 100 + d both digits, and the last index, -1, two 0 bytes;
# _LOW_PAIRS writes 0 as "0", _PAIRS as nothing
_PAIRS, _LOW_PAIRS = (np.frombuffer("".join(
    [zero] + [f"{d:2d}" for d in range(1, 100)] + [f"{d:02d}" for d in range(100)] + ["  "]
).replace(" ", "\0").encode(), np.uint16) for zero in ("  ", " 0"))


def _decimal(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decimal digits of each value in 0..999,999 as three uint16 pairs of
    bytes, highest first, right-aligned behind 0 bytes; -1 gives only 0 bytes.
    The pair at 100^j is read at min(x, x - 100 h + 100), with
    x = vals // 100^j and h = x // 100: at x while no higher digit is set
    (h = 0), else at 100 + x mod 100.  -1 floors to -1 at every j, and
    min(-1, 199) = -1."""
    hi, mid = vals // 10000, vals // 100
    return (_PAIRS.take(hi), _PAIRS.take(np.minimum(mid, mid - 100 * hi + 100)),
            _LOW_PAIRS.take(np.minimum(vals, vals - 100 * mid + 100)))


def _coset_layout(args, part) -> tuple[str, np.ndarray, np.ndarray, str, str]:
    """The head, row images, field columns, row separator and tail of the
    coset listing in args.format.  A coset of cardinality k, with a gap if g
    and an odd representative if o, is laid out by a %-template taking its
    rep, its k elements, its gap if any and its complement's rep, in that
    order; json.dumps and csv.DictWriter lay out the JSON and CSV rows
    themselves.  Split at %d, the template, after the row separator, is the
    byte image images[(2 k + g) * 2 + o]: each of the fields rep, m elements
    and, with properties, gap and complement has 6 bytes, three uint16 pairs
    from columns[field] on, after a piece of text that is empty for a field
    the row lacks.  Every image is padded with 0 bytes, dropped on output."""
    q, m, fmt, props = part.q, args.m, args.format, args.properties
    last = m + 1 + 2 * props  # the slot of the text after the last field
    pieces = np.full((4 * m + 4, last + 1), b"", object)
    for k, g, o in itertools.product(range(1, m + 1), (0, 1), (0, 1)):
        row = {"rep": "%d", "cardinality": k, "elements": ["%d"] * k}
        if props:
            row |= {"gap": "%d" if g else None, "complement": "%d"}
            if q % 2 == 1:
                row["parity"] = "odd" if o else "even"
        elements = ", ".join(row["elements"])
        if fmt == "text":
            sep, line = "\n", f"C_%d = {{{elements}}}"
            if props:
                line += f"  gap={row['gap'] or '-'}  complement=C_%d"
                line += f"  parity={row['parity']}" if "parity" in row else ""
        elif fmt == "json":
            sep = ",\n    "
            line = json.dumps(row, indent=2).replace('"%d"', "%d").replace("\n", "\n    ")
        else:
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(row))
            writer.writeheader()
            writer.writerow({**row, "elements": f"[{elements}]"})
            header, line, _ = buf.getvalue().split("\r\n")
            sep = "\r\n"
        # the slots of the pieces: rep, k elements, gap, complement, the end
        present = [*range(k + 1), *[m + 1] * (props and g), *[m + 2] * props, last]
        for s, piece in zip(present, (sep + line).encode().split(b"%d")):
            pieces[(2 * k + g) * 2 + o, s] = piece
    # slot s is its longest piece, padded to even length, then field s, which
    # ends at ends[s]
    lengths = np.vectorize(len)(pieces).max(axis=0)
    ends = np.cumsum(lengths + lengths % 2 + 6)
    images = np.zeros((len(pieces), ends[-1] - 6), np.uint8)
    for (t, s), piece in np.ndenumerate(pieces):
        images[t, ends[s] - 6 - len(piece):ends[s] - 6] = np.frombuffer(piece, np.uint8)
    if fmt == "text":
        head, tail = f"q={q}, m={m}, n={part.n}: {len(part.reps)} cosets\n", "\n"
    elif fmt == "csv":
        head, tail = header + "\r\n", "\r\n" + "\n" * (not args.out)
    else:
        head, _, tail = json.dumps({"tool_version": __version__, "command": f"cosets {q} {m}",
                                    "rows": [None], "discrepancies": []}, indent=2).rpartition("null")
        tail += "\n"
    return head, images, (ends[:-1] - 6) // 2, sep, tail


def cmd_cosets(args, cfg) -> int:
    """List the cosets, streamed a block of cosets._ROWS rows per write
    (231,135 rows at the modulus cap).  Each block takes every field from
    its orbit rows, read from the representatives, so no array the size of
    the partition is built: the complement of C_r is -C_r, whose rep is
    n - max(C_r).  numpy gathers the block's row images, writes every
    field's digits into them (_decimal) and drops their 0 bytes, so no value
    is formatted in Python.  For odd q a coset's elements have its rep's
    parity: q is odd, n even."""
    q, m = args.q, args.m
    with _usage_errors(args):
        part = cosets.partition(q, m)
    head, images, columns, sep, tail = _coset_layout(args, part)
    with _output(args) as fh:
        fh.write(head)
        for a, b in cosets._chunks(len(part.reps), cosets._ROWS):
            # the block's fields as columns; -1 marks a field that a row lacks
            blk = slice(a, b)
            reps, rows, gaps = part.reps[blk], part.rows(blk), 0
            cards, fields = cosets._cards(rows), [reps, rows]
            if args.properties:
                gaps = part.gaps(blk)
                fields += [np.where(gaps > 0, gaps, -1), (part.n - rows.max(axis=1)) % part.n]
            vals = np.column_stack(fields)
            vals[:, 1:m + 1][np.arange(m) >= cards[:, None]] = -1
            buf = images[(2 * cards + np.minimum(gaps, 1)) * 2 + reps % 2]
            for j, pairs in enumerate(_decimal(vals)):
                buf.view(np.uint16)[:, columns + j] = pairs
            text = buf.tobytes().translate(None, b"\0").decode()
            fh.write(text if a else text.removeprefix(sep))
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
        if qmax > (qcap := math.isqrt(cosets.MAX_MODULUS + 1)):
            args.parser.error(f"--qmax {qmax} is over {qcap}, past which q^2 - 1 exceeds the cap")
        if mmax > (mcap := int(math.log(cosets.MAX_MODULUS + 1, 3))):  # every grid q >= 3
            args.parser.error(f"--mmax {mmax} is over {mcap}, past which 3^m - 1 exceeds the cap")
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
    try:
        status = args.func(args, cfg)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:  # as after `| head`: the flush at exit is silenced
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
