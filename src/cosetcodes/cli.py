"""Command-line surface: inspect cosets, build codes and families,
regenerate the parameter tables, and run the verification sweeps.

Output is text by default; --format json/csv produce machine-readable
output with a stable schema (tool_version, command, rows, discrepancies).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__, conv, cosets, css, cyclic, oracle, tables
from .oracle import CheckRecord, OracleBudget, SweepReport

_PRIME_POWERS = [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]


# ----------------------------------------------------------------------
# verification engines (also used by the acceptance suite)
# ----------------------------------------------------------------------

def _identity_instances(n_cap: int = 80):
    """Deterministic set of (q, m) pairs with q^m - 1 <= n_cap."""
    out = []
    for q in _PRIME_POWERS:
        m = 2
        while q**m - 1 <= n_cap:
            out.append((q, m))
            m += 1
    return out


def _code_identities(code) -> tuple[bool, str]:
    """(g*h = x^n - 1 holds, null-space failure note or empty).

    Null-space equivalence is exact: the check matrix has rank n - k and
    every basis codeword satisfies it, so its null space is the code.
    """
    from . import gf

    n = code.n
    xn1 = cyclic.Poly.x_pow_minus_one(code.base, n)
    h, rem = xn1.divmod(code.generator)
    gh_ok = rem.is_zero and code.generator * h == xn1
    reps = [c.rep for c in code.defining.cosets]
    H = cyclic.parity_check_matrix(code, reps)
    if len(H) != n - code.k:
        return gh_ok, f"check rank {len(H)} != {n - code.k}"
    for row in cyclic.codeword_basis(code):
        if any(gf.mat_vec(code.base, H, row)):
            return gh_ok, "codeword fails parity checks"
    return gh_ok, ""


def verify_cyclic_identities(n_cap: int = 80, max_union: int = 4) -> SweepReport:
    """Algebraic identities on small instances: g*h = x^n - 1 and check-matrix
    null-space equivalence for every single-coset code and every family
    code of length <= n_cap, the two dual-containing criteria over all
    unions of up to `max_union` cosets, and the designed-distance cap for
    admissible block defining sets."""
    import itertools

    report = SweepReport()
    for q, m in _identity_instances(n_cap):
        partition = cosets.all_cosets(q, m)
        ok_gh = ok_null = True
        detail_gh = detail_null = ""
        for c in partition:
            code = cyclic.code_from_cosets(q, m, [c.rep])
            gh_ok, note = _code_identities(code)
            if not gh_ok:
                ok_gh = False
                detail_gh = f"coset {c.rep}"
            if note:
                ok_null = False
                detail_null = f"coset {c.rep}: {note}"
        report.records.append(CheckRecord(
            q, m, "generator-times-check", "pass" if ok_gh else "fail", detail_gh))
        report.records.append(CheckRecord(
            q, m, "nullspace-equivalence", "pass" if ok_null else "fail", detail_null))

        # both dual-containing criteria agree on every union Z of cosets:
        # Z meets -Z exactly when some member's complementary coset meets Z.
        # Bit x of a mask stands for residue x: the coset's elements, their
        # negations, and its complementary coset.
        n = q**m - 1
        masks = [(c.rep,
                  sum(1 << x for x in c.elements),
                  sum(1 << (-x % n) for x in c.elements),
                  sum(1 << x for x in cosets.complementary(c).elements))
                 for c in partition]
        detail_dc = ""
        for r in range(1, max_union + 1):
            for combo in itertools.combinations(masks, r):
                z = neg = comp = 0
                for _, elements, negations, complement in combo:
                    z |= elements
                    neg |= negations
                    comp |= complement
                if (z & neg == 0) != (z & comp == 0):
                    detail_dc = (f"criteria disagree on the union of cosets "
                                 f"{[mask[0] for mask in combo]} mod {n}")
        report.records.append(CheckRecord(
            q, m, "dual-containing-criteria-agree",
            "fail" if detail_dc else "pass", detail_dc))

        # designed-distance cap for block defining sets
        if m == 2 and q >= 3:
            ok_cap = True
            detail_cap = ""
            for s in range(q - 2):
                for c_count in range(1, q - 1 - s):
                    ds = cyclic.DefiningSet.from_exponents(
                        q, m, range(s + 1, s + c_count + 1))
                    delta = cyclic.bch_bound(ds)
                    if delta > c_count + 2:
                        ok_cap = False
                        detail_cap = f"s={s}, c={c_count}: delta={delta}"
                    if c_count == 1 and delta != 2:
                        ok_cap = False
                        detail_cap = f"single coset s+1={s + 1}: delta={delta}"
            report.records.append(CheckRecord(
                q, m, "designed-distance-cap",
                "pass" if ok_cap else "fail", detail_cap))

    # identity checks on both codes of every family instance at this scale
    for params in _css_instances():
        if params.n > n_cap:
            continue
        for side, code in (("outer", params.outer), ("inner", params.inner)):
            gh_ok, note = _code_identities(code)
            if gh_ok and not note:
                status, detail = "pass", f"c={params.designed_distance}"
            else:
                status = "fail"
                detail = f"c={params.designed_distance}: {note or 'g*h mismatch'}"
            report.records.append(CheckRecord(
                params.q, params.m, f"family-identities-{side}", status, detail))
    return report


def _css_instances():
    seen = set()
    out = []
    for q, c in tables.TABLE1_INSTANCES:
        params = css.family_block_full(q) if c == q else css.family_block(q, c)
        key = (params.q, params.m, params.outer.defining.exponents,
               params.inner.defining.exponents)
        if key not in seen:
            seen.add(key)
            out.append(params)
    for q, m, c in tables.TABLE2_BLOCK_EVEN_INSTANCES:
        out.append(css.family_block_even(q, m, c))
    for q, m, c in tables.TABLE2_LADDER_INSTANCES:
        out.append(css.family_ladder(q, m, c))
    return out


def _css_closed_form(params: css.CssParams) -> int:
    q, m, c = params.q, params.m, params.designed_distance
    n = params.n
    if params.family in ("css-block-full", "css-block"):
        return q * q - 4 * c + 5
    if params.family == "css-block-even":
        return n - 2 * m * (c - 2) - m // 2 - 1
    if params.family == "css-ladder":
        return n - m * (2 * c - 3) - 1
    raise ValueError(f"unknown family {params.family}")


def verify_css_families(budget=None, only_q: int | None = None) -> SweepReport:
    """Dimension formulas recomputed from coset cardinalities, nesting,
    distance bounds, and (within budget) brute-force distance checks."""
    bud = oracle._resolve(budget)
    report = SweepReport()
    instances = _css_instances()
    if only_q is not None:
        instances = [p for p in instances if p.q == only_q]
        if not instances:
            instances = [css.family_block(only_q, c)
                         for c in range(2, only_q)] + [css.family_block_full(only_q)]
    for params in instances:
        q, m = params.q, params.m
        tag = params.family or "css"
        expected_k = _css_closed_form(params)
        report.records.append(CheckRecord(
            q, m, f"{tag}-dimension",
            "pass" if params.k == expected_k else "fail",
            f"c={params.designed_distance}: k={params.k}, formula {expected_k}"))
        report.records.append(CheckRecord(
            q, m, f"{tag}-nested",
            "pass" if cyclic.nested(params.outer, params.inner) else "fail",
            f"c={params.designed_distance}"))
        report.records.append(CheckRecord(
            q, m, f"{tag}-distance-bound",
            "pass" if params.distance_lb >= params.designed_distance else "fail",
            f"c={params.designed_distance}: bound {params.distance_lb}"))
        # oracle distance check where the budget allows
        c = params.designed_distance
        inner_dual = cyclic.dual_code(params.inner)
        enumerable = (
            bud.max_enumeration > 0
            and params.outer.q**params.outer.k <= bud.max_enumeration
            and inner_dual.q**inner_dual.k <= bud.max_enumeration
        )
        if enumerable:
            ok = oracle.verify_min_distance_at_least(params.outer, c, bud) and \
                oracle.verify_min_distance_at_least(inner_dual, c, bud)
            report.records.append(CheckRecord(
                q, m, f"{tag}-distance-oracle", "pass" if ok else "fail",
                f"c={c}"))
        else:
            report.records.append(CheckRecord(
                q, m, f"{tag}-distance-oracle", "skipped",
                f"c={c}: enumeration over budget"))
    return report


_CONV_FAMILIES = {
    "conv-split": (lambda q: conv.family_split(q), None),
    "conv-wide-head": (lambda q: conv.family_split_wide_head(q), None),
    "conv-wider-head": (lambda q, i: conv.family_split_wider_head(q, i), "i"),
    "conv-short-parent": (lambda q, i: conv.family_split_short_parent(q, i), "i"),
    "conv-singleton-tail": (lambda q: conv.family_split_singleton_tail(q), None),
}


def _conv_closed_form(code: conv.ConvCode) -> tuple[int, int, int]:
    """(k, degree, dfree_lb) the family claims."""
    q, n, i = code.q, code.n, code.index
    fam = code.family
    if fam == "conv-split":
        return n - 2 * q + 1, 2 * q - 3, 2 * q + 1
    if fam == "conv-wide-head":
        return n - 2 * q, 2 * q - 4, 2 * q + 1
    if fam == "conv-wider-head":
        return n - 2 * (q + i), 2 * (q - 2 - i), 2 * q + 1
    if fam == "conv-short-parent":
        return n - 2 * q + 1, 2 * i + 1, q + i + 3
    if fam == "conv-singleton-tail":
        return n - 2 * q + 1, 1, q + 2
    raise ValueError(f"unknown family {fam}")


def conv_instances(qs=(4, 5, 7, 8)) -> list[conv.ConvCode]:
    """Every family at each q, with i at both ends of its range."""
    out = []
    for q in qs:
        out.append(conv.family_split(q))
        out.append(conv.family_split_wide_head(q))
        for i in sorted({1, q - 3}):
            out.append(conv.family_split_wider_head(q, i))
            out.append(conv.family_split_short_parent(q, i))
        out.append(conv.family_split_singleton_tail(q))
    return out


def verify_conv_families(qs=(4, 5, 7, 8), budget=None, seed: int = 0,
                         only_q: int | None = None) -> SweepReport:
    """Closed forms against actual ranks, the rank hypothesis, the
    reduced/basic check, the bound sandwich, and a sampled dual-codeword
    consistency check at the smallest q."""
    bud = oracle._resolve(budget)
    if only_q is not None:
        qs = (only_q,)
    report = SweepReport()
    for code in conv_instances(qs):
        q = code.q
        tag = code.family
        k, gamma, dfree = _conv_closed_form(code)
        ok_params = (code.k, code.degree, code.dfree_lb, code.memory) == (k, gamma, dfree, 1)
        report.records.append(CheckRecord(
            q, 2, f"{tag}-parameters", "pass" if ok_params else "fail",
            f"i={code.index}: got ({code.k}, {code.degree}, {code.dfree_lb})"))
        h1_rows = sum(1 for row in code.generator.coeffs[1] if any(row)) \
            if code.memory else 0
        report.records.append(CheckRecord(
            q, 2, f"{tag}-rank-hypothesis",
            "pass" if code.kappa >= h1_rows else "fail",
            f"kappa={code.kappa}, rank H1={h1_rows}"))
        rep = conv.check_reduced_basic(code.generator)
        report.records.append(CheckRecord(
            q, 2, f"{tag}-reduced-basic",
            "pass" if rep.passed else "fail", rep.summary()))
        report.records.append(CheckRecord(
            q, 2, f"{tag}-bound-sandwich",
            "pass" if code.dfree_lb <= code.dfree_lb_derived <= code.d_parent_lb
            else "fail",
            f"claimed {code.dfree_lb}, derived {code.dfree_lb_derived}, "
            f"parent {code.d_parent_lb}"))
    if 4 in qs:
        code = conv.family_split(4)
        if bud.max_enumeration > 0:
            found = conv.free_distance_upper(code, 2, side="dual",
                                             budget=bud, sample=2000, seed=seed)
            report.records.append(CheckRecord(
                4, 2, "conv-split-dual-search",
                "pass" if found >= code.dfree_lb else "fail",
                f"best sampled weight {found} vs claimed {code.dfree_lb}"))
        else:
            report.records.append(CheckRecord(
                4, 2, "conv-split-dual-search", "skipped", "budget 0"))
    return report


# ----------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------

def _emit(command: str, rows, discrepancies, fmt: str, out_path: str | None,
          text_lines) -> None:
    if fmt == "json":
        payload = {
            "tool_version": __version__,
            "command": command,
            "rows": rows,
            "discrepancies": discrepancies,
        }
        text = json.dumps(payload, indent=2)
    elif fmt == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(text_lines)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + ("\n" if not text.endswith("\n") else ""))
    else:
        print(text)


def _config_defaults(path: str | None) -> dict:
    defaults = {"budget": oracle.DEFAULT_MAX_ENUMERATION,
                "modulus_cap": oracle.DEFAULT_MAX_MODULUS,
                "seed": 0}
    if not path:
        return defaults
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in defaults:
                raise SystemExit(f"unknown config key: {key}")
            defaults[key] = int(val)
    return defaults


def _budget_from(args, cfg) -> OracleBudget:
    budget = args.budget if args.budget is not None else cfg["budget"]
    seed = args.seed if args.seed is not None else cfg["seed"]
    return OracleBudget(max_enumeration=budget,
                        max_modulus=cfg["modulus_cap"], seed=seed)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_cosets(args, cfg) -> int:
    q, m = args.q, args.m
    partition = cosets.all_cosets(q, m)
    rows = []
    lines = [f"q={q}, m={m}, n={q**m - 1}: {len(partition)} cosets"]
    for c in partition:
        row = {"rep": c.rep, "cardinality": c.cardinality,
               "elements": list(c.elements)}
        line = f"C_{c.rep} = {{{', '.join(map(str, c.elements))}}}"
        if args.properties:
            g = cosets.gap_stat(c)
            comp = cosets.complementary(c)
            row["gap"] = g.value
            row["complement"] = comp.rep
            line += f"  gap={g.value if g.value is not None else '-'}"
            line += f"  complement=C_{comp.rep}"
            if q % 2 == 1:
                row["parity"] = cosets.parity_class(c)
                line += f"  parity={row['parity']}"
        rows.append(row)
        lines.append(line)
    _emit(f"cosets {q} {m}", rows, [], args.format, args.out, lines)
    return 0


def cmd_code(args, cfg) -> int:
    code = cyclic.code_from_cosets(args.q, args.m, args.exponents)
    delta = cyclic.bch_bound(code)
    row = {
        "n": code.n, "q": code.q, "k": code.k, "bch_bound": delta,
        "defining": list(code.defining.exponents),
        "generator": list(code.generator.coeffs),
        "contains_dual": cyclic.contains_dual(code),
    }
    lines = [
        f"[{code.n}, {code.k}, d >= {delta}]_{code.q}",
        f"defining set ({code.defining.size}): {list(code.defining.exponents)}",
        f"generator coefficients (low to high): {list(code.generator.coeffs)}",
        f"contains its dual: {row['contains_dual']}",
    ]
    _emit("code", [row], [], args.format, args.out, lines)
    return 0


def cmd_css(args, cfg) -> int:
    fam = args.family
    if fam == "block-full":
        params = css.family_block_full(args.q)
    elif fam == "block":
        params = css.family_block(args.q, args.c)
    elif fam == "block-even":
        params = css.family_block_even(args.q, args.m, args.c)
    else:
        params = css.family_ladder(args.q, args.m, args.c)
    row = {"text": params.bracket(), "n": params.n, "k": params.k,
           "q": params.q, "m": params.m, "c": params.designed_distance,
           "distance_lb": params.distance_lb,
           "k1": params.k1, "k2": params.k2, "family": params.family}
    lines = [params.bracket(),
             f"outer [{params.n}, {params.k1}], inner [{params.n}, {params.k2}]",
             f"run-based distance bound: {params.distance_lb}"]
    _emit("css", [row], [], args.format, args.out, lines)
    return 0


def cmd_conv(args, cfg) -> int:
    fam = args.family
    builder, needs_i = _CONV_FAMILIES["conv-" + fam]
    code = builder(args.q, args.i) if needs_i else builder(args.q)
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
    _emit("conv", [row], [], args.format, args.out, lines)
    return 0


def cmd_table(args, cfg) -> int:
    bud = _budget_from(args, cfg)
    rows = tables.build_table(args.which, bud)
    dicts = [r.to_dict() for r in rows]
    lines = [f"{r.text}  [{r.status}]" for r in rows]
    _emit(f"table {args.which}", dicts, [], args.format, args.out, lines)
    return 0


def cmd_verify(args, cfg) -> int:
    bud = _budget_from(args, cfg)
    report = SweepReport()
    if args.scope in ("cosets", "all"):
        qmax = args.qmax or 9
        mmax = args.mmax or 3
        qs = [q for q in _PRIME_POWERS if 3 <= q <= qmax]
        if not qs or mmax < 2:
            raise SystemExit(f"error: verify {args.scope}: empty coset grid "
                             f"(prime powers 3 <= q <= {qmax}, 2 <= m <= {mmax})")
        sub = oracle.coset_theorem_sweep(qs, range(2, mmax + 1), budget=bud)
        report.records.extend(sub.records)
    if args.scope in ("cyclic", "all"):
        report.records.extend(verify_cyclic_identities().records)
    if args.scope in ("css", "all"):
        report.records.extend(verify_css_families(bud, only_q=args.q).records)
    if args.scope in ("conv", "all"):
        report.records.extend(
            verify_conv_families(budget=bud, seed=bud.seed, only_q=args.q).records)
    rows = [r.to_dict() for r in report.records]
    discrepancies = [r.to_dict() for r in report.failures]
    n_skip = sum(1 for r in report.records if r.status == "skipped")
    lines = [f"{r.check} (q={r.q}, m={r.m}): {r.status}"
             + (f" [{r.detail}]" if r.detail and r.status != "pass" else "")
             for r in report.records]
    lines.append(f"{len(report.records)} checks, {len(discrepancies)} failures, "
                 f"{n_skip} skipped")
    _emit(f"verify {args.scope}", rows, discrepancies, args.format, args.out, lines)
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


def _add_common(sub):
    sub.add_argument("--format", choices=["text", "json", "csv"], default="text")
    sub.add_argument("--out", metavar="FILE", default=None)
    sub.add_argument("--budget", type=_nonnegative, default=None,
                     help="max oracle enumeration size (0 disables the oracle)")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--config", metavar="FILE", default=None,
                     help="key=value file: budget, modulus_cap, seed")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = subs.add_parser("css", help="build one CSS family instance")
    p.add_argument("--family", required=True,
                   choices=["block-full", "block", "block-even", "ladder"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--c", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_css)

    p = subs.add_parser("conv", help="build one convolutional family instance")
    p.add_argument("--family", required=True,
                   choices=["split", "wide-head", "wider-head",
                            "short-parent", "singleton-tail"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_conv)

    p = subs.add_parser("table", help="regenerate a parameter table")
    p.add_argument("which", type=int, choices=[1, 2, 3])
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("verify", help="run verification sweeps")
    p.add_argument("scope", choices=["cosets", "cyclic", "css", "conv", "all"])
    p.add_argument("--qmax", type=int, default=None)
    p.add_argument("--mmax", type=int, default=None)
    p.add_argument("--q", type=int, default=None,
                   help="restrict css/conv family checks to one alphabet")
    _add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    cfg = _config_defaults(args.config)
    return args.func(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
