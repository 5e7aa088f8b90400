"""Verification sweeps over cyclic codes and the family registry.

Each sweep returns a SweepReport: failures are records, never exceptions.
Family instances come from the registry and are filtered on q and n before
any is built.
"""

from __future__ import annotations

import itertools

from . import conv, cosets, cyclic, families, gf, oracle
from .oracle import CheckRecord, SweepReport

_PRIME_POWERS = [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]


def coset_grid(qmax: int, mmax: int) -> tuple[list[int], range]:
    """The prime powers 3 <= q <= qmax and the m in 2..mmax of the
    structural coset sweep (`oracle.coset_theorem_sweep`)."""
    return [q for q in _PRIME_POWERS if 3 <= q <= qmax], range(2, mmax + 1)


def _identity_instances(n_cap: int = 80):
    """Deterministic set of (q, m) pairs with q^m - 1 <= n_cap."""
    # every q is above 2, so q^m - 1 <= n_cap needs m < n_cap.bit_length()
    return [(q, m) for q in _PRIME_POWERS for m in range(2, n_cap.bit_length())
            if q**m - 1 <= n_cap]


def _code_identities(code) -> tuple[bool, str]:
    """(g*h = x^n - 1 holds, null-space failure note or empty).

    Null-space equivalence is exact: the check matrix has rank n - k and
    every basis codeword satisfies it, so its null space is the code.
    """
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

    # identity checks on both codes of every printed CSS instance at this scale
    for fam, args in families.rows(1, 2):
        if families.length(args) > n_cap:
            continue
        params = fam.build(**args)
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


def verify_css_families(budget=None, only_q: int | None = None) -> SweepReport:
    """Dimension formulas against the dimensions recomputed from coset
    cardinalities, nesting, distance bounds, and (within budget) brute-force
    distance checks, on every printed CSS instance.  With only_q, on the
    printed instances of that q, or if there are none on block(q, c) for
    2 <= c < q and block-full(q)."""
    report = SweepReport()
    instances = families.rows(1, 2)
    if only_q is not None:
        instances = [(fam, args) for fam, args in instances if args["q"] == only_q]
        if not instances:
            instances = [(families.BY_NAME["css-block"], {"q": only_q, "c": c})
                         for c in range(2, only_q)]
            instances.append((families.BY_NAME["css-block-full"], {"q": only_q}))
    for fam, args in instances:
        params = fam.build(**args)
        q, m, c = params.q, params.m, params.designed_distance

        def add(check, ok, detail):
            report.records.append(
                CheckRecord(q, m, f"{fam.name}-{check}", _status(ok), detail))

        expected_k = fam.closed_form(n=families.length(args), **args)
        add("dimension", params.k == expected_k,
            f"c={c}: k={params.k}, formula {expected_k}")
        add("nested", cyclic.nested(params.outer, params.inner), f"c={c}")
        add("distance-bound", params.distance_lb >= c,
            f"c={c}: bound {params.distance_lb}")
        verified = oracle.css_distance_at_least(params, c, budget)
        add("distance-oracle", verified,
            f"c={c}" if verified is not None else f"c={c}: enumeration over budget")
    return report


def _status(ok: bool | None) -> str:
    return "skipped" if ok is None else "pass" if ok else "fail"


def conv_sweep(qs):
    """(family, arguments) of every convolutional family at each q, with i
    at both ends of its range 1..q-3.  Consecutive families that take i are
    swept together, one i at a time."""
    conv_families = [fam for fam in families.FAMILIES if fam.kind == "conv"]
    for q in qs:
        for takes_i, group in itertools.groupby(conv_families,
                                                key=lambda fam: "i" in fam.params):
            group = list(group)
            for args in ([{"q": q, "i": i} for i in sorted({1, q - 3})]
                         if takes_i else [{"q": q}]):
                for fam in group:
                    yield fam, args


def verify_conv_families(budget=None, only_q: int | None = None) -> SweepReport:
    """Closed forms against actual ranks, the rank hypothesis, the
    reduced/basic check and the bound sandwich for q in 4, 5, 7, 8 (or
    only_q), and a sampled dual-codeword consistency check at q = 4, seeded
    by the budget's seed."""
    bud = oracle.OracleBudget.of(budget)
    qs = (4, 5, 7, 8) if only_q is None else (only_q,)
    report = SweepReport()
    for fam, args in conv_sweep(qs):
        code = fam.build(**args)

        def add(check, ok, detail):
            report.records.append(
                CheckRecord(code.q, 2, f"{fam.name}-{check}", _status(ok), detail))

        claimed = fam.closed_form(n=families.length(args), **args) + (1,)
        add("parameters", (code.k, code.degree, code.dfree_lb, code.memory) == claimed,
            f"i={code.index}: got ({code.k}, {code.degree}, {code.dfree_lb})")
        h1_rows = sum(1 for row in code.generator.coeffs[1] if any(row)) \
            if code.memory else 0
        add("rank-hypothesis", code.kappa >= h1_rows,
            f"kappa={code.kappa}, rank H1={h1_rows}")
        rep = conv.check_reduced_basic(code.generator)
        add("reduced-basic", rep.passed, rep.summary())
        add("bound-sandwich",
            code.dfree_lb <= code.dfree_lb_derived <= code.d_parent_lb,
            f"claimed {code.dfree_lb}, derived {code.dfree_lb_derived}, "
            f"parent {code.d_parent_lb}")
    if 4 in qs:
        code = conv.family_split(4)
        if bud.max_enumeration > 0:
            found = conv.free_distance_upper(code, 2, side="dual", budget=bud,
                                             sample=2000, seed=bud.seed)
            report.records.append(CheckRecord(
                4, 2, "conv-split-dual-search", _status(found >= code.dfree_lb),
                f"best sampled weight {found} vs claimed {code.dfree_lb}"))
        else:
            report.records.append(CheckRecord(
                4, 2, "conv-split-dual-search", "skipped", "budget 0"))
    return report
