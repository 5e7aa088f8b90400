"""Verification sweeps over cyclic codes and the family registry.

Each sweep returns a SweepReport: failures are records, never exceptions.
Family instances come from the registry and are filtered on q and n before
any is built.
"""

from __future__ import annotations

import itertools

from . import conv, cosets, cyclic, families, gf, oracle
from .oracle import SweepReport

_PRIME_POWERS = [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]
_N_CAP = 80  # the identity sweep: codes of length <= _N_CAP


def coset_grid(qmax: int, mmax: int) -> tuple[list[int], range]:
    """The prime powers 3 <= q <= qmax and the m in 2..mmax of the
    structural coset sweep (`oracle.coset_theorem_sweep`)."""
    return [q for q in _PRIME_POWERS if 3 <= q <= qmax], range(2, mmax + 1)


def _identity_instances():
    """Deterministic set of (q, m) pairs with q^m - 1 <= _N_CAP."""
    # every q is above 2, so q^m - 1 <= _N_CAP needs m < _N_CAP.bit_length()
    return [(q, m) for q in _PRIME_POWERS for m in range(2, _N_CAP.bit_length())
            if q**m - 1 <= _N_CAP]


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
    if gf.mat_vec(code.base, H, cyclic.codeword_basis(code)).any():
        return gh_ok, "codeword fails parity checks"
    return gh_ok, ""


def _criteria_disagreement(part, comp) -> str:
    """A note naming the last union of one or two cosets of the partition
    part on which the dual-containing criteria disagree, with comp[i] the
    index of the complementary coset of coset i; empty if there is none."""
    n = part.n
    # Bit x of a mask stands for residue x: a coset's elements, their
    # negations, and its complementary coset.
    masks = [(c.rep,
              sum(1 << x for x in c.elements),
              sum(1 << (-x % n) for x in c.elements),
              sum(1 << x for x in part.coset(j).elements))
             for c, j in zip(map(part.coset, range(len(part.reps))), comp.tolist())]
    # A union Z meets -Z iff a member A meets -B for a member B, and holds the
    # complement of a member iff the complement of an A meets a B.  Both are
    # ORs over pairs, as (U A_i) & (U B_j) = U (A_i & B_j), so agreement on
    # the unions of one or two cosets is agreement on every union.
    bad = [sorted({ra, rb}) for (ra, za, na, ca), (rb, zb, nb, cb)
           in itertools.combinations_with_replacement(masks, 2)
           if ((za | zb) & (na | nb) == 0) != ((za | zb) & (ca | cb) == 0)]
    return f"criteria disagree on the union of cosets {bad[-1]} mod {n}" if bad else ""


def verify_cyclic_identities() -> SweepReport:
    """Algebraic identities on small instances: g*h = x^n - 1 and check-matrix
    null-space equivalence for every single-coset code and every family
    code of length <= _N_CAP, the two dual-containing criteria on every
    union of cosets (through the unions of one or two cosets), and the
    designed-distance cap for admissible block defining sets."""
    report = SweepReport()
    for q, m in _identity_instances():
        part = cosets.partition(q, m)
        ok_gh = ok_null = True
        detail_gh = detail_null = ""
        for rep in part.reps.tolist():
            code = cyclic.code_from_cosets(q, m, [rep])
            gh_ok, note = _code_identities(code)
            if not gh_ok:
                ok_gh = False
                detail_gh = f"coset {rep}"
            if note:
                ok_null = False
                detail_null = f"coset {rep}: {note}"
        report.add(q, m, "generator-times-check", ok_gh, detail_gh)
        report.add(q, m, "nullspace-equivalence", ok_null, detail_null)

        detail_dc = _criteria_disagreement(part, part.complements())
        report.add(q, m, "dual-containing-criteria-agree", not detail_dc, detail_dc)

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
            report.add(q, m, "designed-distance-cap", ok_cap, detail_cap)

    # identity checks on both codes of every printed CSS instance at this scale
    for fam, args in families.rows(1, 2):
        if families.length(args) > _N_CAP:
            continue
        params = fam.build(**args)
        for side, code in (("outer", params.outer), ("inner", params.inner)):
            gh_ok, note = _code_identities(code)
            ok = gh_ok and not note
            detail = f"c={params.designed_distance}"
            if not ok:
                detail += f": {note or 'g*h mismatch'}"
            report.add(params.q, params.m, f"family-identities-{side}", ok, detail)
    return report


def verify_css_families(budget=oracle.OracleBudget(),
                        only_q: int | None = None) -> SweepReport:
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
        q, m, c, name = params.q, params.m, params.designed_distance, fam.name
        expected_k = fam.closed_form(n=families.length(args), **args)
        report.add(q, m, f"{name}-dimension", params.k == expected_k,
                   f"c={c}: k={params.k}, formula {expected_k}")
        report.add(q, m, f"{name}-nested", cyclic.nested(params.outer, params.inner),
                   f"c={c}")
        report.add(q, m, f"{name}-distance-bound", params.distance_lb >= c,
                   f"c={c}: bound {params.distance_lb}")
        verified = oracle.css_distance_at_least(params, c, budget)
        report.add(q, m, f"{name}-distance-oracle", verified,
                   f"c={c}" if verified is not None else f"c={c}: enumeration over budget")
    return report


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


def verify_conv_families(budget=oracle.OracleBudget(),
                         only_q: int | None = None) -> SweepReport:
    """Closed forms against actual ranks, the rank hypothesis, the
    reduced/basic check and the bound sandwich for q in 4, 5, 7, 8 (or
    only_q), and a sampled dual-codeword consistency check at q = 4, seeded
    by the budget's seed."""
    qs = (4, 5, 7, 8) if only_q is None else (only_q,)
    report = SweepReport()
    for fam, args in conv_sweep(qs):
        code = fam.build(**args)
        q, name = code.q, fam.name
        claimed = fam.closed_form(n=families.length(args), **args) + (1,)
        report.add(q, 2, f"{name}-parameters",
                   (code.k, code.degree, code.dfree_lb, code.memory) == claimed,
                   f"i={code.index}: got ({code.k}, {code.degree}, {code.dfree_lb})")
        report.add(q, 2, f"{name}-rank-hypothesis", code.kappa >= code.degree,
                   f"kappa={code.kappa}, rank H1={code.degree}")
        rep = conv.check_reduced_basic(code.generator)
        report.add(q, 2, f"{name}-reduced-basic", rep.passed, rep.summary())
        report.add(q, 2, f"{name}-bound-sandwich",
                   code.dfree_lb <= code.dfree_lb_derived <= code.d_parent_lb,
                   f"claimed {code.dfree_lb}, derived {code.dfree_lb_derived}, "
                   f"parent {code.d_parent_lb}")
    if 4 in qs:
        code = conv.family_split(4)
        if budget.max_enumeration > 0:
            found = conv.free_distance_upper(code, 2, budget=budget,
                                             sample=2000, seed=budget.seed)
            report.add(4, 2, "conv-split-dual-search", found >= code.dfree_lb,
                       f"best sampled weight {found} vs claimed {code.dfree_lb}")
        else:
            report.add(4, 2, "conv-split-dual-search", None, "budget 0")
    return report
