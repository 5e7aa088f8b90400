"""Verification sweeps over cyclic codes and the family registry.

Each sweep returns a SweepReport: failures are records, never exceptions.
Family instances come from the registry and are filtered on q and n before
any is built.
"""

from __future__ import annotations

import itertools
from math import isqrt

import numpy as np

from . import conv, cosets, cyclic, families, gf, oracle
from .oracle import SweepReport

_N_CAP = 80  # the identity sweep: codes of length <= _N_CAP


def coset_grid(qmax: int, mmax: int) -> tuple[list[int], range]:
    """Every prime power 3 <= q <= qmax, and the m in 2..mmax, of the
    structural coset sweep (`oracle.coset_theorem_sweep`)."""
    qs = [q for q in range(3, qmax + 1) if len(gf.prime_factors(q)) == 1]
    return qs, range(2, mmax + 1)


def _identity_instances():
    """Deterministic set of (q, m) pairs with q^m - 1 <= _N_CAP."""
    # q^m - 1 <= _N_CAP needs q^2 <= _N_CAP + 1 and, as q >= 3, m < _N_CAP.bit_length()
    qs, ms = coset_grid(isqrt(_N_CAP + 1), _N_CAP.bit_length() - 1)
    return [(q, m) for q in qs for m in ms if q**m - 1 <= _N_CAP]


def _generators_match(codes) -> np.ndarray:
    """For codes over one field pair, True where g is monic of degree |Z|
    and vanishes at alpha^j exactly for j in Z, so g = prod (x - alpha^z)
    divides x^n - 1: one Horner pass over every g, lifted into the
    extension as a zero-padded column."""
    ext, n = codes[0].ext, codes[0].n
    gens = [code.generator for code in codes]
    G = np.zeros((max(map(len, gens)), len(codes)), dtype=np.int64)
    Z = np.zeros((n, len(codes)), dtype=bool)
    for i, (g, code) in enumerate(zip(gens, codes)):
        G[:len(g), i] = g
        Z[:, i] = code.defining.mask
    lifted = gf.subfield_embedding(ext, codes[0].base)._up[G]
    zeros = gf._horner(ext, lifted[:, None], ext._np_exp[:n, None]) == 0
    monic = [len(g) == code.defining.size + 1 and g[-1] == 1 for g, code in zip(gens, codes)]
    return np.array(monic, dtype=bool) & (zeros == Z).all(axis=0)


def _check_matrices(part, codes):
    """Each code's check matrix, cut by its mask at the representatives from
    one check_matrix_blocks call on every coset representative of part."""
    blocks, keep = cyclic.check_matrix_blocks(codes[0], part.reps)
    for code in codes:
        hit = code.defining.mask[part.reps]
        yield blocks[hit][keep[hit]]


def _criteria_disagreement(part, comp) -> str:
    """A note naming the last union of one or two cosets of the partition
    part on which the dual-containing criteria disagree, with comp[i] the
    index of the complementary coset of coset i; empty if there is none."""
    n, count = part.n, len(part.reps)
    rows = np.eye(count, dtype=np.int64)[:, part.owner]  # one-hot coset rows
    # A union Z meets -Z iff a member A meets -B for a member B, and holds the
    # complement of a member iff the complement of an A meets a B.  Both are
    # ORs over pairs: the union of cosets a and b reads the entries [a, a],
    # [a, b], [b, a] and [b, b] of Z (-Z)^T or Z Z[comp]^T, and agreement on
    # the unions of one or two cosets is agreement on every union.
    unions = []
    for meets in (rows @ rows[:, -np.arange(n) % n].T > 0, rows @ rows[comp].T > 0):
        own = np.diagonal(meets)
        unions.append(meets | meets.T | own[:, None] | own)
    bad = np.flatnonzero(np.triu(unions[0] != unions[1]))
    if not bad.size:
        return ""
    a, b = divmod(int(bad[-1]), count)  # the last pair a <= b in row-major order
    reps = sorted({int(part.reps[a]), int(part.reps[b])})
    return f"criteria disagree on the union of cosets {reps} mod {n}"


def verify_cyclic_identities() -> SweepReport:
    """Algebraic identities on small instances: g*h = x^n - 1 and check-matrix
    null-space equivalence for every single-coset code and every family
    code of length <= _N_CAP, in one batched pass per (q, m); the two
    dual-containing criteria on every union of cosets (through the unions
    of one or two cosets); and the designed-distance cap for admissible
    block defining sets."""
    report = SweepReport()
    # the codes by (q, m): each instance's single-coset codes in coset order,
    # then both sides of the printed CSS rows of length <= _N_CAP
    groups = {(q, m): [cyclic.code_from_cosets(q, m, [rep])
                       for rep in cosets.partition(q, m).reps.tolist()]
              for q, m in _identity_instances()}
    sides = [(params, side, code)
             for params in (fam.build(**args) for fam, args in families.rows(1, 2)
                            if families.length(args) <= _N_CAP)
             for side, code in (("outer", params.outer), ("inner", params.inner))]
    for _, _, code in sides:
        groups.setdefault((code.q, code.m), []).append(code)
    results = {}  # code -> (g*h = x^n - 1 holds, null-space failure note or "")
    for (q, m), codes in groups.items():
        for code, gh_ok, H in zip(codes, _generators_match(codes),
                                  _check_matrices(cosets.partition(q, m), codes)):
            # exact: H has rank n - k and every basis codeword satisfies it
            note = ""
            if len(H) != code.n - code.k:
                note = f"check rank {len(H)} != {code.n - code.k}"
            elif gf.mat_vec(code.base, H, cyclic.codeword_basis(code)).any():
                note = "codeword fails parity checks"
            results[code] = bool(gh_ok), note
    for q, m in _identity_instances():
        part = cosets.partition(q, m)
        # the last failing coset names each failure
        singles = [(rep, *results[code]) for rep, code in zip(part.reps.tolist(), groups[q, m])]
        bad_gh = [f"coset {rep}" for rep, gh_ok, _ in singles if not gh_ok]
        bad_null = [f"coset {rep}: {note}" for rep, _, note in singles if note]
        report.add(q, m, "generator-times-check", not bad_gh, bad_gh[-1] if bad_gh else "")
        report.add(q, m, "nullspace-equivalence", not bad_null, bad_null[-1] if bad_null else "")

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
    for params, side, code in sides:
        gh_ok, note = results[code]
        detail = f"c={params.designed_distance}"
        if not gh_ok or note:
            detail += f": {note or 'g*h mismatch'}"
        report.add(params.q, params.m, f"family-identities-{side}", gh_ok and not note, detail)
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
