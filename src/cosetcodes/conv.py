"""Unit-memory convolutional codes from split parity-check matrices.

A parent cyclic code's expanded check matrix is split into a head block H0
and a tail block H1; G(D) = H0~ + H1~ D (H1~ zero-padded at the bottom to
the head's row count) generates a convolutional code V.  The code reported
throughout is the Euclidean dual of V, following the convention that the
interesting parameters (n, n - rank H0, rank H1; 1) belong to the dual.

Free distance is handled by bounds only: a lower bound combining the
run-based bounds of the split pieces, and an independent bounded search
for low-degree dual codewords that upper-bounds the free distance.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cyclic, gf, oracle
from .cyclic import CyclicCode
from .gf import FieldContext


@dataclass(frozen=True)
class PolyMatrix:
    """Matrix of polynomials in the delay variable, stored as the tuple of
    its coefficient matrices (constant term first)."""

    field: FieldContext
    coeffs: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def kappa(self) -> int:
        return len(self.coeffs[0])

    @property
    def n(self) -> int:
        return len(self.coeffs[0][0]) if self.coeffs[0] else 0

    @property
    def memory(self) -> int:
        mu = 0
        for d, mat in enumerate(self.coeffs):
            if any(any(row) for row in mat):
                mu = d
        return mu

    @property
    def row_degrees(self) -> tuple[int, ...]:
        out = []
        for i in range(self.kappa):
            deg = 0
            for d, mat in enumerate(self.coeffs):
                if any(mat[i]):
                    deg = d
            out.append(deg)
        return tuple(out)

    @property
    def degree(self) -> int:
        """Overall constraint length: the sum of the row degrees."""
        return sum(self.row_degrees)

    def evaluate(self, s: int) -> list[list[int]]:
        """The scalar matrix G(s) over the ground field."""
        ctx = self.field
        out = [list(row) for row in self.coeffs[0]]
        power = 1
        for mat in self.coeffs[1:]:
            power = ctx.mul(power, s) if power else 0
            sp = power
            for i, row in enumerate(mat):
                out[i] = [ctx.add(a, ctx.mul(b, sp)) for a, b in zip(out[i], row)]
        return out

    def leading_matrix(self) -> list[list[int]]:
        """Row i of the coefficient matrix of its own highest degree."""
        degs = self.row_degrees
        return [list(self.coeffs[degs[i]][i]) for i in range(self.kappa)]


@dataclass(frozen=True)
class ConvCode:
    """Parameters of the dual V-perp of the code V generated by
    G(D) = H0~ + H1~ D, plus the split it came from.

    dfree_lb is the bound the construction claims (what tables print);
    dfree_lb_derived combines the split pieces' run bounds through
    min(d0 + d1, d_parent) and is always at least dfree_lb.
    """

    n: int
    q: int
    k: int
    degree: int
    memory: int
    kappa: int
    dfree_lb: int
    d0_lb: int
    d1_lb: int
    d_parent_lb: int
    dfree_lb_derived: int
    generator: PolyMatrix
    parent: CyclicCode
    head: CyclicCode
    tail: CyclicCode
    family: str | None = None
    index: int | None = None

    def bracket(self) -> str:
        return (
            f"({self.n}, {self.k}, {self.degree}; {self.memory}, "
            f"dfree >= {self.dfree_lb})_{self.q}"
        )

    def __repr__(self):
        return f"ConvCode({self.bracket()})"


def split_parity(parent: CyclicCode, head_exponents, tail_exponents):
    """Expanded, dependent-row-free check matrices (H0, H1) of the head and
    tail pieces of the parent's defining set.

    The two exponent lists must partition the parent's coset representatives
    and the head must have rank at least the tail's.
    """
    head = list(head_exponents)
    tail = list(tail_exponents)
    head_cosets = {cyclic.coset_of(parent.q, parent.m, x).rep for x in head}
    tail_cosets = {cyclic.coset_of(parent.q, parent.m, x).rep for x in tail}
    parent_reps = {c.rep for c in parent.defining.cosets}
    if head_cosets & tail_cosets:
        raise ValueError("head and tail exponent sets overlap")
    if head_cosets | tail_cosets != parent_reps:
        raise ValueError("head and tail do not cover the parent defining set")
    h0 = cyclic.parity_check_matrix(parent, head)
    h1 = cyclic.parity_check_matrix(parent, tail) if tail else []
    if len(h0) < len(h1):
        raise ValueError(
            f"rank condition violated: rank H0 = {len(h0)} < rank H1 = {len(h1)}"
        )
    return h0, h1


def build_conv(
    head: CyclicCode,
    tail: CyclicCode,
    claimed_dfree: int | None = None,
    family: str | None = None,
    index: int | None = None,
) -> ConvCode:
    """Unit-memory code from a head/tail pair of cyclic codes over the same
    field; the reported parameters are those of the dual of the generated
    code, with dimension and degree taken from actual matrix ranks."""
    if (head.n, head.q) != (tail.n, tail.q):
        raise ValueError("head and tail have different length or alphabet")
    parent = cyclic.code_from_cosets(
        head.q, head.m,
        list(head.defining.exponents) + list(tail.defining.exponents),
    )
    head_reps = [c.rep for c in head.defining.cosets]
    tail_reps = [c.rep for c in tail.defining.cosets]
    h0, h1 = split_parity(parent, head_reps, tail_reps)
    kappa = len(h0)
    gamma = len(h1)
    n = parent.n
    h1_padded = [list(r) for r in h1] + [[0] * n for _ in range(kappa - gamma)]
    mats = [tuple(tuple(r) for r in h0)]
    if tail.defining.size:
        mats.append(tuple(tuple(r) for r in h1_padded))
    G = PolyMatrix(field=head.base, coeffs=tuple(mats))
    d0 = cyclic.bch_bound(head)
    d1 = cyclic.bch_bound(tail)
    dp = cyclic.bch_bound(parent)
    derived = min(d0 + d1, dp)
    return ConvCode(
        n=n, q=head.q, k=n - kappa, degree=gamma,
        memory=1 if tail.defining.size else 0, kappa=kappa,
        dfree_lb=claimed_dfree if claimed_dfree is not None else derived,
        d0_lb=d0, d1_lb=d1, d_parent_lb=dp, dfree_lb_derived=derived,
        generator=G, parent=parent, head=head, tail=tail,
        family=family, index=index,
    )


# ----------------------------------------------------------------------
# the five construction families (q >= 4 a prime power, n = q^2 - 1)
# ----------------------------------------------------------------------

def _require_q(q: int):
    gf.factor_prime_power(q)
    if q < 4:
        raise ValueError(f"need q >= 4, got {q}")


def family_split(q: int) -> ConvCode:
    """(n, n-2q+1, 2q-3; 1, dfree >= 2q+1): head = cosets of 0..q-1,
    tail = cosets of q+1..2q-1."""
    _require_q(q)
    head = cyclic.code_from_cosets(q, 2, range(q))
    tail = cyclic.code_from_cosets(q, 2, range(q + 1, 2 * q))
    return build_conv(head, tail, claimed_dfree=2 * q + 1, family="conv-split")


def family_split_wide_head(q: int) -> ConvCode:
    """(n, n-2q, 2q-4; 1, dfree >= 2q+1): the singleton coset of q+1 moves
    into the head."""
    _require_q(q)
    head = cyclic.code_from_cosets(q, 2, list(range(q)) + [q + 1])
    tail = cyclic.code_from_cosets(q, 2, range(q + 2, 2 * q))
    return build_conv(head, tail, claimed_dfree=2 * q + 1, family="conv-wide-head")


def family_split_wider_head(q: int, i: int) -> ConvCode:
    """(n, n-2(q+i), 2(q-2-i); 1, dfree >= 2q+1) for 1 <= i <= q-3: the
    first 1+i tail cosets move into the head."""
    _require_q(q)
    if not 1 <= i <= q - 3:
        raise ValueError(f"need 1 <= i <= q-3, got i={i}")
    head = cyclic.code_from_cosets(q, 2, list(range(q)) + list(range(q + 1, q + 2 + i)))
    tail = cyclic.code_from_cosets(q, 2, range(q + 2 + i, 2 * q))
    return build_conv(head, tail, claimed_dfree=2 * q + 1,
                      family="conv-wider-head", index=i)


def family_split_short_parent(q: int, i: int) -> ConvCode:
    """(n, n-2q+1, 2i+1; 1, dfree >= q+i+3) for 1 <= i <= q-3: the parent
    keeps only the first 1+i cosets after the gap, all of them as tail."""
    _require_q(q)
    if not 1 <= i <= q - 3:
        raise ValueError(f"need 1 <= i <= q-3, got i={i}")
    head = cyclic.code_from_cosets(q, 2, range(q))
    tail = cyclic.code_from_cosets(q, 2, range(q + 1, q + 2 + i))
    return build_conv(head, tail, claimed_dfree=q + i + 3,
                      family="conv-short-parent", index=i)


def family_split_singleton_tail(q: int) -> ConvCode:
    """(n, n-2q+1, 1; 1, dfree >= q+2): the tail is just the singleton coset
    of q+1."""
    _require_q(q)
    head = cyclic.code_from_cosets(q, 2, range(q))
    tail = cyclic.code_from_cosets(q, 2, [q + 1])
    return build_conv(head, tail, claimed_dfree=q + 2, family="conv-singleton-tail")


# ----------------------------------------------------------------------
# soundness checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BasicnessReport:
    """Outcome of the desk-scale reduced/basic check.

    The evaluation criterion samples G(s) over the ground field plus the
    leading-coefficient matrix; it is conservative, so `passed` False means
    inconclusive, never a proof of non-basicness.
    """

    kappa: int
    rank_h0: int
    rank_condition_ok: bool
    failed_evaluations: tuple[int, ...]
    leading_rank: int
    leading_ok: bool

    @property
    def passed(self) -> bool:
        return self.rank_condition_ok and not self.failed_evaluations and self.leading_ok

    def summary(self) -> str:
        if self.passed:
            return "reduced and basic (desk-scale criterion)"
        parts = []
        if not self.rank_condition_ok:
            parts.append(f"rank H0 = {self.rank_h0} below row count {self.kappa}")
        if self.failed_evaluations:
            parts.append(f"rank deficient at evaluations {self.failed_evaluations}")
        if not self.leading_ok:
            parts.append(f"leading matrix rank {self.leading_rank} < {self.kappa}")
        return "inconclusive: " + "; ".join(parts)


def check_reduced_basic(G: PolyMatrix) -> BasicnessReport:
    """Verify the rank hypothesis (full-rank constant block, no coefficient
    block exceeding it) and the evaluation-rank basicness criterion."""
    ctx = G.field
    kappa = G.kappa
    rank_h0 = gf.rank(ctx, [list(r) for r in G.coeffs[0]])
    cond = rank_h0 == kappa and all(
        gf.rank(ctx, [list(r) for r in mat]) <= kappa for mat in G.coeffs[1:]
    )
    failed = []
    for s in range(ctx.q):
        if gf.rank(ctx, G.evaluate(s)) != kappa:
            failed.append(s)
    lead_rank = gf.rank(ctx, G.leading_matrix())
    return BasicnessReport(
        kappa=kappa,
        rank_h0=rank_h0,
        rank_condition_ok=cond,
        failed_evaluations=tuple(failed),
        leading_rank=lead_rank,
        leading_ok=lead_rank == kappa,
    )


def _sliding_check_stack(G: PolyMatrix, max_degree: int) -> list[list[int]]:
    """Constraint matrix whose kernel is the set of dual codewords of degree
    at most max_degree, laid out as concatenated time blocks."""
    n, kappa = G.n, G.kappa
    blocks = len(G.coeffs)  # memory + 1
    width = n * (max_degree + 1)
    rows = []
    # shift j runs over all alignments of the generator against the support
    for j in range(-(blocks - 1), max_degree + 1):
        for r in range(kappa):
            row = [0] * width
            nonzero = False
            for d, mat in enumerate(G.coeffs):
                t = j + d
                if 0 <= t <= max_degree and any(mat[r]):
                    row[t * n:(t + 1) * n] = mat[r]
                    nonzero = True
            if nonzero:
                rows.append(row)
    return rows


def free_distance_upper(
    code: ConvCode,
    max_input_degree: int,
    side: str = "dual",
    budget=None,
    sample: int | None = None,
    seed: int = 0,
) -> int:
    """Weight of the best (lowest-weight) nonzero codeword found among
    bounded-degree codewords: an upper bound on the free distance.

    side="primal" enumerates inputs u(D) of degree <= max_input_degree into
    the generated code V; side="dual" (the reported code) enumerates the
    kernel of the sliding check stack.  Enumeration beyond the budget raises
    BudgetError unless `sample` asks for that many seeded random kernel
    combinations instead.
    """
    if max_input_degree < 0:
        raise ValueError("max_input_degree must be >= 0")
    bud = oracle.OracleBudget.of(budget)
    ctx = code.generator.field
    G = code.generator
    n = G.n
    if side == "primal":
        T = max_input_degree
        width = n * (T + len(G.coeffs))
        rows = []
        for j in range(T + 1):
            for r in range(G.kappa):
                row = [0] * width
                for d, mat in enumerate(G.coeffs):
                    row[(j + d) * n:(j + d + 1) * n] = mat[r]
                rows.append(row)
        keep = gf.independent_rows(ctx, rows)
        rows = [rows[i] for i in keep]
        if ctx.q ** len(rows) > bud.max_enumeration:
            raise oracle.BudgetError(
                f"{ctx.q}^{len(rows)} inputs exceed budget {bud.max_enumeration}"
            )
        return oracle.span_min_weight(ctx, rows, bud.max_enumeration)
    if side != "dual":
        raise ValueError("side must be 'primal' or 'dual'")
    stack = _sliding_check_stack(G, max_input_degree)
    kernel = gf.nullspace(ctx, stack)
    if not kernel:
        raise ValueError("no nonzero dual codewords at this degree")
    size = ctx.q ** len(kernel)
    if size <= bud.max_enumeration:
        return oracle.span_min_weight(ctx, kernel, bud.max_enumeration)
    if sample is None:
        raise oracle.BudgetError(
            f"kernel of dimension {len(kernel)} exceeds budget "
            f"{bud.max_enumeration}; pass sample=N for a sampled bound"
        )
    return oracle.sampled_min_weight(ctx, kernel, sample, seed)
