"""Unit-memory convolutional codes from split parity-check matrices.

A parent cyclic code's expanded check matrix is split into a head block H0
and a tail block H1; G(D) = H0~ + H1~ D (H1~ zero-padded at the bottom to
the head's row count) generates a convolutional code V.  The code reported
throughout is the Euclidean dual of V, following the convention that the
interesting parameters (n, n - rank H0, rank H1; 1) belong to the dual.

Free distance is handled by bounds only: a lower bound combining the
run-based bounds of the split pieces, and an independent bounded search
for low-degree dual codewords that upper-bounds the free distance.

split_parity returns H0 and H1 as 2-D label arrays, an empty piece as a
(0, n) array, and build_conv copies them into G's blocks as they are.
PolyMatrix holds G as one read-only (memory + 1, kappa, n) label array.
Row degrees, memory and degree come from one nonzero test on it and the
leading matrix is one index into it; G(s) is gf's one Horner, _horner, on
the whole array, so the basicness check evaluates all q points in one pass.
The sliding check stack places whole coefficient blocks.  The five
families are one builder, _split_family, called with their cosets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cyclic, gf, oracle
from .cosets import cosets_of
from .cyclic import CyclicCode
from .gf import FieldContext


@dataclass(frozen=True, eq=False)
class PolyMatrix:
    """Matrix of polynomials in the delay variable: a read-only copy of its
    coefficient matrices, constant term first, as one label array."""

    field: FieldContext
    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.array(self.blocks, dtype=np.int64)
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)

    @property
    def kappa(self) -> int:
        return self.blocks.shape[1]

    @property
    def n(self) -> int:
        return self.blocks.shape[2]

    @property
    def memory(self) -> int:
        return max(self.row_degrees, default=0)

    @property
    def row_degrees(self) -> tuple[int, ...]:
        nonzero = self.blocks.any(axis=2)  # (blocks, kappa)
        last = len(nonzero) - 1 - nonzero[::-1].argmax(axis=0)
        return tuple(np.where(nonzero.any(axis=0), last, 0).tolist())

    @property
    def degree(self) -> int:
        """Overall constraint length: the sum of the row degrees."""
        return sum(self.row_degrees)

    def evaluate(self, points) -> np.ndarray:
        """G(s) for every s in points, as a (points, kappa, n) array."""
        s = np.asarray(points, dtype=np.int64)[:, None, None]
        return gf._horner(self.field, self.blocks, s)

    def leading_matrix(self) -> np.ndarray:
        """Row i of the coefficient matrix of its own highest degree."""
        return self.blocks[list(self.row_degrees), np.arange(self.kappa)]


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
    generator: PolyMatrix = field(compare=False)
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
    head_cosets = {c.rep for c in cosets_of(parent.q, parent.m, head)}
    tail_cosets = {c.rep for c in cosets_of(parent.q, parent.m, tail)}
    parent_reps = {c.rep for c in parent.defining.cosets}
    if head_cosets & tail_cosets:
        raise ValueError("head and tail exponent sets overlap")
    if head_cosets | tail_cosets != parent_reps:
        raise ValueError("head and tail do not cover the parent defining set")
    h0 = cyclic.parity_check_matrix(parent, head)
    h1 = cyclic.parity_check_matrix(parent, tail)
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
    memory = 1 if tail.defining.size else 0
    blocks = np.zeros((1 + memory, kappa, n), np.int64)
    blocks[0] = h0
    if memory:
        blocks[1, :gamma] = h1
    G = PolyMatrix(field=head.base, blocks=blocks)
    d0 = cyclic.bch_bound(head)
    d1 = cyclic.bch_bound(tail)
    dp = cyclic.bch_bound(parent)
    derived = min(d0 + d1, dp)
    return ConvCode(
        n=n, q=head.q, k=n - kappa, degree=gamma, memory=memory, kappa=kappa,
        dfree_lb=claimed_dfree if claimed_dfree is not None else derived,
        d0_lb=d0, d1_lb=d1, d_parent_lb=dp, dfree_lb_derived=derived,
        generator=G, parent=parent, head=head, tail=tail,
        family=family, index=index,
    )


# ----------------------------------------------------------------------
# the five construction families (q >= 4 a prime power, n = q^2 - 1)
# ----------------------------------------------------------------------

def _split_family(q: int, head: range, tail: range, claimed_dfree: int,
                  family: str, i: int | None = None) -> ConvCode:
    """The instance whose head and tail are the cosets of the exponents in
    the two ranges, in length q^2 - 1.  A head may run through q, which lies
    in the coset {1, q} of 1."""
    gf.require_prime_power(q, 4)
    if i is not None and not 1 <= i <= q - 3:
        raise ValueError(f"need 1 <= i <= q-3, got i={i}")
    return build_conv(cyclic.code_from_cosets(q, 2, head),
                      cyclic.code_from_cosets(q, 2, tail),
                      claimed_dfree=claimed_dfree, family=family, index=i)


def family_split(q: int) -> ConvCode:
    """(n, n-2q+1, 2q-3; 1, dfree >= 2q+1): head = cosets of 0..q-1,
    tail = cosets of q+1..2q-1."""
    return _split_family(q, range(q), range(q + 1, 2 * q), 2 * q + 1, "conv-split")


def family_split_wide_head(q: int) -> ConvCode:
    """(n, n-2q, 2q-4; 1, dfree >= 2q+1): the singleton coset of q+1 moves
    into the head."""
    return _split_family(q, range(q + 2), range(q + 2, 2 * q), 2 * q + 1,
                         "conv-wide-head")


def family_split_wider_head(q: int, i: int) -> ConvCode:
    """(n, n-2(q+i), 2(q-2-i); 1, dfree >= 2q+1) for 1 <= i <= q-3: the
    first 1+i tail cosets move into the head."""
    return _split_family(q, range(q + 2 + i), range(q + 2 + i, 2 * q), 2 * q + 1,
                         "conv-wider-head", i)


def family_split_short_parent(q: int, i: int) -> ConvCode:
    """(n, n-2q+1, 2i+1; 1, dfree >= q+i+3) for 1 <= i <= q-3: the parent
    keeps only the first 1+i cosets after the gap, all of them as tail."""
    return _split_family(q, range(q), range(q + 1, q + 2 + i), q + i + 3,
                         "conv-short-parent", i)


def family_split_singleton_tail(q: int) -> ConvCode:
    """(n, n-2q+1, 1; 1, dfree >= q+2): the tail is just the singleton coset
    of q+1."""
    return _split_family(q, range(q), range(q + 1, q + 2), q + 2,
                         "conv-singleton-tail")


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
    """Verify the rank hypothesis (a full-rank constant block; no other
    block can exceed it, as every block has kappa rows) and the
    evaluation-rank basicness criterion."""
    ctx = G.field
    kappa = G.kappa
    rank_h0 = gf.rank(ctx, G.blocks[0])
    values = G.evaluate(range(ctx.q))
    failed = [s for s in range(ctx.q) if gf.rank(ctx, values[s]) != kappa]
    lead_rank = gf.rank(ctx, G.leading_matrix())
    return BasicnessReport(
        kappa=kappa,
        rank_h0=rank_h0,
        rank_condition_ok=rank_h0 == kappa,
        failed_evaluations=tuple(failed),
        leading_rank=lead_rank,
        leading_ok=lead_rank == kappa,
    )


def _sliding_check_stack(G: PolyMatrix, max_degree: int) -> np.ndarray:
    """Constraint matrix whose kernel is the set of dual codewords of degree
    at most max_degree, laid out as concatenated time blocks."""
    blocks = G.blocks
    # band i holds the generator shifted by j = i - (blocks - 1), one band
    # per alignment against the support: its block d sits at time j + d
    shifts = max_degree + len(blocks)
    times = np.arange(max_degree + 1)
    stack = np.zeros((shifts, G.kappa, max_degree + 1, G.n), dtype=np.int64)
    for d, mat in enumerate(blocks):
        stack[len(blocks) - 1 - d + times, :, times] = mat
    rows = stack.reshape(shifts * G.kappa, (max_degree + 1) * G.n)
    return rows[rows.any(axis=1)]


def free_distance_upper(
    code: ConvCode,
    max_input_degree: int,
    budget=oracle.OracleBudget(),
    sample: int | None = None,
    seed: int = 0,
) -> int:
    """Weight of the best (lowest-weight) nonzero codeword found among the
    reported code's codewords of degree <= max_input_degree (the kernel of
    the sliding check stack): an upper bound on the free distance.
    Enumeration beyond the budget raises BudgetError unless `sample` asks
    for that many seeded random kernel combinations instead.
    """
    if max_input_degree < 0:
        raise ValueError("max_input_degree must be >= 0")
    G = code.generator
    ctx = G.field
    stack = _sliding_check_stack(G, max_input_degree)
    kernel = gf.nullspace(ctx, stack)
    if not len(kernel):
        raise ValueError("no nonzero dual codewords at this degree")
    size = ctx.q ** len(kernel)
    if size <= budget.max_enumeration:
        return oracle.span_min_weight(ctx, kernel, budget.max_enumeration)
    if sample is None:
        raise oracle.BudgetError(
            f"kernel of dimension {len(kernel)} exceeds budget "
            f"{budget.max_enumeration}; pass sample=N for a sampled bound"
        )
    return oracle.sampled_min_weight(ctx, kernel, sample, seed)
