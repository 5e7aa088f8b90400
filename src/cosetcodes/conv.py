"""Unit-memory convolutional codes from split parity-check matrices.

A parent cyclic code's expanded check matrix is split into a head block H0
and a tail block H1; G(D) = H0~ + H1~ D (H1~ zero-padded at the bottom to
the head's row count) generates a convolutional code V.  The code reported
throughout is the Euclidean dual of V, following the convention that the
interesting parameters (n, n - rank H0, rank H1; 1) belong to the dual.

Free distance is handled by bounds only: a lower bound combining the
run-based bounds of the split pieces, and an independent bounded search
for low-degree dual codewords that upper-bounds the free distance.

split_parity checks the split on the residue masks of head, tail and
parent, and cuts H0 and H1 from one check_matrix_blocks call on head and
tail, as 2-D label arrays, an empty piece as a (0, n) array; build_conv
copies them into G's blocks as they are.
PolyMatrix holds G as one read-only (memory + 1, kappa, n) label array,
which build_conv hands over with no second copy.
The reduced/basic check is one gf.rank call on the nonzero rows of all of
its coefficient blocks, with no evaluation of G(s): on their leading
square first, and on all n columns only when that square is singular.
The sliding check stack places whole coefficient blocks.  The five
families are one builder, _split_family, called with their cosets, for
prime powers 4 <= q <= MAX_Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cyclic, gf, oracle
from .cyclic import CyclicCode
from .gf import FieldContext


@dataclass(frozen=True, eq=False)
class PolyMatrix:
    """Matrix of polynomials in the delay variable: its coefficient
    matrices, constant term first, as one read-only int64 label array.  A
    read-only int64 array is kept as it is; anything else is copied."""

    field: FieldContext
    blocks: np.ndarray

    def __post_init__(self):
        blocks = self.blocks
        if not (isinstance(blocks, np.ndarray) and blocks.dtype == np.int64
                and not blocks.flags.writeable):
            blocks = np.array(blocks, dtype=np.int64)
            blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)

    @property
    def kappa(self) -> int:
        return self.blocks.shape[1]

    @property
    def n(self) -> int:
        return self.blocks.shape[2]


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
    Z0, Z1 = (cyclic.DefiningSet.from_exponents(parent.q, parent.m, xs) for xs in (head, tail))
    if (Z0.mask & Z1.mask).any():
        raise ValueError("head and tail exponent sets overlap")
    if ((Z0.mask | Z1.mask) != parent.defining.mask).any():
        raise ValueError("head and tail do not cover the parent defining set")
    # the head's cosets come first in the one stack of blocks
    blocks, keep = cyclic.check_matrix_blocks(parent, head + tail)
    cut = len(Z0.reps)
    h0, h1 = blocks[:cut][keep[:cut]], blocks[cut:][keep[cut:]]
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
    parent = cyclic.code_from_cosets(head.q, head.m, head.defining.reps + tail.defining.reps)
    h0, h1 = split_parity(parent, head.defining.reps, tail.defining.reps)
    kappa = len(h0)
    gamma = len(h1)
    n = parent.n
    memory = 1 if tail.defining.reps else 0
    blocks = np.zeros((1 + memory, kappa, n), np.int64)
    blocks[0] = h0
    if memory:
        blocks[1, :gamma] = h1
    blocks.flags.writeable = False  # G keeps this array, with no copy
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
# the five construction families (4 <= q <= MAX_Q a prime power,
# n = q^2 - 1)
# ----------------------------------------------------------------------

# the largest q a family builds: on a 2-vCPU VM, the split family's build
# and basicness rank take under 2 s at q = 64; at q = 128 the rank alone
# takes 30 s and the process peaks at 539 MB
MAX_Q = 64


def _split_family(q: int, head: range, tail: range, claimed_dfree: int,
                  family: str, i: int | None = None) -> ConvCode:
    """The instance whose head and tail are the cosets of the exponents in
    the two ranges, in length q^2 - 1.  A head may run through q, which lies
    in the coset {1, q} of 1."""
    gf.require_prime_power(q, 4)
    if q > MAX_Q:
        raise ValueError(f"need q <= {MAX_Q} for the conv families, got {q}")
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
    """Outcome of the desk-scale reduced/basic check: the zero rows of the
    constant block G_0, and the count and rank of the nonzero rows of all of
    G's coefficient blocks G_0, ..., G_mu.

    The criterion is sufficient, not necessary, so `passed` False means
    inconclusive, never a proof of non-basicness.
    """

    kappa: int
    zero_rows_h0: int
    rows: int
    rank: int

    @property
    def passed(self) -> bool:
        return self.zero_rows_h0 == 0 and self.rank == self.rows

    def summary(self) -> str:
        if self.passed:
            return "reduced and basic (desk-scale criterion)"
        parts = []
        if self.zero_rows_h0:
            parts.append(f"zero rows in H0: {self.zero_rows_h0} of {self.kappa}")
        if self.rank < self.rows:
            parts.append(f"rank {self.rank} of the {self.rows} nonzero coefficient rows")
        return "inconclusive: " + "; ".join(parts)


def check_reduced_basic(G: PolyMatrix) -> BasicnessReport:
    """Reduced and basic when G_0 has no zero row and the nonzero rows of
    all coefficient blocks are linearly independent over GF(q): one rank.

    Proof.  Suppose u G(s) = sum_d s^d (u G_d) = 0 for s in the algebraic
    closure.  That is a combination of the nonzero rows with coefficients
    u_i s^d.  Rows independent over GF(q) stay independent over every
    extension, so every coefficient is 0; row i of G_0 is nonzero, so
    u_i s^0 = u_i = 0.  So G(s) has full rank everywhere: G is basic.  Each
    row of the leading matrix is one of the independent rows, so G is also
    reduced.  For the five families the rows are those of H0 and H1, which
    come from disjoint cosets, whose minimal ideals form a direct sum.

    The R rows are ranked on their leading R x R square first: if it has
    rank R, so do the rows.  For the families it always has, as the rows
    span the dual of the parent cyclic code, of dimension R, in which any
    R consecutive positions are an information set (MacWilliams & Sloane,
    ch. 7).  Otherwise the rows are ranked on all n columns.
    """
    nonzero = G.blocks.any(axis=2)  # (blocks, kappa)
    rows = G.blocks[nonzero]
    rank = gf.rank(G.field, rows[:, :len(rows)])
    if rank < len(rows):
        rank = gf.rank(G.field, rows)
    return BasicnessReport(kappa=G.kappa,
                           zero_rows_h0=int(np.count_nonzero(~nonzero[0])),
                           rows=len(rows), rank=rank)


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
    the sliding check stack): an upper bound on the free distance.  A
    kernel that span_min_weight refuses raises BudgetError unless `sample`
    asks for that many seeded random kernel combinations instead.
    """
    if max_input_degree < 0:
        raise ValueError("max_input_degree must be >= 0")
    G = code.generator
    ctx = G.field
    stack = _sliding_check_stack(G, max_input_degree)
    kernel = gf.nullspace(ctx, stack)
    if not len(kernel):
        raise ValueError("no nonzero dual codewords at this degree")
    try:
        return oracle.span_min_weight(ctx, kernel, budget.max_enumeration)
    except oracle.BudgetError:
        if sample is None:
            raise
    return oracle.sampled_min_weight(ctx, kernel, sample, seed)
