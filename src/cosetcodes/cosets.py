"""q-ary cyclotomic cosets modulo n = q^m - 1 and their structure.

Everything here is plain modular arithmetic; no field tables are involved.
All values are immutable and all functions are pure.  For n up to
MAX_MODULUS the partition into cosets is built once per (q, n), as numpy
arrays, and every coset question is a lookup into it; cosets_of turns the
exponents of a defining set into its cosets with one mask over the owner
array.  Larger moduli walk the orbit instead.  The gap, parity and oplus
structure exists only as whole-partition arrays, each one expression over
the full orbit rows of the partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_MODULUS = 10**6


@dataclass(frozen=True)
class Coset:
    """One q-ary cyclotomic coset modulo n.

    `elements` lists the orbit in multiplication order starting from the
    minimum element: rep, rep*q, rep*q^2, ... reduced mod n.
    """

    n: int
    q: int
    rep: int
    elements: tuple[int, ...]

    @property
    def cardinality(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"Coset(q={self.q}, n={self.n}, {{{', '.join(map(str, self.elements))}}})"


def _orbit(q: int, n: int, a: int) -> list[int]:
    a %= n
    out = [a]
    j = (a * q) % n
    while j != a:
        out.append(j)
        j = (j * q) % n
    return out


def _coset_by_walk(q: int, n: int, a: int) -> Coset:
    """The coset of a, by walking its orbit: the slow reference for the
    partition, and the only path above MAX_MODULUS."""
    rep = min(_orbit(q, n, a))
    return Coset(n=n, q=q, rep=rep, elements=tuple(_orbit(q, n, rep)))


@dataclass(frozen=True, eq=False)
class Partition:
    """All cosets modulo n = q^m - 1 as arrays, sorted by representative.

    owner[x] is the index of the coset containing residue x, and row i of
    `elements` is reps[i] * q^j mod n for j < m: the orbit of coset i, its
    first cards[i] entries, repeated m / cards[i] times.  A min, any or all
    along a whole row is therefore the same as over the orbit, so every
    whole-partition question reads the full rows.  The complement of coset
    i is the single lookup owner[(n - reps[i]) % n].
    """

    q: int
    n: int
    owner: np.ndarray  # int32
    reps: np.ndarray
    cards: np.ndarray
    elements: np.ndarray

    def coset(self, i: int) -> Coset:
        """Coset i, built from row i of `elements`."""
        els = tuple(self.elements[i, : self.cards[i]].tolist())
        return Coset(n=self.n, q=self.q, rep=els[0], elements=els)

    def at(self, x: int) -> Coset:
        """The coset containing residue x, 0 <= x < n."""
        return self.coset(int(self.owner[x]))

    def hit(self, exponents) -> np.ndarray:
        """True for each coset holding one of the exponents, reduced mod n."""
        try:
            xs = np.asarray(exponents, dtype=np.int64) % self.n
        except OverflowError:  # an exponent past int64
            xs = np.array([a % self.n for a in exponents], dtype=np.int64)
        out = np.zeros(len(self.reps), bool)
        out[self.owner[xs]] = True
        return out

    def gaps(self) -> np.ndarray:
        """The gap per coset: the least difference between adjacent sorted
        elements, 0 for singletons, whose rows hold no positive difference."""
        d = np.diff(np.sort(self.elements, axis=1), axis=1)
        return np.min(d, axis=1, where=d > 0, initial=self.n) % self.n

    def mixed(self) -> np.ndarray:
        """True for each coset with both even and odd elements."""
        E = self.elements
        return (E % 2 != E[:, :1] % 2).any(axis=1)

    def complements(self) -> np.ndarray:
        """The complementary coset of each coset, as coset indices."""
        return self.owner[(self.n - self.reps) % self.n]

    def oplus(self, other: np.ndarray) -> np.ndarray:
        """The oplus of coset i with coset other[i] per coset, as coset
        indices: the coset of reps[i] + w for the witness w of coset other[i]
        with reps[i] + w = 0 mod n; -1 where coset other[i] holds no
        witness."""
        sums = (self.reps[:, None] + self.elements[other]) % self.n
        return np.where((sums == 0).any(axis=1), int(self.owner[0]), -1)


@lru_cache(maxsize=None)
def _partition(q: int, n: int) -> Partition:
    m = 1  # n = q^m - 1
    while q**m <= n:
        m += 1
    # The least element of each orbit is the running minimum of its m images
    # x * q^j mod n; no n x m array is built.  The products q * x reach about
    # 10^12, so they are int64.
    x = np.arange(n, dtype=np.int64)
    least, image = x.copy(), x
    for _ in range(m - 1):
        image = image * q % n
        np.minimum(least, image, out=least)
    reps = np.flatnonzero(least == x)
    index = np.empty(n, np.int32)
    index[reps] = np.arange(len(reps), dtype=np.int32)
    owner = index[least]
    elements = np.empty((len(reps), m), np.int64)
    elements[:, 0] = reps
    for j in range(1, m):
        elements[:, j] = elements[:, j - 1] * q % n
    arrays = owner, reps, np.bincount(owner, minlength=len(reps)), elements
    for a in arrays:  # shared by every caller through the cache
        a.flags.writeable = False
    return Partition(q, n, *arrays)


def partition(q: int, m: int) -> Partition:
    """The partition of {0, ..., n-1} into cosets modulo n = q^m - 1."""
    if q < 2 or m < 1:
        raise ValueError("need q >= 2 and m >= 1")
    n = q**m - 1
    if n > MAX_MODULUS:
        raise ValueError(f"modulus {n} exceeds cap {MAX_MODULUS}")
    return _partition(q, n)


def _modulus(q: int, m: int) -> int:
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return q**m - 1


def coset_of(q: int, m: int, a: int) -> Coset:
    """The q-ary coset of a modulo q^m - 1 (a is reduced first)."""
    n = _modulus(q, m)
    return _coset_by_walk(q, n, a) if n > MAX_MODULUS else _partition(q, n).at(a % n)


def cosets_of(q: int, m: int, exponents) -> list[Coset]:
    """The distinct cosets of the exponents modulo q^m - 1, sorted by
    representative (each exponent is reduced first): one Partition.hit mask,
    or an orbit walk per exponent above MAX_MODULUS."""
    n = _modulus(q, m)
    if n > MAX_MODULUS:
        by_rep = {c.rep: c for c in (_coset_by_walk(q, n, int(a)) for a in exponents)}
        return [by_rep[rep] for rep in sorted(by_rep)]
    part = _partition(q, n)
    return list(map(part.coset, np.flatnonzero(part.hit(exponents)).tolist()))


def all_cosets(q: int, m: int) -> list[Coset]:
    """Partition of {0, ..., n-1} into cosets, sorted by representative."""
    part = partition(q, m)
    return list(map(part.coset, range(len(part.reps))))


def disjointness_range(q: int, m: int) -> int:
    """Largest T such that any distinct x, y in [1, T] not divisible by q
    are guaranteed to lie in distinct cosets.

    Even m uses the improved bound 2*q^(m/2); odd m falls back to the
    general-range bound min(q^ceil(m/2) - 1, n - 1).
    """
    if q < 2 or m < 1:
        raise ValueError("need q >= 2 and m >= 1")
    n = q**m - 1
    if m % 2 == 0:
        return 2 * q ** (m // 2)
    return min(q ** ((m + 1) // 2) - 1, n - 1)


def ladder_cosets(q: int, m: int, c: int) -> list[Coset]:
    """The cosets of q+1, 2q+1, ..., cq+1: pairwise disjoint, each of
    cardinality m, disjoint from the cosets of 1..c, with final orbit
    elements forming c consecutive integers.

    Hypothesis: m >= 1, 1 <= c <= q and cq + 1 < q^ceil(m/2) - 1.  The
    bound c <= q is needed: for c >= q + 1 the first ladder coset, of q + 1,
    is itself one of the cosets of 1..c.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if not 1 <= c <= q:
        raise ValueError(f"hypothesis violated: need 1 <= c <= {q}, got c={c}")
    bound = q ** ((m + 1) // 2) - 1
    if not c * q + 1 < bound:
        raise ValueError(
            f"hypothesis violated: {c}*{q}+1 = {c * q + 1} is not < {bound}"
        )
    n = q**m - 1
    out = [coset_of(q, m, j * q + 1) for j in range(1, c + 1)]
    seen: dict[int, int] = {}
    for j, cs in enumerate(out, start=1):
        if cs.cardinality != m:
            raise AssertionError(f"{cs!r} does not have {m} elements")
        if cs.rep != j * q + 1:
            raise AssertionError(f"{j * q + 1} is not minimal in its coset {cs!r}")
        for x in cs.elements:
            if x in seen:
                raise AssertionError(f"element {x} shared between ladder cosets")
            seen[x] = cs.rep
    for i in range(1, c + 1):
        low = coset_of(q, m, i)
        if any(x in seen for x in low.elements):
            raise AssertionError(f"ladder cosets meet the coset of {i}")
    lasts = [((j * q + 1) * q ** (m - 1)) % n for j in range(1, c + 1)]
    for a, b in zip(lasts, lasts[1:]):
        if b != a + 1:
            raise AssertionError(f"final elements {lasts} are not consecutive")
    return out
