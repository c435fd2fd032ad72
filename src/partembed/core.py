"""Integral partitions and their multiset algebra.

A partition here is a finite nonincreasing sequence of positive integers.
The algebra the embeddability orders need is small: juxtaposition addition,
entrywise product, iterated product, scalar multiples, and a count-vector
form for partitions whose entries are all powers of one fixed base, in which
the entrywise product is the convolution of the count vectors.

Values are immutable and every operation is a pure function of its inputs,
so everything in this module is safe for unrestricted concurrent use.
Entries are plain Python ints: iterated products grow quickly and must stay
exact.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

# Most boxes that a count document or a catalyst product may hold: its
# expanded list, the entries of a document or the assignment of a witness,
# holds one item per box.
MAX_BOXES = 10**6


class PartitionError(Exception):
    """Base class for the domain errors raised by this package."""


class InvalidEntry(PartitionError):
    """Partition entry is not a positive integer (or order is broken)."""


class EmptyPartition(PartitionError):
    """A nonempty partition was required."""


class InvalidExponent(PartitionError):
    """Exponent outside its allowed range."""


class InvalidScalar(PartitionError):
    """Scalar multiplier must be a positive integer."""


class InvalidBase(PartitionError):
    """Base for a count-vector form must be an integer >= 2."""


class NotPowerOfBase(PartitionError):
    """Entry is not a power of the requested base."""

    def __init__(self, entry: int, base: int):
        super().__init__(f"{entry} is not a power of {base}")
        self.entry = entry
        self.base = base


class BaseMismatch(PartitionError):
    """Count-vector operands use different bases."""


class ContractViolation(PartitionError):
    """A documented precondition was not met by the caller."""


@dataclass(frozen=True)
class Partition:
    """Canonical (nonincreasing) tuple of positive integers.

    Equality is tuple equality, which by the canonical order coincides with
    multiset equality.  Use :func:`from_entries` to build one from unsorted
    input; the constructor itself insists on canonical order.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise EmptyPartition("a partition needs at least one entry")
        prev = None
        for e in entries:
            if isinstance(e, bool) or not isinstance(e, int) or e < 1:
                raise InvalidEntry(f"entry {e!r} is not a positive integer")
            if prev is not None and e > prev:
                raise InvalidEntry("entries not nonincreasing; use from_entries")
            prev = e

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    @property
    def total(self) -> int:
        """Sum of all entries (the l1 norm)."""
        return sum(self.entries)

    @property
    def max_entry(self) -> int:
        return self.entries[0]

    def __repr__(self) -> str:
        return f"Partition({list(self.entries)})"


@dataclass(frozen=True)
class PowerPartition:
    """Count-vector form ``[a_0, ..., a_n]`` of a power-of-``base`` partition.

    ``counts[i]`` is the number of entries equal to ``base**i``.  The last
    count must be nonzero (canonical trailing form).  The empty count vector
    is allowed: it is the marker for "everything cancelled" produced by pair
    normalization, and cannot be converted back to a :class:`Partition`.
    """

    base: int
    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.counts)
        object.__setattr__(self, "counts", counts)
        if isinstance(self.base, bool) or not isinstance(self.base, int) or self.base < 2:
            raise InvalidBase(f"base {self.base!r} must be an integer >= 2")
        for c in counts:
            if isinstance(c, bool) or not isinstance(c, int) or c < 0:
                raise InvalidEntry(f"count {c!r} is not a nonnegative integer")
        if counts and counts[-1] == 0:
            raise InvalidEntry("trailing count must be nonzero (canonical form)")

    @property
    def is_empty(self) -> bool:
        return not self.counts

    @property
    def box_count(self) -> int:
        return sum(self.counts)

    def __repr__(self) -> str:
        return f"PowerPartition(base={self.base}, counts={list(self.counts)})"


def from_entries(raw: Iterable[int]) -> Partition:
    """Canonicalize arbitrary-order input into a Partition.

    Raises InvalidEntry for nonpositive entries and EmptyPartition for
    empty input.
    """
    entries = list(raw)
    if not entries:
        raise EmptyPartition("a partition needs at least one entry")
    for e in entries:
        if isinstance(e, bool) or not isinstance(e, int) or e < 1:
            raise InvalidEntry(f"entry {e!r} is not a positive integer")
    return Partition(tuple(sorted(entries, reverse=True)))


def add(a: Partition, b: Partition) -> Partition:
    """Multiset union (reordered juxtaposition) of two partitions."""
    return Partition(tuple(sorted(a.entries + b.entries, reverse=True)))


def product(a: Partition, b: Partition) -> Partition:
    """All pairwise entry products, in canonical order."""
    return Partition(tuple(sorted((x * y for x in a.entries for y in b.entries), reverse=True)))


def count_product(a: PowerPartition, b: PowerPartition) -> PowerPartition:
    """All pairwise box products of two same-base count vectors: the
    convolution of their counts, since q**i * q**j == q**(i + j)."""
    if a.base != b.base:
        raise BaseMismatch(f"bases differ: {a.base} vs {b.base}")
    if a.is_empty or b.is_empty:
        return PowerPartition(a.base, ())
    counts = [0] * (len(a.counts) + len(b.counts) - 1)
    for i, x in enumerate(a.counts):
        for j, y in enumerate(b.counts):
            counts[i + j] += x * y
    return PowerPartition(a.base, tuple(counts))


def power(a: Partition, n: int) -> Partition:
    """Iterated product of ``a`` with itself, ``n`` factors total (n >= 1)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidExponent(f"power exponent {n!r} must be a positive integer")
    out = a
    for _ in range(n - 1):
        out = product(out, a)
    return out


def scale(a: Partition, alpha: int) -> Partition:
    """Multiply every entry by the positive integer ``alpha``."""
    if isinstance(alpha, bool) or not isinstance(alpha, int) or alpha < 1:
        raise InvalidScalar(f"scalar {alpha!r} must be a positive integer")
    return Partition(tuple(alpha * e for e in a.entries))


def _power_exponent(n: int, q: int) -> int | None:
    """Exponent e with q**e == n, or None if n is not a power of q."""
    if n < 1:
        return None
    e = 0
    while n > 1:
        n, r = divmod(n, q)
        if r:
            return None
        e += 1
    return e


def integer_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, exact integer arithmetic."""
    if n < 0 or k < 1:
        raise ValueError("integer_root needs n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n
    # Newton descends from 2**ceil(bits/k), which lies above the root, to its floor.
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def to_base_counts(a: Partition, q: int) -> PowerPartition:
    """Count-vector form of ``a`` in base ``q``.

    Raises NotPowerOfBase on the largest entry that is not a power of q.
    """
    if isinstance(q, bool) or not isinstance(q, int) or q < 2:
        raise InvalidBase(f"base {q!r} must be an integer >= 2")
    levels: dict[int, int] = {}
    for e, n in Counter(a.entries).items():
        k = _power_exponent(e, q)
        if k is None:
            raise NotPowerOfBase(e, q)
        levels[k] = n
    # tuple() of a list, not of a generator: a tuple built from a generator
    # is resized to its length, and on release it joins the free list of that
    # length, which the next generator-built tuple never draws from.
    return PowerPartition(q, tuple([levels.get(i, 0) for i in range(max(levels) + 1)]))


def from_base_counts(pp: PowerPartition) -> Partition:
    """Expand a count vector back into its Partition (inverse of to_base_counts)."""
    if pp.is_empty:
        raise EmptyPartition("cannot expand an empty count vector")
    entries: list[int] = []
    for i in range(len(pp.counts) - 1, -1, -1):
        entries.extend([pp.base**i] * pp.counts[i])
    return Partition(tuple(entries))


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n, by the sieve of Eratosthenes."""
    sieve = bytearray(2) + bytearray([1]) * (n - 1)  # 0 and 1 are not prime
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, is_prime in enumerate(sieve) if is_prime]


def minimal_root(m: int) -> int:
    """The smallest r with a power equal to m >= 2, found by taking
    prime-degree roots of m while there are any.  Every q with a power equal
    to m is itself a power of r.  The cost is one ``integer_root`` per prime
    up to the bit length of m: about a second for a 10,000-bit m that is not
    a perfect power."""
    r = m
    for p in _primes_upto(r.bit_length() - 1):
        if p >= r.bit_length():  # r < 2**p: no p-th root >= 2
            break
        while (root := integer_root(r, p)) ** p == r:
            r = root
    return r


def common_power_base(a: Partition | PowerPartition,
                      b: Partition | PowerPartition) -> int | None:
    """Smallest base q >= 2 such that every entry of both sides is a power of q.

    Either side may be an entry list or a nonempty count vector.  Only one
    candidate is tested: the minimal root r of the smallest value m above 1.
    A valid base q has m = q**k, so q is a power of r, and r is valid
    whenever any base is, and it is the smallest.  Returns None when no base
    exists.  A count vector stands for its boxes by its base alone: r is
    never a perfect power, so a box base**i with i >= 1 is a power of r
    exactly when base is, and base is its smallest box above 1; unit boxes
    are powers of every r.
    """
    values: set[int] = set()
    for side in (a, b):
        if isinstance(side, Partition):
            values.update(side.entries)
        elif side.is_empty:
            raise EmptyPartition("a pair's count vectors need at least one box")
        elif len(side.counts) > 1:
            values.add(side.base)
    values.discard(1)
    if not values:
        # All entries are 1; any base works, report the smallest.
        return 2
    r = minimal_root(min(values))
    if all(_power_exponent(v, r) is not None for v in values):
        return r
    return None
