"""Brute-force reference implementations.

Everything fast in this package is tested against these at desk scale.  The
guards are hard errors: an oracle that silently samples is not an oracle.
Performance is a non-goal here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .core import (BaseMismatch, EmptyPartition, Partition, PartitionError, PowerPartition,
                   common_power_base, power, product, to_base_counts)

ASSIGNMENT_GUARD = 10**6
CANDIDATE_GUARD = 10**5


class TooLarge(PartitionError):
    """The requested exhaustive search exceeds the oracle guard."""


def brute_embed(lam: Partition, mu: Partition) -> bool:
    """Try every map from lam indices to mu indices."""
    space = len(mu) ** len(lam)
    if space > ASSIGNMENT_GUARD:
        raise TooLarge(f"{space} assignments exceed the guard of {ASSIGNMENT_GUARD}")
    for assignment in itertools.product(range(len(mu)), repeat=len(lam)):
        loads = [0] * len(mu)
        for i, j in enumerate(assignment):
            loads[j] += lam[i]
        if all(loads[j] <= mu[j] for j in range(len(mu))):
            return True
    return False


def brute_supermajorize(mu: Partition, lam: Partition) -> bool:
    """Tail-sum dominance checked at every threshold up to max entry + 1."""
    top = max(mu.max_entry, lam.max_entry)
    for x in range(1, top + 2):
        if sum(e for e in mu.entries if e >= x) < sum(e for e in lam.entries if e >= x):
            return False
    return True


def _candidate_count(max_len: int, max_entry: int) -> int:
    return sum(math.comb(max_entry + l - 1, l) for l in range(1, max_len + 1))


def brute_stable_search(lam: Partition, mu: Partition, max_len: int,
                        max_entry: int) -> Partition | None:
    """Bounded existence search for a catalyst nu with lam x nu embedding in mu x nu.

    Enumerates every nonincreasing candidate within the bounds and returns the
    best valid one: candidates comparable under the catalyst order (power of
    the pair's common base) come first, in that order; remaining ties break on
    total then entries.  Each candidate's products are packed by ``_packs``,
    not by the embedding search this oracle checks.
    """
    space = _candidate_count(max_len, max_entry)
    if space > CANDIDATE_GUARD:
        raise TooLarge(f"{space} candidates exceed the guard of {CANDIDATE_GUARD}")
    base = common_power_base(lam, mu)
    best = None
    best_key = None
    for length in range(1, max_len + 1):
        for entries in itertools.combinations_with_replacement(range(max_entry, 0, -1), length):
            nu = Partition(entries)
            prod_l = product(lam, nu)
            prod_m = product(mu, nu)
            if prod_l.total > prod_m.total or not _packs(prod_l.entries, prod_m.entries):
                continue
            key = _candidate_key(nu, base)
            if best_key is None or key < best_key:
                best, best_key = nu, key
    return best


def _packs(items: tuple[int, ...], bins: tuple[int, ...]) -> bool:
    """Exhaustive packing of nonincreasing ``items`` into ``bins``.

    The largest item left goes into each distinct residual capacity in turn;
    bins of equal residual capacity are interchangeable, so one of them is
    tried.  Residual capacities are kept sorted, and the failed (item index,
    capacities) states are remembered.
    """
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def place(i: int, caps: tuple[int, ...]) -> bool:
        if i == len(items):
            return True
        if (i, caps) in failed:
            return False
        item = items[i]
        for j, cap in enumerate(caps):
            if cap < item:
                break
            if j and caps[j - 1] == cap:
                continue
            rest = caps[:j] + caps[j + 1:]
            if place(i + 1, tuple(sorted(rest + (cap - item,), reverse=True))):
                return True
        failed.add((i, caps))
        return False

    return place(0, tuple(sorted(bins, reverse=True)))


def nu_order_compare(u: PowerPartition, v: PowerPartition) -> int:
    """Catalyst quality order: span length first, then count ratios.

    The key is scale-free: multiplying all counts or shifting every box up a
    level leaves it unchanged.  Returns -1, 0, or 1.
    """
    if u.base != v.base:
        raise BaseMismatch(f"bases differ: {u.base} vs {v.base}")
    if u.is_empty or v.is_empty:
        raise EmptyPartition("catalyst order needs nonempty operands")
    ku, kv = _nu_key(u), _nu_key(v)
    return (ku > kv) - (ku < kv)


def _nu_key(pp: PowerPartition):
    counts = pp.counts
    first = next(i for i, c in enumerate(counts) if c)
    span = len(counts) - first
    ratios = tuple(Fraction(counts[first + k], counts[first]) for k in range(1, span))
    return span, ratios


def _candidate_key(nu: Partition, base: int | None):
    if base is not None:
        try:
            span, ratios = _nu_key(to_base_counts(nu, base))
            return (0, span, ratios, nu.total, nu.entries)
        except PartitionError:
            pass
    return (1, len(nu), (), nu.total, nu.entries)


class BulkSampleRow(NamedTuple):
    n: int
    copies: int
    embedded: bool


def bulk_sample(lam: Partition, mu: Partition, n_max: int, eps) -> list[BulkSampleRow]:
    """Sanity sampling of the bulk definition at small tensor powers.

    For each N up to ``n_max`` reports whether the N-th power of lam embeds
    into the ceil(N*(1+eps))-th power of mu.  A companion to the norm
    characterization, never a decision procedure.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    rows = []
    for n in range(1, n_max + 1):
        copies = math.ceil(n * (1 + eps))
        lam_n = power(lam, n)
        mu_k = power(mu, copies)
        rows.append(BulkSampleRow(n, copies, brute_embed(lam_n, mu_k)))
    return rows
