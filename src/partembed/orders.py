"""The directly checkable relations: embedding and supermajorization.

Embedding of lam into mu assigns every entry of lam to an entry of mu so
that no target is overfilled; deciding it is bin packing, so the exact
search is a budgeted branch-and-bound.  Supermajorization compares tail
sums at every threshold in one sweep of the signed profile ``norm_profile``,
``norms.failing_threshold``, which the exact bulk path shares.  For power-of-q
partitions the two coincide, and the witness is built greedily by splitting
leftover capacity into base-q digits; that greedy works on box exponents read
from the count vectors and places the boxes of one level a run of bins at a
time.  ``stablep.Pair`` picks the greedy path or the search for a pair.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

from .core import BaseMismatch, Partition, PartitionError, PowerPartition
from .norms import failing_threshold, norm_profile

DEFAULT_NODE_BUDGET = 10**7
# Most bits the wasted-space prune of ``embeds`` may spend on its subset-sum
# bitsets (about 512 KiB); larger inputs search without it.
WASTE_BITS = 2**22


class BudgetExceeded(PartitionError):
    """The search node limit was hit before the question was resolved.

    This is a first-class outcome distinct from "no embedding".
    """

    def __init__(self, nodes: int):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class EmbeddingWitness:
    """Assignment of lam-entry indices to mu-entry indices, with bin loads.

    ``assignment[i] = j`` places lam's i-th canonical entry into mu's j-th
    canonical entry; ``loads[j]`` is the resulting total in bin j.
    """

    assignment: tuple[int, ...]
    loads: tuple[int, ...]

    def validate(self, lam: Partition, mu: Partition) -> bool:
        """Recheck every invariant against the exact inputs."""
        if len(self.assignment) != len(lam):
            return False
        if len(self.loads) != len(mu):
            return False
        loads = [0] * len(mu)
        for i, j in enumerate(self.assignment):
            if not 0 <= j < len(mu):
                return False
            loads[j] += lam[i]
        if tuple(loads) != self.loads:
            return False
        return all(loads[j] <= mu[j] for j in range(len(mu)))


def _make_witness(lam: Partition, mu: Partition, assignment: Sequence[int]) -> EmbeddingWitness:
    loads = [0] * len(mu)
    for i, j in enumerate(assignment):
        loads[j] += lam[i]
    return EmbeddingWitness(tuple(assignment), tuple(loads))


class Supermajorization(NamedTuple):
    holds: bool
    failing_x: int | None


def supermajorizes(mu: Partition, lam: Partition) -> Supermajorization:
    """True iff for every threshold x the tail sum of mu dominates lam's, that
    is no tail difference of the signed profile n_v = mult_mu(v) - mult_lam(v)
    is negative; ``failing_threshold`` gives the smallest failing x."""
    failing_x = failing_threshold(norm_profile(lam, mu).coefficients)
    return Supermajorization(failing_x is None, failing_x)


def embeds(lam: Partition, mu: Partition,
           node_budget: int = DEFAULT_NODE_BUDGET) -> EmbeddingWitness | None:
    """Complete branch-and-bound search for an embedding of lam into mu.

    Items are placed largest first.  Pruning: supermajorization before the
    search (at x = 1 and x = lam.max_entry it bounds the total and the
    largest entry); at each node the remaining items must be supermajorized
    by the remaining capacities, identical items only move rightward across
    bins, and bins with equal remaining capacity are tried once per node.
    Deterministic: the witness returned is the first under the induced
    assignment order.

    The supermajorization prune is checked just above each residual
    capacity c, which is exact: between two capacity values the capacity tail
    sum is constant while the item tail sum can only grow as the threshold
    falls, so each such interval binds at its lowest threshold, and at or
    below the smallest capacity the capacity tail is the whole room, which
    never falls below the remaining items.  A capacity at or above the next
    item has no remaining item above it and needs no check; the check above
    the largest capacity asks for a bin that holds the next item.  Prefix sums
    are built once per call, so a node costs one sort of the capacities and
    one bisection per capacity below the next item: O(bins log items).

    Wasted-space prune (the bin-completion bound of Korf, AAAI 2002): let
    slack = total(mu) - total(lam).  Placing an item lowers the residual
    capacity and the remaining items by the same amount, so the slack is the
    same at every node.  A complete packing wastes exactly the slack in total,
    so under a node every bin of residual capacity c > slack must end up
    holding a subset of the remaining items whose sum lies in [c - slack, c];
    a node where some bin has no such subset has no embedding under it and is
    pruned.  The subset sums of each suffix of items are built once per call
    as integer bitsets of ``mu.max_entry + 1`` bits; each node tests a bin
    with one shift and one mask.

    Fewest-items bound, in the same sweep: the remaining items are sorted
    largest first, so t(c), the length of their shortest prefix that sums to
    at least c - slack, is the fewest of them that can fill a bin of room c to
    within the slack, and one bisection of the prefix sums finds it.  The
    bins hold disjoint items, so a node where the t(c) of the bins with
    c > slack add up to more than the items left has no embedding under it
    and is pruned.

    Both slack-based prunes cut only empty subtrees, so the first witness is
    unchanged.  They are skipped when slack >= mu.max_entry (no bin needs
    them) and when the bitsets would exceed ``WASTE_BITS`` bits in all, which
    bounds their memory and time for huge entries or many items.

    Raises BudgetExceeded when ``node_budget`` placements were tried without
    resolving the question.
    """
    if not supermajorizes(mu, lam).holds:
        return None
    items = lam.entries
    caps = list(mu.entries)
    n = len(items)
    # prefix[k] is the sum of items[:k]; neg_items ascends, so bisecting it
    # finds where the items above a value end.
    prefix = [0]
    for item in items:
        prefix.append(prefix[-1] + item)
    neg_items = [-item for item in items]
    # reach[k] has bit s set iff some subset of items[k:] sums to s <= the
    # largest bin; empty when the slack-based checks are off.
    slack = mu.total - lam.total
    reach: list[int] = []
    window = 0
    if slack < mu.max_entry and (n + 1) * (mu.max_entry + 1) <= WASTE_BITS:
        mask = (1 << (mu.max_entry + 1)) - 1
        reach = [1] * (n + 1)
        for k in range(n - 1, -1, -1):
            reach[k] = (reach[k + 1] | reach[k + 1] << items[k]) & mask
        window = (1 << (slack + 1)) - 1
    assignment = [0] * n
    nodes = 0

    def fits(k: int) -> bool:
        """Whether the capacities supermajorize the items from k on, and every
        bin with room above the slack can be filled to within it by a subset
        of them, by few enough items for all such bins at once."""
        done = prefix[k]
        top = items[k]
        ordered = sorted(caps, reverse=True)
        above = done  # done plus the room of the bins already swept
        for cap in ordered:
            # The bins above cap must hold every remaining item above cap.
            if cap < top and above < prefix[bisect_left(neg_items, -cap, k)]:
                return False
            above += cap
        if reach:
            sums = reach[k]
            floor = done - slack
            spare = n - k
            for cap in ordered:
                if cap <= slack:
                    break
                if not (sums >> (cap - slack)) & window:
                    return False
                spare -= bisect_left(prefix, floor + cap, k) - k
            return spare >= 0
        return True

    # Depth-first over the items, one loop with an explicit stack: nxt[idx] is
    # the next bin to try for item idx and seen[idx] the capacities it tried.
    nxt = [0] * n
    seen: list[set[int]] = [set() for _ in range(n)]
    idx = 0
    while 0 <= idx < n:
        item = items[idx]
        for j in range(nxt[idx], len(caps)):
            cap = caps[j]
            if cap < item or cap in seen[idx]:
                continue
            seen[idx].add(cap)
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(nodes)
            caps[j] -= item
            if idx + 1 == n or fits(idx + 1):
                assignment[idx] = j
                nxt[idx] = j + 1
                idx += 1
                if idx < n:
                    # identical items only move rightward across bins
                    nxt[idx] = j if items[idx] == item else 0
                    seen[idx].clear()
                break
            caps[j] += item
        else:
            idx -= 1
            if idx >= 0:
                caps[assignment[idx]] += items[idx]
    if idx == n:
        return _make_witness(lam, mu, assignment)
    return None


def embed_powerq(lam: PowerPartition, mu: PowerPartition) -> EmbeddingWitness | None:
    """Embedding decision and witness for same-base power partitions.

    Greedy: place the largest remaining box into the largest remaining
    capacity and split the leftover into base-q digit pieces (every piece is
    at least as large as the box just placed, so nothing is stranded).  It
    answers None when no capacity is left or the largest is below the box.

    Capacities live in a heap of runs (-level, first bin, bins, pieces): each
    of the bins from the first on holds that many pieces of size q**level.
    mu enters as one run of one piece per bin for each nonzero level.  lam's
    boxes of one level are placed a batch at a time: whole bins of the top
    run while enough boxes are left, else the part of one bin that the
    level's last boxes fill.  A batch stops at the first bin of the next run
    of the same level, and two runs of one level that begin at the same bin
    first merge over their common bins, so pieces leave in the order of
    (level, bin), the order in which one box at a time would take them, and
    the witness is the same.  Placing a batch of boxes below the run's level
    splits its leftover into one run per lower level, with q - 1 pieces in a
    bin for each box it took, so neither a large base nor a large count costs
    a heap entry per piece or per box.  The witness maps back to the
    original mu indices; each bin's load is summed from the levels of the
    boxes placed in it, so neither side is expanded into its entries, though
    the assignment holds one index per box.

    Supermajorization is decisive here, and the greedy decides it: when mu
    supermajorizes lam, then at every level x = q**e up to the current box
    the pieces >= x sum to at least the remaining boxes >= x.  Each
    placement keeps it, and at the box's own level it means that some
    piece >= the box is on the heap, so the greedy never stops early.  It
    stops only when mu does not supermajorize lam, and then no embedding
    exists.  So every witness it returns is valid.
    """
    if lam.base != mu.base:
        raise BaseMismatch(f"bases differ: {lam.base} vs {mu.base}")
    q = lam.base
    # mu's runs in canonical order are sorted, so they already form a heap.
    heap = []
    n_bins = 0
    for t in range(len(mu.counts) - 1, -1, -1):
        if mu.counts[t]:
            heap.append((-t, n_bins, mu.counts[t], 1))
            n_bins += mu.counts[t]
    assignment: list[int] = []
    loads = [0] * n_bins
    for s in range(len(lam.counts) - 1, -1, -1):
        left = lam.counts[s]
        while left:
            if not heap or -heap[0][0] < s:
                return None
            neg_t, first, run, pieces = heap[0]
            # A batch stops at the first bin of the next run of this level,
            # the smallest entry after the top if it has this level.  Two runs
            # from the same first bin merge over their common bins, whose
            # pieces are interchangeable.
            stop = first + run
            if len(heap) > 1 and (after := min(heap[1:3]))[0] == neg_t:
                if after[1] == first:
                    heapq.heappop(heap)
                    heapq.heappop(heap)
                    common = min(run, after[2])
                    heapq.heappush(heap, (neg_t, first, common, pieces + after[3]))
                    for rest, per_bin in ((run, pieces), after[2:]):
                        if rest > common:
                            heapq.heappush(heap, (neg_t, first + common, rest - common, per_bin))
                    continue
                stop = min(stop, after[1])
            if left < pieces:  # the level's last boxes, in part of one bin
                heapq.heapreplace(heap, (neg_t, first, 1, pieces - left))
                if run > 1:
                    heapq.heappush(heap, (neg_t, first + 1, run - 1, pieces))
                bins, pieces = 1, left
            else:
                bins = min(stop - first, left // pieces)
                if bins < run:
                    heapq.heapreplace(heap, (neg_t, first + bins, run - bins, pieces))
                else:
                    heapq.heappop(heap)
            left -= bins * pieces
            if pieces == 1:
                assignment.extend(range(first, first + bins))
            else:
                for j in range(first, first + bins):
                    assignment.extend(repeat(j, pieces))
            load = pieces * q**s
            loads[first:first + bins] = [x + load for x in loads[first:first + bins]]
            for e in range(s, -neg_t):
                heapq.heappush(heap, (-e, first, bins, pieces * (q - 1)))
    return EmbeddingWitness(tuple(assignment), tuple(loads))
