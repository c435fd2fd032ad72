import heapq
import itertools
import random
import time
import tracemalloc

import pytest

import partembed.core
from partembed.core import (
    BaseMismatch,
    PowerPartition,
    count_product,
    from_base_counts,
    from_entries,
    to_base_counts,
)
from partembed.norms import norm_profile
from partembed.orders import (
    BudgetExceeded,
    EmbeddingWitness,
    embed_powerq,
    embeds,
    supermajorizes,
)
from partembed import orders, stablep
from oracle import brute_supermajorize
from reference import first_fit
from partembed.stablep import Pair
from helpers import (
    LAM1,
    LAM2,
    LAM3,
    MU1,
    MU2,
    MU3,
    MU4,
    random_divisible_chain,
    random_embeddable_pair,
    random_partition,
    random_powerq,
)


def brute_force_embedding_exists(lam, mu):
    """Independent exhaustive check over every assignment map."""
    for assignment in itertools.product(range(len(mu)), repeat=len(lam)):
        loads = [0] * len(mu)
        for i, j in enumerate(assignment):
            loads[j] += lam[i]
        if all(loads[j] <= mu[j] for j in range(len(mu))):
            return True
    return False


class TestSupermajorizes:
    def test_counterexample_holds(self):
        assert supermajorizes(MU2, LAM1).holds

    def test_counterexample_fails_at_two(self):
        res = supermajorizes(MU1, LAM1)
        assert not res.holds and res.failing_x == 2
        assert sum(e for e in LAM1 if e >= 2) == 8
        assert sum(e for e in MU1 if e >= 2) == 4

    def test_reflexive(self):
        lam = from_entries([9, 4, 4])
        assert supermajorizes(lam, lam).holds

    def test_smallest_failing_threshold_between_values(self):
        # [10] vs bins [5,5]: the first failing integer is 6, not 10
        res = supermajorizes(from_entries([5, 5]), from_entries([10]))
        assert not res.holds and res.failing_x == 6

    def test_lam3_mu4(self):
        assert supermajorizes(MU4, LAM3).holds

    def test_lam2_mu3_fails(self):
        assert not supermajorizes(MU3, LAM2).holds

    def test_failing_x_matches_definition(self):
        # Few distinct small values, so both sides repeat values and share them.
        rng = random.Random(34)
        for _ in range(3000):
            mu = from_entries([rng.randint(1, 9) for _ in range(rng.randint(1, 8))])
            lam = from_entries([rng.randint(1, 9) for _ in range(rng.randint(1, 8))])
            top = max(mu.max_entry, lam.max_entry)
            failing = [x for x in range(1, top + 2)
                       if sum(e for e in mu if e >= x) < sum(e for e in lam if e >= x)]
            res = supermajorizes(mu, lam)
            assert res.failing_x == (failing[0] if failing else None)
            assert res.holds == (res.failing_x is None) == brute_supermajorize(mu, lam)


class TestFirstFit:
    def test_hand_traced_witness(self):
        w = first_fit(from_entries([4, 2, 2, 1]), from_entries([5, 4]))
        assert w is not None
        assert w.assignment == (0, 1, 1, 0)
        assert w.validate(from_entries([4, 2, 2, 1]), from_entries([5, 4]))

    def test_divisibility_hypothesis_is_necessary(self):
        # [3,2,2] packs into [4,3] (2+2 -> 4, 3 -> 3) but first fit puts 3
        # into the 4-bin and strands a 2
        lam, mu = from_entries([3, 2, 2]), from_entries([4, 3])
        assert first_fit(lam, mu) is None
        assert brute_force_embedding_exists(lam, mu)
        assert embeds(lam, mu) is not None

    def test_counterexample_pair(self):
        assert first_fit(LAM1, MU2) is None

    def test_bin_order_permutation(self):
        lam, mu = from_entries([4, 2, 2, 1]), from_entries([5, 4])
        w = first_fit(lam, mu, bin_order=[1, 0])
        assert w is not None and w.validate(lam, mu)


class TestEmbeds:
    def test_no_embedding_counterexamples(self):
        assert embeds(LAM1, MU2) is None
        assert embeds(LAM1, MU1) is None
        assert embeds(LAM2, MU3) is None

    def test_derived_small_case(self):
        lam, mu = from_entries([4, 2, 2]), from_entries([5, 3])
        assert not brute_force_embedding_exists(lam, mu)
        assert embeds(lam, mu) is None

    def test_identity_witness(self):
        lam = from_entries([5, 3, 2])
        w = embeds(lam, lam)
        assert w is not None and w.validate(lam, lam)

    def test_witness_always_validates(self):
        rng = random.Random(32)
        for _ in range(50):
            lam, mu = random_embeddable_pair(rng, 5, 16)
            w = embeds(lam, mu)
            assert w is not None and w.validate(lam, mu)

    def test_agrees_with_exhaustive(self):
        rng = random.Random(33)
        for _ in range(80):
            lam = random_partition(rng, 4, 10)
            mu = random_partition(rng, 4, 10)
            assert (embeds(lam, mu) is not None) == brute_force_embedding_exists(lam, mu)

    def test_budget_exceeded_is_distinct(self):
        lam, mu = from_entries([2, 2]), from_entries([2, 2])
        with pytest.raises(BudgetExceeded):
            embeds(lam, mu, node_budget=1)


# Zero-slack pairs of 20 items in 6 bins (the first seed-1 queries of the
# benchmark's binpack-hard stream), each with the node count the search needs
# to decide it without the slack-based prunes (wasted space, fewest items),
# the count with them, and the witness it returns either way.  Pins the search tree: a change to a prune's
# cost must not change which nodes are visited, or in what order.
SEARCH_TREE_PAIRS = [
    # bins with zero slack
    ([58, 56, 51, 51, 50, 48, 48, 47, 44, 44, 37, 36, 34, 33, 28, 27, 26, 24, 21, 20],
     [193, 161, 123, 117, 98, 91], 29, 25,
     (0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 1, 4, 5, 0, 2, 3, 1, 5, 4)),
    ([57, 55, 54, 48, 47, 46, 46, 44, 38, 36, 35, 35, 32, 30, 30, 30, 27, 27, 26, 22],
     [226, 167, 133, 120, 61, 58], 1349, 102,
     (0, 0, 0, 1, 2, 1, 3, 3, 1, 5, 1, 4, 2, 0, 0, 3, 2, 2, 4, 5)),
    ([59, 58, 55, 54, 54, 47, 40, 39, 38, 36, 35, 33, 33, 31, 30, 29, 28, 24, 23, 22],
     [256, 165, 137, 102, 77, 31], 729, 61,
     (0, 0, 0, 0, 1, 1, 1, 4, 4, 2, 2, 2, 2, 5, 0, 3, 3, 1, 3, 3)),
    ([60, 59, 54, 53, 48, 48, 47, 45, 44, 40, 37, 36, 35, 30, 28, 26, 25, 25, 25, 22],
     [172, 162, 149, 142, 108, 54], 3449, 1361,
     (0, 0, 2, 0, 1, 1, 3, 2, 1, 3, 4, 4, 4, 3, 5, 5, 2, 2, 3, 1)),
    # the same with mass moved between two bins
    ([58, 54, 54, 52, 51, 43, 41, 41, 41, 37, 36, 35, 33, 30, 30, 28, 27, 25, 24, 22],
     [250, 190, 183, 66, 43, 30], 3929, 30,
     (0, 0, 0, 1, 0, 4, 1, 2, 2, 1, 3, 1, 0, 3, 5, 2, 2, 1, 2, 2)),
    ([57, 56, 56, 54, 51, 48, 46, 44, 42, 39, 38, 36, 33, 33, 30, 27, 27, 26, 21, 20],
     [183, 182, 147, 122, 99, 51], 4799, 295,
     (0, 0, 1, 1, 2, 3, 4, 0, 2, 1, 3, 3, 1, 4, 5, 2, 2, 0, 5, 4)),
    ([60, 58, 57, 53, 52, 52, 48, 47, 45, 42, 39, 37, 33, 30, 30, 26, 25, 24, 24, 21],
     [186, 172, 144, 143, 121, 37], 4435, 464,
     (0, 0, 1, 2, 1, 2, 3, 0, 3, 4, 2, 5, 1, 1, 4, 3, 4, 3, 4, 0)),
    ([60, 59, 59, 54, 54, 53, 51, 51, 46, 44, 42, 41, 38, 37, 36, 33, 32, 30, 26, 20],
     [264, 232, 154, 101, 79, 36], 68, 28,
     (0, 0, 0, 0, 1, 1, 1, 2, 2, 1, 3, 4, 4, 2, 5, 3, 0, 1, 3, 2)),
]


class TestSearchTree:
    @staticmethod
    def check_nodes_to_decide(lam, mu, nodes, assignment):
        lo, hi = 0, 5000
        embeds(lam, mu, hi)
        while lo < hi:  # the smallest budget that decides the pair
            mid = (lo + hi) // 2
            try:
                embeds(lam, mu, mid)
                hi = mid
            except BudgetExceeded as exc:
                assert exc.nodes == mid + 1
                lo = mid + 1
        assert lo == nodes
        for budget in (0, nodes - 1):
            with pytest.raises(BudgetExceeded) as exc:
                embeds(lam, mu, budget)
            assert exc.value.nodes == budget + 1
        w = embeds(lam, mu, nodes)
        assert w is not None and w.assignment == assignment and w.validate(lam, mu)

    # The ids name each pair by its node count without the slack-based prunes.
    @pytest.mark.parametrize("items,bins,unpruned,nodes,assignment", SEARCH_TREE_PAIRS,
                             ids=[f"{pair[2]}-nodes" for pair in SEARCH_TREE_PAIRS])
    def test_nodes_to_decide_and_witness(self, items, bins, unpruned, nodes, assignment,
                                         monkeypatch):
        lam, mu = from_entries(items), from_entries(bins)
        self.check_nodes_to_decide(lam, mu, nodes, assignment)
        monkeypatch.setattr(orders, "WASTE_BITS", 0)  # too small: prune off
        self.check_nodes_to_decide(lam, mu, unpruned, assignment)


def reference_first_embedding(items, bins):
    """Prune-free DFS in the search order of ``embeds``: the first assignment.

    Items largest first, bins in ascending index order, an item identical to
    the previous one never moves left of it, and one bin per residual
    capacity value at each node.
    """
    items = sorted(items, reverse=True)
    caps = sorted(bins, reverse=True)
    assignment = [0] * len(items)

    def place(idx):
        if idx == len(items):
            return True
        item = items[idx]
        start = assignment[idx - 1] if idx > 0 and items[idx - 1] == item else 0
        tried = set()
        for j in range(start, len(caps)):
            if caps[j] < item or caps[j] in tried:
                continue
            tried.add(caps[j])
            caps[j] -= item
            assignment[idx] = j
            found = place(idx + 1)
            caps[j] += item
            if found:
                return True
        return False

    return tuple(assignment) if place(0) else None


def grouped_pair(rng, kind):
    """8-12 items of 10-40 grouped into 3-4 bins: kind 0 with zero slack,
    kind 1 with mass moved between two bins, kind 2 with 0-3 units of slack."""
    items = [rng.randint(10, 40) for _ in range(rng.randint(8, 12))]
    n_bins = rng.randint(3, 4)
    groups = [[] for _ in range(n_bins)]
    order = list(range(len(items)))
    rng.shuffle(order)
    for k, idx in enumerate(order):
        groups[k if k < n_bins else rng.randrange(n_bins)].append(items[idx])
    bins = [sum(g) for g in groups]
    if kind == 1:
        a, b = rng.sample(range(n_bins), 2)
        delta = rng.randint(1, 5)  # every bin holds >= 10, so stays positive
        bins[a] += delta
        bins[b] -= delta
    elif kind == 2:
        for _ in range(rng.randint(0, 3)):
            bins[rng.randrange(n_bins)] += 1
    return items, bins


class TestWastedSpacePrune:
    def test_same_first_witness_as_prune_free_search(self):
        rng = random.Random(37)
        failing = 0
        for i in range(300):
            items, bins = grouped_pair(rng, i % 3)
            expected = reference_first_embedding(items, bins)
            w = embeds(from_entries(items), from_entries(bins))
            assert (None if w is None else w.assignment) == expected, (items, bins)
            failing += expected is None
        assert failing >= 30  # the non-embeddings are exercised too

    def test_proves_binpack_hard_non_embedding_within_budget(self, monkeypatch):
        # Seed-1 binpack-hard query 135: the search without the prune does not
        # decide it in 2000 nodes; with it, 5 nodes prove it does not embed.
        lam = from_entries([58, 57, 56, 56, 55, 54, 53, 51, 50, 44,
                            44, 40, 39, 35, 29, 29, 26, 26, 22, 21])
        mu = from_entries([201, 191, 144, 132, 131, 46])
        assert embeds(lam, mu, 5) is None
        with pytest.raises(BudgetExceeded):
            embeds(lam, mu, 4)
        monkeypatch.setattr(orders, "WASTE_BITS", 0)
        with pytest.raises(BudgetExceeded):
            embeds(lam, mu, 2000)

    # Seed-1 binpack-hard queries 42 and 1177: with the wasted-space prune
    # alone, neither is decided in 2000 nodes; the fewest-items bound decides
    # both well within them.
    def test_fewest_items_finds_binpack_hard_embedding(self):
        lam = from_entries([54, 52, 50, 49, 47, 46, 45, 43, 43, 43,
                            42, 41, 40, 39, 39, 37, 30, 28, 24, 21])
        mu = from_entries([186, 168, 148, 140, 110, 61])
        w = embeds(lam, mu, 31)
        assert w.assignment == (0, 0, 0, 3, 1, 3, 3, 1, 2, 2, 4, 2, 4, 1, 1, 5, 0, 4, 5, 2)
        assert w.validate(lam, mu)
        with pytest.raises(BudgetExceeded):
            embeds(lam, mu, 30)

    def test_fewest_items_proves_binpack_hard_non_embedding(self):
        lam = from_entries([58, 57, 57, 57, 55, 55, 55, 53, 53, 52,
                            49, 43, 42, 41, 39, 39, 37, 34, 33, 31])
        mu = from_entries([302, 188, 186, 120, 103, 41])
        assert embeds(lam, mu, 1739) is None
        with pytest.raises(BudgetExceeded):
            embeds(lam, mu, 1738)

    def test_huge_entries_skip_the_bitsets(self):
        big = 10**9
        cases = [([big, 6 * 10**8, 4 * 10**8, 3], [big + 5, big + 1]),
                 ([big, big, 2], [big + 1, big + 1])]
        tracemalloc.start()
        try:
            results = [embeds(from_entries(items), from_entries(bins)) for items, bins in cases]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # one bitset of 10**9 bits alone is 125 MB
        for (items, bins), w in zip(cases, results):
            expected = reference_first_embedding(items, bins)
            assert (None if w is None else w.assignment) == expected
        assert results[0] is not None and results[1] is None

    def test_many_items_search_in_one_loop(self):
        # 1,501 items, more than Python's default recursion limit: the search
        # keeps its stack in lists, not in one frame per item.
        lam, mu = from_entries([1] * 1500 + [3]), from_entries([1503])
        start = time.monotonic()
        w = embeds(lam, mu)
        report = Pair(lam, mu).report()
        assert time.monotonic() - start < 1
        assert w.assignment == (0,) * 1501 and w.validate(lam, mu)
        assert report.embeds and report.stable.status == stablep.HOLDS


class TestWitnessValidation:
    def test_rejects_overfull(self):
        lam, mu = from_entries([3, 3]), from_entries([4, 3])
        bad = EmbeddingWitness((0, 0), (6, 0))
        assert not bad.validate(lam, mu)

    def test_rejects_wrong_loads(self):
        lam, mu = from_entries([2]), from_entries([4])
        assert not EmbeddingWitness((0,), (3,)).validate(lam, mu)

    def test_rejects_bad_index(self):
        lam, mu = from_entries([2]), from_entries([4])
        assert not EmbeddingWitness((5,), (0,)).validate(lam, mu)


def _per_box_greedy(lam, mu):
    """The power-of-q greedy one box at a time: one heap entry (-level, bin,
    pieces) per mu box, the top entry gives one piece to each lam box, and
    a split pushes one entry of q - 1 pieces per level."""
    q = lam.base

    def levels(pp):
        return [i for i in range(len(pp.counts) - 1, -1, -1) for _ in range(pp.counts[i])]

    heap = [(-t, j, 1) for j, t in enumerate(levels(mu))]
    assignment, loads = [], [0] * len(heap)
    for s in levels(lam):
        if not heap or -heap[0][0] < s:
            return None
        neg_t, origin, run = heap[0]
        if run > 1:
            heapq.heapreplace(heap, (neg_t, origin, run - 1))
        else:
            heapq.heappop(heap)
        assignment.append(origin)
        loads[origin] += q**s
        for e in range(s, -neg_t):
            heapq.heappush(heap, (-e, origin, q - 1))
    return EmbeddingWitness(tuple(assignment), tuple(loads))


class TestEmbedPowerq:
    def test_all_into_one_bin(self):
        w = embed_powerq(PowerPartition(2, (0, 4)), PowerPartition(2, (0, 0, 0, 1)))
        assert w is not None
        assert set(w.assignment) == {0}

    def test_counterexample_rejected(self):
        w = embed_powerq(to_base_counts(LAM1, 2), to_base_counts(MU1, 2))
        assert w is None

    def test_two_into_four(self):
        w = embed_powerq(PowerPartition(2, (1, 1)), PowerPartition(2, (0, 0, 1)))
        assert w is not None
        assert w.validate(from_entries([2, 1]), from_entries([4]))

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            embed_powerq(PowerPartition(2, (1,)), PowerPartition(3, (1,)))

    def test_empty_mu_gives_none(self):
        assert embed_powerq(PowerPartition(2, (0, 1)), PowerPartition(2, ())) is None
        assert embed_powerq(PowerPartition(3, ()), PowerPartition(3, ())) == EmbeddingWitness((), ())

    def test_greedy_decides_without_expanding(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("embed_powerq expanded or compared entry lists")

        monkeypatch.setattr(orders, "supermajorizes", forbidden)
        monkeypatch.setattr(partembed.core, "from_base_counts", forbidden)
        monkeypatch.setattr(EmbeddingWitness, "validate", forbidden)
        # no capacity left for the third 4, then the 8 above every capacity
        assert embed_powerq(PowerPartition(2, (0, 0, 3)), PowerPartition(2, (0, 0, 0, 1))) is None
        assert embed_powerq(PowerPartition(2, (0, 0, 0, 1)), PowerPartition(2, (0, 0, 3))) is None
        assert embed_powerq(to_base_counts(LAM1, 2), to_base_counts(MU1, 2)) is None
        # loads summed from exponents: 4+2+1+1 fill the 8, 2+1 go into the 4
        w = embed_powerq(PowerPartition(2, (3, 2, 1)), PowerPartition(2, (0, 0, 1, 1)))
        assert w == EmbeddingWitness((0, 0, 1, 0, 1, 0), (8, 3))

    def test_large_base_keeps_runs_of_pieces(self, monkeypatch):
        # Placing [1] in [q] leaves q - 1 unit pieces; they go on the heap as
        # one run, not q - 1 entries.  Boxes of one level are placed a batch
        # at a time, so multiplying every count by 1,000 adds no push.
        push, pushes = heapq.heappush, []

        def counted(heap, item):
            pushes.append(item)
            if len(pushes) > 1000:
                raise AssertionError("embed_powerq pushed one entry per piece or per box")
            push(heap, item)

        monkeypatch.setattr(heapq, "heappush", counted)
        q = 10**18 + 9
        w = embed_powerq(PowerPartition(q, (1,)), PowerPartition(q, (0, 1)))
        assert w == EmbeddingWitness((0,), (1,))
        assert pushes == [(0, 0, 1, q - 1)]
        # [q, 1, 1] into [q**2, q]: all three go into q**2.  The q leaves a
        # run of q - 1 pieces at level 1, and the two 1s take one of them
        # each, in one batch, which leaves a run of 2 * (q - 1) unit pieces.
        pushes.clear()
        w = embed_powerq(PowerPartition(q, (2, 1)), PowerPartition(q, (0, 1, 1)))
        assert w == EmbeddingWitness((0, 0, 0), (q + 2, 0))
        assert pushes == [(-1, 0, 1, q - 1), (0, 0, 1, 2 * (q - 1))]
        # The same pairs with 1,000 and 1,000,000 times the boxes: the q
        # boxes go one to a bin of q**2, and all the 1s into the first bin.
        # At 1,000 times, the 1s fill part of one bin's run, which costs one
        # push more than at 1 time; 1,000 times more boxes again cost none.
        for lam, mu in (((1,), (0, 1)), ((2, 1), (0, 1, 1))):
            counts = []
            for scale in (1000, 10**6):
                pushes.clear()
                w = embed_powerq(PowerPartition(q, tuple(scale * c for c in lam)),
                                 PowerPartition(q, tuple(scale * c for c in mu)))
                counts.append(len(pushes))
                if lam == (1,):
                    assert w.assignment == tuple(range(scale)) and w.loads == (1,) * scale
                else:
                    assert w.assignment == (*range(scale), *(0,) * (2 * scale))
                    assert w.loads == (q + 2 * scale, *(q,) * (scale - 1), *(0,) * scale)
            assert counts[0] == counts[1] <= 3

    def test_batches_match_the_per_box_greedy(self):
        # Random pairs, every third multiplied by a random catalyst-like
        # vector, and the products of the catalysts the construction finds:
        # the greedy a run at a time gives the witness of one box at a time.
        rng = random.Random(26)
        held = catalysts = 0
        for k in range(6000):
            q = (2, 3, 5, 10**18 + 9)[k % 4]
            lam = random_powerq(rng, q, levels=7, max_count=8)
            mu = random_powerq(rng, q, levels=8, max_count=8)
            if k % 3 == 0:
                nu = random_powerq(rng, q, levels=5, max_count=6)
                lam, mu = count_product(lam, nu), count_product(mu, nu)
            elif q < 4 and stablep.Pair(lam, mu).refutation is None:
                verdict = stablep.construct_nu(lam, mu)
                if verdict.status == stablep.HOLDS and len(verdict.witness.nu) > 1:
                    nu = to_base_counts(verdict.witness.nu, q)
                    lam, mu = count_product(lam, nu), count_product(mu, nu)
                    catalysts += 1
            w = embed_powerq(lam, mu)
            assert w == _per_box_greedy(lam, mu), (lam, mu)
            held += w is not None
        assert held > 1500 and catalysts > 100

    def test_equivalence_with_supermajorization(self):
        rng = random.Random(34)
        for _ in range(120):
            base = rng.choice([2, 3])
            u = random_powerq(rng, base=base, levels=4, max_count=5)
            v = random_powerq(rng, base=base, levels=4, max_count=5)
            lam, mu = from_base_counts(u), from_base_counts(v)
            sup = supermajorizes(mu, lam).holds
            w = embed_powerq(u, v)
            assert (w is not None) == sup
            if w is not None:
                assert w.validate(lam, mu)
            # the generic exact search agrees
            assert (embeds(lam, mu) is not None) == sup


class TestFirstFitCompleteness:
    def test_on_divisible_chains(self):
        rng = random.Random(35)
        for _ in range(60):
            lam = random_divisible_chain(rng, 5, 32)
            mu = random_partition(rng, 5, 32)
            assert (first_fit(lam, mu) is not None) == (embeds(lam, mu) is not None)


class TestRelations:
    def test_lam1_mu1(self):
        rep = Pair(LAM1, MU1).report()
        assert rep.embeds is False
        assert not rep.supermajorized
        assert rep.stable.status == stablep.HOLDS
        assert list(rep.stable.witness.nu.entries) == [2, 1, 1]
        assert rep.bulk.holds

    def test_lam2_mu3(self):
        rep = Pair(LAM2, MU3).report()
        assert rep.embeds is False
        assert not rep.supermajorized
        assert rep.stable.status == stablep.FAILS
        assert rep.stable.reason.rule == stablep.NORM_EQUALITY
        assert rep.bulk.holds

    def test_lam3_mu4(self):
        rep = Pair(LAM3, MU4).report()
        assert rep.embeds is False
        assert rep.supermajorized
        assert rep.stable.status == stablep.FAILS
        assert rep.stable.reason.rule == stablep.TIGHT_VALUATION
        assert rep.bulk.holds

    def test_implications_on_random_pairs(self):
        rng = random.Random(36)
        for _ in range(60):
            lam = random_partition(rng, 4, 12)
            mu = random_partition(rng, 4, 12)
            rep = Pair(lam, mu).report()
            if rep.embeds:
                assert rep.supermajorized
                assert rep.stable.status != stablep.FAILS
            if rep.supermajorized:
                assert rep.bulk.holds
            if rep.stable.status == stablep.HOLDS:
                assert rep.bulk.holds

    def test_strict_norm_growth_for_embeddable_pairs(self):
        rng = random.Random(37)
        checked = 0
        while checked < 25:
            lam, mu = random_embeddable_pair(rng, 4, 12)
            if lam == mu:
                continue
            assert embeds(lam, mu) is not None
            prof = norm_profile(lam, mu)
            assert prof.f_exact(2) > 0 and prof.f_exact(3) > 0
            assert prof.f_mpf(1.5) > 0
            checked += 1
