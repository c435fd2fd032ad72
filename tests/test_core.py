import random

import pytest

from partembed.core import (
    EmptyPartition,
    InvalidBase,
    InvalidEntry,
    InvalidExponent,
    InvalidScalar,
    NotPowerOfBase,
    Partition,
    PowerPartition,
    BaseMismatch,
    add,
    common_power_base,
    count_product,
    from_base_counts,
    from_entries,
    integer_root,
    product,
    power,
    scale,
    to_base_counts,
)
from helpers import LAM1, MU1, random_partition, random_powerq


class TestFromEntries:
    def test_sorts_nonincreasing(self):
        assert from_entries([1, 3, 2]).entries == (3, 2, 1)

    def test_counterexample_shape(self):
        assert from_entries([2, 2, 2, 2]).entries == (2, 2, 2, 2)

    def test_zero_entry_rejected(self):
        with pytest.raises(InvalidEntry):
            from_entries([0, 3])

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidEntry):
            from_entries([3, -1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyPartition):
            from_entries([])

    def test_constructor_requires_canonical_order(self):
        with pytest.raises(InvalidEntry):
            Partition((1, 2))

    def test_equality_is_multiset_equality(self):
        assert from_entries([1, 2, 2]) == from_entries([2, 1, 2])


class TestAlgebra:
    def test_add_juxtaposes(self):
        assert add(from_entries([3, 1]), from_entries([2])).entries == (3, 2, 1)

    def test_add_duplicates(self):
        assert add(from_entries([2, 2]), from_entries([2, 2])).entries == (2, 2, 2, 2)

    def test_add_doubling(self):
        assert add(from_entries([5, 3]), from_entries([5, 3])).entries == (5, 5, 3, 3)

    def test_product_counterexample_lam1(self):
        # [2,2,2,2] x [2,1,1] = four 4s and eight 2s
        got = product(LAM1, from_entries([2, 1, 1]))
        assert got == from_entries([4] * 4 + [2] * 8)

    def test_product_counterexample_mu1(self):
        got = product(MU1, from_entries([2, 1, 1]))
        assert got == from_entries([8, 4, 4] + [2] * 8 + [1] * 16)

    def test_product_identity(self):
        lam = from_entries([7, 3, 2])
        assert product(lam, from_entries([1])) == lam

    def test_product_matches_nested_loop(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_partition(rng, 4, 12)
            b = random_partition(rng, 4, 12)
            expected = sorted((x * y for x in a.entries for y in b.entries), reverse=True)
            assert list(product(a, b).entries) == expected

    def test_product_commutative_associative(self):
        rng = random.Random(12)
        for _ in range(15):
            a, b, c = (random_partition(rng, 3, 9) for _ in range(3))
            assert product(a, b) == product(b, a)
            assert product(product(a, b), c) == product(a, product(b, c))

    def test_product_norm_multiplicativity(self):
        rng = random.Random(13)
        for _ in range(20):
            a = random_partition(rng, 5, 20)
            b = random_partition(rng, 5, 20)
            ab = product(a, b)
            assert ab.total == a.total * b.total
            assert ab.max_entry == a.max_entry * b.max_entry
            assert len(ab) == len(a) * len(b)

    def test_power_single(self):
        assert power(from_entries([2]), 3).entries == (8,)

    def test_power_pairwise_by_hand(self):
        # [2,1]^2: products 2*2, 2*1, 1*2, 1*1
        assert power(from_entries([2, 1]), 2).entries == (4, 2, 2, 1)

    def test_power_identity(self):
        lam = from_entries([6, 5])
        assert power(lam, 1) == lam

    def test_power_zero_rejected(self):
        with pytest.raises(InvalidExponent):
            power(LAM1, 0)

    def test_scale(self):
        assert scale(from_entries([3, 1]), 2).entries == (6, 2)
        assert scale(from_entries([2, 2]), 4).entries == (8, 8)

    def test_scale_identity(self):
        lam = from_entries([9, 4])
        assert scale(lam, 1) == lam

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(InvalidScalar):
            scale(LAM1, 0)


class TestBaseCounts:
    def test_mu1_counts(self):
        assert to_base_counts(MU1, 2).counts == (8, 0, 1)

    def test_lam1_counts(self):
        assert to_base_counts(LAM1, 2).counts == (0, 4)

    def test_not_power_of_base(self):
        with pytest.raises(NotPowerOfBase) as e:
            to_base_counts(from_entries([5, 3]), 2)
        assert e.value.entry in (5, 3)

    def test_not_power_of_base_names_the_largest_such_entry(self):
        with pytest.raises(NotPowerOfBase) as e:
            to_base_counts(from_entries([8, 6, 3]), 2)
        assert e.value.entry == 6

    def test_bad_base(self):
        with pytest.raises(InvalidBase):
            to_base_counts(LAM1, 1)

    def test_expand_examples(self):
        assert from_base_counts(PowerPartition(2, (0, 4))) == LAM1
        assert from_base_counts(PowerPartition(2, (1, 1))).entries == (2, 1)
        assert from_base_counts(PowerPartition(3, (0, 0, 1))).entries == (9,)

    def test_expand_empty_rejected(self):
        with pytest.raises(EmptyPartition):
            from_base_counts(PowerPartition(2, ()))

    def test_trailing_zero_rejected(self):
        with pytest.raises(InvalidEntry):
            PowerPartition(2, (1, 0))

    def test_round_trips(self):
        rng = random.Random(5)
        for _ in range(30):
            base = rng.choice([2, 3, 5])
            pp = random_powerq(rng, base=base)
            part = from_base_counts(pp)
            assert to_base_counts(part, base) == pp
            assert from_base_counts(to_base_counts(part, base)) == part

    def test_product_counts_are_convolution(self):
        rng = random.Random(6)
        for _ in range(20):
            base = rng.choice([2, 3])
            u = random_powerq(rng, base=base, levels=4, max_count=4)
            v = random_powerq(rng, base=base, levels=4, max_count=4)
            prod = product(from_base_counts(u), from_base_counts(v))
            got = to_base_counts(prod, base).counts
            conv = [0] * (len(u.counts) + len(v.counts) - 1)
            for i, a in enumerate(u.counts):
                for j, b in enumerate(v.counts):
                    conv[i + j] += a * b
            assert list(got) == conv

    def test_count_product_matches_entry_product(self):
        rng = random.Random(14)
        for base in (2, 3, 5):
            # Single-level vectors, then random ones, some with zero levels.
            vectors = [PowerPartition(base, (0,) * k + (c,)) for k in range(3) for c in (1, 3)]
            vectors += [random_powerq(rng, base=base, levels=5, max_count=3) for _ in range(12)]
            assert any(0 in pp.counts for pp in vectors)
            for a in vectors:
                for b in vectors:
                    want = to_base_counts(product(from_base_counts(a), from_base_counts(b)), base)
                    assert count_product(a, b) == want

    def test_count_product_edge_cases(self):
        empty = PowerPartition(2, ())
        assert count_product(empty, PowerPartition(2, (1, 2))) == empty
        assert count_product(PowerPartition(2, (1, 2)), empty) == empty
        with pytest.raises(BaseMismatch):
            count_product(PowerPartition(2, (1,)), PowerPartition(3, (1,)))


class TestCommonBase:
    # Each test also takes count vectors, alone or against entry lists: a
    # count vector stands for its boxes by its base.
    def test_powers_of_two(self):
        assert common_power_base(from_entries([4, 2]), from_entries([8])) == 2
        # level 1 empty, base 8, and unit boxes only, against entry lists
        assert common_power_base(PowerPartition(4, (0, 0, 1)), from_entries([2])) == 2
        assert common_power_base(from_entries([4, 2]), PowerPartition(8, (1, 1))) == 2
        assert common_power_base(PowerPartition(6, (3,)), from_entries([4, 2, 1])) == 2

    def test_powers_of_three(self):
        assert common_power_base(from_entries([9, 3]), from_entries([27])) == 3
        assert common_power_base(PowerPartition(9, (1, 2)), from_entries([27, 3])) == 3
        assert common_power_base(PowerPartition(9, (0, 1)), PowerPartition(27, (0, 0, 1))) == 3

    def test_smallest_base_wins(self):
        assert common_power_base(from_entries([4, 16]), from_entries([64])) == 2
        assert common_power_base(PowerPartition(4, (0, 1)), PowerPartition(8, (0, 1))) == 2
        assert common_power_base(PowerPartition(16, (2, 0, 1)), from_entries([64])) == 2

    def test_no_common_base(self):
        assert common_power_base(from_entries([5]), from_entries([3])) is None
        assert common_power_base(PowerPartition(2, (1, 1)), from_entries([3])) is None
        assert common_power_base(PowerPartition(3, (0, 2)), PowerPartition(2, (2, 0, 1))) is None

    def test_all_ones(self):
        assert common_power_base(from_entries([1, 1]), from_entries([1])) == 2
        assert common_power_base(PowerPartition(6, (3,)), from_entries([1])) == 2
        assert common_power_base(PowerPartition(3, (5,)), PowerPartition(7, (6,))) == 2
        # An empty count vector has no boxes to stand for.
        with pytest.raises(EmptyPartition):
            common_power_base(PowerPartition(2, ()), from_entries([1]))

    def test_prime_base_from_entry(self):
        assert common_power_base(from_entries([5]), from_entries([25])) == 5
        assert common_power_base(from_entries([5]), PowerPartition(25, (0, 1))) == 5
        assert common_power_base(PowerPartition(6, (1,)), PowerPartition(5, (0, 3))) == 5

    def test_mixed_not_powers(self):
        assert common_power_base(from_entries([6, 4]), from_entries([2])) is None
        assert common_power_base(PowerPartition(4, (0, 1)), from_entries([6, 2])) is None
        assert common_power_base(PowerPartition(8, (0, 1)), from_entries([9, 1])) is None

    def test_matches_an_upward_scan(self):
        # The reference scans q = 2, 3, ... up to the smallest entry above 1,
        # which bounds every base; the sets mix powers of bases that are
        # themselves powers (4, 8, 9, 16, 27).  A side that is all powers of
        # q is passed as its count vector in base q half the time.
        def is_power(v, q):
            p = 1
            while p < v:
                p *= q
            return p == v

        def scan(values):
            values = set(values) - {1}
            if not values:
                return 2
            for q in range(2, min(values) + 1):
                if all(is_power(v, q) for v in values):
                    return q
            return None

        def form(side, q):
            if rng.random() < 0.5 and all(is_power(v, q) for v in side):
                return to_base_counts(from_entries(side), q)
            return from_entries(side)

        rng = random.Random(11)
        counted = 0
        for _ in range(1500):
            q = rng.choice([2, 3, 4, 5, 6, 8, 9, 16, 27])
            sides = [[q ** rng.randint(0, 4) if rng.random() < 0.9 else rng.randint(1, 300)
                      for _ in range(rng.randint(1, 4))] for _ in range(2)]
            a, b = (form(side, q) for side in sides)
            counted += isinstance(a, PowerPartition) + isinstance(b, PowerPartition)
            assert common_power_base(a, b) == scan(sides[0] + sides[1]), sides
        assert counted > 1000

    def test_huge_power_of_three(self):
        # One candidate root per prime degree: 3**6309 (about 10,000 bits)
        # reduces to 3 in milliseconds.
        m = 3**6309
        assert common_power_base(from_entries([m]), from_entries([m, 1])) == 3


class TestSmallHelpers:
    def test_integer_root(self):
        assert integer_root(64, 3) == 4
        assert integer_root(63, 3) == 3
        assert integer_root(1, 9) == 1
        for n in range(0, 200):
            r = integer_root(n, 2)
            assert r * r <= n < (r + 1) * (r + 1)

    def test_integer_root_sweep_beyond_float_range(self):
        # Entries above about 1.8e308 cannot be converted to float.
        rng = random.Random(14)
        for bits in [*range(1, 70), *range(70, 5001, 101)]:
            n = rng.getrandbits(bits) | 1 << (bits - 1)
            for k in {1, 2, 3, 7, bits, bits + 1, rng.randint(1, bits + 1)}:
                r = integer_root(n, k)
                assert r**k <= n < (r + 1) ** k
                assert integer_root(r**k, k) == r
                assert integer_root(r**k - 1, k) == r - 1
