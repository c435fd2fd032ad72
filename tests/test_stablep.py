import math
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

import partembed.core
import partembed.norms
import partembed.orders
from partembed import cli
from partembed.core import (
    BaseMismatch,
    ContractViolation,
    EmptyPartition,
    PowerPartition,
    count_product,
    from_base_counts,
    from_entries,
    product,
    to_base_counts,
)
from partembed.norms import BulkVerdict, exact_dominates_powerq
from partembed.stablep import (
    BULK_FAILS,
    MAX_PRODUCT_BOXES,
    FAILS,
    HOLDS,
    NORM_EQUALITY,
    TIGHT_VALUATION,
    UNKNOWN,
    Pair,
    StableRefutation,
    construct_nu,
    normalize_pair,
    _valuation,
    _valuation_gap,
)
from partembed.oracle import nu_order_compare
from helpers import LAM1, LAM2, LAM3, MU1, MU3, MU4, count_pairs, random_powerq


class TestNormalizePair:
    def test_levelwise_cancellation(self):
        lt, mt = normalize_pair(PowerPartition(2, (0, 1, 1)), PowerPartition(2, (1, 0, 1)))
        assert lt.counts == (0, 1) and mt.counts == (1,)

    def test_full_cancellation(self):
        pp = PowerPartition(2, (2, 1))
        lt, mt = normalize_pair(pp, pp)
        assert lt.is_empty and mt.is_empty

    def test_disjoint_pair_unchanged(self):
        lam = to_base_counts(LAM1, 2)
        mu = to_base_counts(MU1, 2)
        assert normalize_pair(lam, mu) == (lam, mu)

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            normalize_pair(PowerPartition(2, (1,)), PowerPartition(3, (1,)))

    def test_sign_split_matches_min_cancellation(self):
        for lam, mu in count_pairs(2000, seed=32):
            a, b = list(lam.counts), list(mu.counts)
            for i in range(min(len(a), len(b))):
                d = min(a[i], b[i])
                a[i] -= d
                b[i] -= d
            while a and a[-1] == 0:
                a.pop()
            while b and b[-1] == 0:
                b.pop()
            expected = PowerPartition(lam.base, tuple(a)), PowerPartition(lam.base, tuple(b))
            assert normalize_pair(lam, mu) == expected, (lam, mu)


class TestPrefilter:
    def test_norm_equality_refutation(self):
        ref = Pair(LAM2, MU3).refutation
        assert ref is not None and ref.rule == NORM_EQUALITY
        assert ref.equality.exact
        a, b = ref.equality.x_interval
        assert a == b or ((a - 1) ** 2 < 5 and 5 < (b - 1) ** 2)
        assert ref.verify(LAM2, MU3)

    def test_tight_valuation_refutation(self):
        ref = Pair(LAM3, MU4).refutation
        assert ref is not None and ref.rule == TIGHT_VALUATION
        assert ref.prime == 2
        assert ref.lam_valuation == 1 and ref.mu_valuation == 0
        assert ref.verify(LAM3, MU4)

    def test_tight_valuation_on_the_normalized_pair(self):
        lam = from_base_counts(PowerPartition(2, (1, 5, 1)))
        mu = from_base_counts(PowerPartition(2, (5, 1, 2)))
        ref = Pair(lam, mu).refutation
        assert ref is not None and ref.rule == TIGHT_VALUATION and ref.base == 2
        assert (ref.prime, ref.lam_valuation, ref.mu_valuation) == (2, 1, 0)
        assert ref.verify(lam, mu)
        # Read on the given pair, whose gcds are both 1, the same numbers fail.
        assert not replace(ref, base=None).verify(lam, mu)
        assert not ref.verify(mu, lam)

    def test_tight_valuation_on_the_given_pair_records_no_base(self):
        assert Pair(LAM3, MU4).refutation.base is None

    def test_valuation_certificate_needs_a_prime(self):
        ref = Pair(LAM3, MU4).refutation
        assert not replace(ref, prime=1).verify(LAM3, MU4)
        assert not replace(ref, prime=0).verify(LAM3, MU4)

    def test_embeddable_pair_passes(self):
        assert Pair(from_entries([2, 2]), from_entries([4])).refutation is None

    def test_bulk_failure_refutation(self):
        ref = Pair(from_entries([2]), from_entries([1, 1, 1])).refutation
        assert ref is not None and ref.rule == BULK_FAILS
        assert ref.verify(from_entries([2]), from_entries([1, 1, 1]))

    def test_bulk_failure_is_checked_at_its_own_exponent(self):
        # [3,3] vs [4,1,1] fails just above s = 1, but f(3) = 64 + 2 - 54 = 12.
        lam, mu = from_entries([3, 3]), from_entries([4, 1, 1])
        assert Pair(lam, mu).refutation.verify(lam, mu)
        at_three = StableRefutation(BULK_FAILS, bulk=BulkVerdict(False, failure_exponent=3.0))
        assert not at_three.verify(lam, mu)

    def test_bulk_failure_below_the_base_is_rejected(self):
        # [1,1] / [2] is stable, but its P(x) = x - 2 is negative below
        # x = q**1 = 2, where the orders say nothing.
        lam, mu = from_entries([1, 1]), from_entries([2])
        assert Pair(lam, mu).stable.status == HOLDS
        for x in (Fraction(1), Fraction(3, 2)):
            forged = StableRefutation(BULK_FAILS, bulk=BulkVerdict(
                False, failure_exponent=0.0, failure_x=x), base=2)
            assert not forged.verify(lam, mu), x
        lam, mu = from_entries([4]), from_entries([2, 2])
        ref = Pair(lam, mu).refutation
        assert ref.rule == BULK_FAILS and ref.bulk.failure_x > 2
        assert ref.verify(lam, mu)

    def test_bulk_failure_needs_an_exponent(self):
        lam, mu = from_entries([3, 3]), from_entries([4, 1, 1])
        assert not StableRefutation(BULK_FAILS, bulk=BulkVerdict(False)).verify(lam, mu)

    @pytest.mark.parametrize("lam, mu, wrong", [
        # s = 2**66 is an integer, but v**s is far past the exact bits.
        ([10**20 + 1], [10**20] * 2, 2.0**60),
        # Tight at s = 1 and failing only before s = 1.001.
        ([2] * 19, [10, 3] + [1] * 25, 1.5),
    ])
    def test_bulk_failure_in_interval_arithmetic(self, lam, mu, wrong):
        lam, mu = from_entries(lam), from_entries(mu)
        ref = Pair(lam, mu).refutation
        assert ref.rule == BULK_FAILS and ref.verify(lam, mu)
        assert not replace(ref, bulk=replace(ref.bulk, failure_exponent=wrong)).verify(lam, mu)

    def test_top_index_certificate_verifies(self):
        # [8,2] vs [4,4,1,1]: after normalization lam keeps level 3, mu tops at
        # 2, and the dominance rule refutes the pair (the top surviving
        # profile coefficient is negative).
        lam, mu = from_entries([8, 2]), from_entries([4, 4, 1, 1])
        ref = Pair(lam, mu).refutation
        assert ref is not None and ref.rule == BULK_FAILS
        assert ref.verify(lam, mu)

    def test_top_index_gap_implies_bulk_fails(self):
        # When normalized lam tops mu, P's leading coefficient is negative, so
        # the exact bulk decision fails and the dominance rule refutes.
        rng = random.Random(44)
        gaps = 0
        for _ in range(400):
            base = rng.choice([2, 3])
            u = random_powerq(rng, base=base, levels=4, max_count=3)
            v = random_powerq(rng, base=base, levels=4, max_count=3)
            lt, mt = normalize_pair(u, v)
            if lt.is_empty or len(mt.counts) >= len(lt.counts):
                continue
            gaps += 1
            lam, mu = from_base_counts(u), from_base_counts(v)
            assert not exact_dominates_powerq(u, v).holds, (u, v)
            assert Pair(lam, mu).refutation.rule == BULK_FAILS, (u, v)
        assert gaps > 100

    def test_norm_equality_point_interval_verifies(self):
        # P = (x-4)**2: the touch root 4 is a bisection midpoint, so the
        # certificate's isolating interval is the point 4.
        lam, mu = from_entries([2] * 8), from_entries([4] + [1] * 16)
        ref = Pair(lam, mu).refutation
        assert ref.rule == NORM_EQUALITY
        assert ref.equality.x_interval == (Fraction(4), Fraction(4))
        assert ref.verify(lam, mu)
        at_five = replace(ref.equality, x_interval=(Fraction(5), Fraction(5)))
        assert not replace(ref, equality=at_five).verify(lam, mu)

    def test_tight_valuation_on_a_large_prime_gcd(self):
        P = 2**61 - 1
        lam, mu = from_entries([P, P]), from_entries([2 * P - 1, 1])
        start = time.monotonic()
        verdict = Pair(lam, mu).stable
        assert time.monotonic() - start < 1
        ref = verdict.reason
        assert verdict.status == FAILS and ref.rule == TIGHT_VALUATION
        assert (ref.prime, ref.lam_valuation, ref.mu_valuation) == (P, 1, 0)
        assert ref.verify(lam, mu)

    def test_tight_valuation_on_a_composite_gap(self):
        # d = g_lam / gcd(g_lam, g_mu) has no prime factor below 2**20, so the
        # certificate names d itself, which still separates the valuations.
        d = (2**31 - 1) * (2**61 - 1)
        g = 6 * d
        lam, mu = from_entries([g, g]), from_entries([2 * g - 6, 6])
        ref = Pair(lam, mu).refutation
        assert ref.rule == TIGHT_VALUATION
        assert (ref.prime, ref.lam_valuation, ref.mu_valuation) == (d, 1, 0)
        assert ref.verify(lam, mu)

    def test_tight_valuation_names_the_smallest_prime_of_the_gap(self):
        # Against a reference written here: the smallest prime r of g_lam
        # with v_r(g_lam) > v_r(g_mu), or no certificate.
        def reference(g_lam, g_mu):
            n, r = g_lam, 2
            while n > 1:
                if n % r == 0:
                    if _valuation(g_lam, r) > _valuation(g_mu, r):
                        return r
                    while n % r == 0:
                        n //= r
                r += 1
            return None

        rng = random.Random(45)
        fired = 0
        for _ in range(2000):
            g_lam, g_mu = (math.prod(rng.choice([1, 2, 3, 5, 7, 11, 13, 1009])
                                     for _ in range(rng.randint(0, 4))) for _ in "lm")
            ref = _valuation_gap(g_lam, g_mu)
            r = reference(g_lam, g_mu)
            assert (ref and ref.prime) == r, (g_lam, g_mu)
            if ref is not None:
                fired += 1
                assert (ref.lam_valuation, ref.mu_valuation) == (
                    _valuation(g_lam, r), _valuation(g_mu, r))
        assert 500 < fired < 1900

    @pytest.mark.parametrize("rule, lam, mu, wrong_lam, wrong_mu", [
        (TIGHT_VALUATION, LAM3, MU4, [2, 2], [4]),
        # base-2 certificates against pairs that are not power-of-2 pairs
        (NORM_EQUALITY, LAM2, MU3, [3, 3], [5, 1]),
        (BULK_FAILS, from_entries([4]), from_entries([2, 2]), [5], [3, 3]),
    ], ids=[TIGHT_VALUATION, NORM_EQUALITY, BULK_FAILS])
    def test_certificates_reject_wrong_pairs(self, rule, lam, mu, wrong_lam, wrong_mu):
        ref = Pair(lam, mu).refutation
        assert ref.rule == rule and ref.verify(lam, mu)
        assert not ref.verify(from_entries(wrong_lam), from_entries(wrong_mu))


class TestConstructNu:
    def test_counterexample_catalyst(self):
        start = time.monotonic()
        verdict = construct_nu(to_base_counts(LAM1, 2), to_base_counts(MU1, 2))
        elapsed = time.monotonic() - start
        assert verdict.status == HOLDS
        nu = verdict.witness.nu
        assert list(nu.entries) == [2, 1, 1]
        assert verdict.witness.embedding.validate(product(LAM1, nu), product(MU1, nu))
        assert elapsed < 0.01

    def test_counterexample_trace(self):
        verdict = construct_nu(to_base_counts(LAM1, 2), to_base_counts(MU1, 2))
        first_pass = [r for r in verdict.witness.construction_log if r.pass_index == 1]
        # top level: four size-2 boxes against room for two inside the 4-box
        assert first_pass[0].demand == 4 and first_pass[0].room == 2
        assert first_pass[0].coefficient == 2
        # next level: the eight size-1 boxes exactly fill the eight 1-bins
        assert first_pass[1].demand == 8
        assert first_pass[1].coefficient == 0

    def test_direct_fit_gives_trivial_catalyst(self):
        verdict = construct_nu(PowerPartition(2, (0, 2)), PowerPartition(2, (0, 0, 1)))
        assert verdict.status == HOLDS
        assert list(verdict.witness.nu.entries) == [1]

    def test_empty_sides(self):
        verdict = construct_nu(PowerPartition(2, ()), PowerPartition(2, ()))
        assert verdict.status == HOLDS
        assert list(verdict.witness.nu.entries) == [1]

    def test_cancels_common_boxes(self):
        # The iteration runs on the normalized pair; the witness is the given pair's.
        lam, mu = PowerPartition(2, (1, 1)), PowerPartition(2, (1, 0, 1))
        verdict = construct_nu(lam, mu)
        normalized = construct_nu(*normalize_pair(lam, mu))
        assert verdict.status == normalized.status == HOLDS
        assert verdict.witness.nu == normalized.witness.nu
        assert verdict.witness.construction_log == normalized.witness.construction_log
        assert verdict.budget_spent == normalized.budget_spent
        nu = verdict.witness.nu
        assert verdict.witness.embedding.validate(product(from_base_counts(lam), nu),
                                                  product(from_base_counts(mu), nu))

    def test_lam_inside_mu_gives_trivial_catalyst(self):
        lam, mu = PowerPartition(2, (1, 1)), PowerPartition(2, (1, 1, 1))
        verdict = construct_nu(lam, mu)
        assert verdict.status == HOLDS
        assert list(verdict.witness.nu.entries) == [1]
        assert verdict.witness.embedding.validate(from_base_counts(lam), from_base_counts(mu))

    def test_rejects_top_gap(self):
        with pytest.raises(ContractViolation):
            construct_nu(PowerPartition(2, (0, 0, 1)), PowerPartition(2, (4,)))

    def test_rejects_empty_target(self):
        with pytest.raises(ContractViolation):
            construct_nu(PowerPartition(2, (0, 1)), PowerPartition(2, ()))

    def test_unknown_on_unstable_pair(self):
        # lam2/mu3 would be refuted by the equality prefilter; feeding the
        # normalized pair directly makes the iteration run forever, so the
        # budget must surface as UNKNOWN, never as a fake catalyst.
        lt, mt = normalize_pair(to_base_counts(LAM2, 2), to_base_counts(MU3, 2))
        verdict = construct_nu(lt, mt, max_steps=200)
        assert verdict.status == UNKNOWN
        assert verdict.budget_spent >= 200

    def test_unknown_on_a_stable_pair(self):
        # The iteration does not halt on every stable pair: this one passes
        # every refutation rule and nu = [7,10,0,0,9] is a catalyst, yet the
        # first pass runs out of the default budget, 64 * (4 + 5 + 2) steps
        # on the normalized pair [0,0,4,0,4] / [4,3,0,1,0,2].
        lam, mu = PowerPartition(2, (0, 1, 4, 2, 4)), PowerPartition(2, (4, 4, 0, 3, 0, 2))
        assert Pair(from_base_counts(lam), from_base_counts(mu)).refutation is None
        verdict = construct_nu(lam, mu)
        assert (verdict.status, verdict.budget_spent, verdict.detail) == (
            UNKNOWN, 704, "iteration budget exhausted in the first pass")
        nu = PowerPartition(2, (7, 10, 0, 0, 9))
        lam_nu, mu_nu = count_product(lam, nu), count_product(mu, nu)
        witness = partembed.orders.embed_powerq(lam_nu, mu_nu)
        assert witness.validate(from_base_counts(lam_nu), from_base_counts(mu_nu))

    @pytest.mark.parametrize("lam, mu", [
        # The two known-defect pairs, whose products would hold 9.7e15 and
        # 1.4e8 boxes, and two pairs whose products would hold more than
        # 2**63 boxes at one level.
        ((0, 0, 4), (7, 1, 0, 1)),
        ((1, 4, 5, 0, 1, 0, 5, 4, 4, 3, 1, 0, 0, 5, 6), (4, 0, 5, 3, 6, 4, 3, 5, 5, 4, 6, 5, 6, 1, 0, 3)),
        ((2, 1, 1, 5, 3, 6), (5, 6, 3, 5, 2, 2, 2)),
        ((6, 0, 3, 1, 6), (6, 5, 3, 2, 1, 2)),
    ])
    def test_products_past_the_box_cap_are_unknown(self, lam, mu):
        start = time.monotonic()
        verdict = Pair(PowerPartition(2, lam), PowerPartition(2, mu)).stable
        assert time.monotonic() - start < 1
        assert verdict.status == UNKNOWN and verdict.witness is None
        assert verdict.detail.endswith(f"boxes, more than the limit of {MAX_PRODUCT_BOXES}")
        assert MAX_PRODUCT_BOXES == cli.MAX_COUNT_BOXES

    def test_box_cap_counts_the_larger_product(self, monkeypatch):
        # nu = [2,1,1]: lam x nu holds 4 * 3 boxes and mu x nu 9 * 3.
        lam, mu = to_base_counts(LAM1, 2), to_base_counts(MU1, 2)
        monkeypatch.setattr(partembed.stablep, "MAX_PRODUCT_BOXES", 27)
        holds = construct_nu(lam, mu)
        assert holds.status == HOLDS
        monkeypatch.setattr(partembed.stablep, "MAX_PRODUCT_BOXES", 26)
        verdict = construct_nu(lam, mu)
        assert (verdict.status, verdict.budget_spent, verdict.detail) == (
            UNKNOWN, holds.budget_spent,
            "the catalyst products would hold 27 boxes, more than the limit of 26")

    def test_validates_on_random_stable_pairs(self):
        rng = random.Random(41)
        holds = 0
        for _ in range(150):
            base = rng.choice([2, 3])
            u = random_powerq(rng, base=base, levels=3, max_count=3)
            v = random_powerq(rng, base=base, levels=4, max_count=4)
            lam, mu = from_base_counts(u), from_base_counts(v)
            if Pair(lam, mu).refutation is not None:
                continue
            lt, mt = normalize_pair(u, v)
            if lt.is_empty:
                continue
            verdict = construct_nu(lt, mt, max_steps=400)
            if verdict.status == HOLDS:
                holds += 1
                nu = verdict.witness.nu
                lam_n, mu_n = from_base_counts(lt), from_base_counts(mt)
                assert verdict.witness.embedding.validate(product(lam_n, nu), product(mu_n, nu))
        assert holds >= 20

    def test_scaled_pass_may_stop_earlier(self):
        # Base 2, counts (0,0,0,0,7) against (0,4,4,1,0,3), already normalized.
        # The first pass ends at [1,1,2,3,4,5,4]; the pass scaled by 3**7 ends
        # at [2187,729,972], and the catalyst comes from it.
        lam = from_entries([16] * 7)
        mu = from_entries([32] * 3 + [8] + [4] * 4 + [2] * 4)
        verdict = Pair(lam, mu).stable
        assert verdict.status == HOLDS
        nu = verdict.witness.nu
        assert len(nu) == 3888
        assert to_base_counts(nu, 2).counts == (972, 729, 2187)
        assert verdict.witness.embedding.validate(product(lam, nu), product(mu, nu))


class TestNuOrder:
    def test_scale_invariance_of_counts(self):
        assert nu_order_compare(PowerPartition(2, (1, 2)), PowerPartition(2, (2, 4))) == 0

    def test_shorter_is_less(self):
        assert nu_order_compare(PowerPartition(2, (1,)), PowerPartition(2, (1, 1))) == -1

    def test_ratio_comparison(self):
        assert nu_order_compare(PowerPartition(2, (1, 2)), PowerPartition(2, (1, 3))) == -1

    def test_level_shift_invariance(self):
        assert nu_order_compare(PowerPartition(2, (0, 1, 2)), PowerPartition(2, (1, 2))) == 0

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            nu_order_compare(PowerPartition(2, (1,)), PowerPartition(3, (1,)))

    def test_empty_rejected(self):
        with pytest.raises(EmptyPartition):
            nu_order_compare(PowerPartition(2, ()), PowerPartition(2, (1,)))


class TestStableEmbeds:
    def test_counterexample_holds(self):
        verdict = Pair(LAM1, MU1).stable
        assert verdict.status == HOLDS
        assert list(verdict.witness.nu.entries) == [2, 1, 1]
        nu = verdict.witness.nu
        assert verdict.witness.embedding.validate(product(LAM1, nu), product(MU1, nu))

    def test_valuation_refutation(self):
        verdict = Pair(LAM3, MU4).stable
        assert verdict.status == FAILS
        assert verdict.reason.rule == TIGHT_VALUATION

    def test_fast_path_direct_embedding(self):
        verdict = Pair(from_entries([3, 2]), from_entries([7])).stable
        assert verdict.status == HOLDS
        assert list(verdict.witness.nu.entries) == [1]

    def test_unknown_without_common_base(self):
        # [4,4,4] does not embed into [7,6]; no refutation applies and there
        # is no common power base, so the honest answer is UNKNOWN
        verdict = Pair(from_entries([4, 4, 4]), from_entries([7, 6])).stable
        assert verdict.status == UNKNOWN
        assert verdict.detail

    def test_unknown_names_the_exhausted_search(self):
        # [3,3,3] passes the search's pre-checks into [5,5], so a budget of 0
        # nodes runs out; no refutation applies and there is no common base.
        verdict = Pair(from_entries([3, 3, 3]), from_entries([5, 5]), node_budget=0).stable
        assert verdict.status == UNKNOWN and verdict.reason is None
        assert verdict.detail == ("no common power base, so no catalyst construction applies; "
                                  "the direct embedding search also hit its budget")

    def test_norm_equality_refutation(self):
        verdict = Pair(LAM2, MU3).stable
        assert verdict.status == FAILS
        assert verdict.reason.rule == NORM_EQUALITY
        assert verdict.reason.verify(LAM2, MU3)

    def test_determinism(self):
        a = Pair(LAM1, MU1).stable
        b = Pair(LAM1, MU1).stable
        assert a == b

    def test_normalization_equivalence(self):
        rng = random.Random(42)
        for _ in range(60):
            base = rng.choice([2, 3])
            u = random_powerq(rng, base=base, levels=4, max_count=4)
            v = random_powerq(rng, base=base, levels=4, max_count=4)
            lam, mu = from_base_counts(u), from_base_counts(v)
            original = Pair(lam, mu, max_steps=400).stable.status
            lt, mt = normalize_pair(u, v)
            if lt.is_empty:
                normalized = HOLDS
            elif mt.is_empty:
                normalized = FAILS
            else:
                normalized = Pair(from_base_counts(lt), from_base_counts(mt),
                                  max_steps=400).stable.status
            assert original == normalized, (u, v)

    def test_soundness_on_random_pairs(self):
        rng = random.Random(43)
        for _ in range(80):
            base = rng.choice([2, 3])
            u = random_powerq(rng, base=base, levels=4, max_count=4)
            v = random_powerq(rng, base=base, levels=4, max_count=4)
            lam, mu = from_base_counts(u), from_base_counts(v)
            verdict = Pair(lam, mu, max_steps=400).stable
            if verdict.status == HOLDS:
                nu = verdict.witness.nu
                assert verdict.witness.embedding.validate(product(lam, nu), product(mu, nu))
            elif verdict.status == FAILS:
                assert verdict.reason.verify(lam, mu)


class _Calls:
    def __init__(self, fn):
        self.fn = fn
        self.args = []

    @property
    def n(self):
        return len(self.args)

    def __call__(self, *args, **kwargs):
        self.args.append(args)
        return self.fn(*args, **kwargs)


def count_calls(monkeypatch, fn) -> _Calls:
    """Replace ``fn`` at every name it is bound to in the package with a counter."""
    counter = _Calls(fn)
    for name, module in list(sys.modules.items()):
        if name == "partembed" or name.startswith("partembed."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counter)
    return counter


# A base-2 pair and a pair with no common base, neither embedding.
CHECK_PAIRS = [("[2,2,2,2]", "[4,1,1,1,1,1,1,1,1]"), ("[3,3,3]", "[5,5]")]


class TestOneDecisionPerPair:
    """Each relation reads one Pair: its base, count vectors and bulk verdict
    are computed once, and only the facts the relation needs."""

    @pytest.mark.parametrize("lam, mu", [
        (from_entries([3, 3, 3]), from_entries([5, 5])),  # no common base, stable UNKNOWN
        (LAM3, MU4),  # no common base, refuted by the valuation rule
        (LAM1, MU1),  # base 2, catalyst constructed
        (LAM2, MU3),  # base 2, refuted by the norm-equality rule
    ])
    def test_one_base_and_one_bulk_decision(self, monkeypatch, lam, mu):
        base = count_calls(monkeypatch, partembed.core.common_power_base)
        numeric = count_calls(monkeypatch, partembed.norms.dominates_all_s)
        exact = count_calls(monkeypatch, partembed.norms.exact_dominates_powerq)
        report = Pair(lam, mu).report()
        assert report.embeds is False
        assert base.n == 1
        assert numeric.n + exact.n == 1
        assert (exact.n == 1) == (report.base is not None)

    def test_catalyst_products_built_once(self, monkeypatch):
        # One embed_powerq for the direct embedding, one for the catalyst's
        # products; the products are count vectors of the given pair only,
        # never expanded entry products.
        products = count_calls(monkeypatch, partembed.core.product)
        count_products = count_calls(monkeypatch, partembed.core.count_product)
        embeds_q = count_calls(monkeypatch, partembed.orders.embed_powerq)
        report = Pair(from_base_counts(PowerPartition(2, (0, 4))),
                      from_base_counts(PowerPartition(2, (5, 0, 1)))).report()
        assert report.stable.status == HOLDS
        assert products.n == 0
        assert count_products.n == 2
        assert embeds_q.n == 2

    def test_count_vectors_built_once(self, monkeypatch):
        # Two for the pair's sides; the catalyst's products are built as
        # count vectors.
        conversions = count_calls(monkeypatch, partembed.core.to_base_counts)
        report = Pair(from_base_counts(PowerPartition(2, (0, 4))),
                      from_base_counts(PowerPartition(2, (5, 0, 1)))).report()
        assert report.stable.status == HOLDS
        assert conversions.n == 2

    def test_catalyst_pair_normalized_once(self, monkeypatch):
        # The catalyst construction normalizes the count vectors; the
        # refutation rules read the normalized pair off the profile.
        normalizations = count_calls(monkeypatch, normalize_pair)
        report = Pair(from_base_counts(PowerPartition(2, (0, 4))),
                      from_base_counts(PowerPartition(2, (5, 0, 1)))).report()
        assert report.stable.status == HOLDS
        assert normalizations.n == 1

    def test_check_all_reaches_the_public_construct_nu(self, monkeypatch, capsys):
        # A CLI query builds its catalyst through the one public entry point.
        calls = count_calls(monkeypatch, construct_nu)
        assert cli.main(["check", "all", "--lhs", "[2,2,2,2]",
                         "--rhs", "[4,1,1,1,1,1,1,1,1]", "--json"]) == 0
        assert calls.n == 1

    @pytest.mark.parametrize("lam, mu", [([2], [2, 1]), ([4, 2], [4, 2])])
    def test_catalyst_when_lam_cancels_away(self, lam, mu):
        verdict = Pair(from_entries(lam), from_entries(mu)).catalyst
        assert verdict.status == HOLDS
        assert verdict.witness.nu == from_entries([1])

    @pytest.mark.parametrize("lhs, rhs", CHECK_PAIRS)
    def test_check_embed_makes_no_bulk_decision(self, monkeypatch, capsys, lhs, rhs):
        numeric = count_calls(monkeypatch, partembed.norms.dominates_all_s)
        exact = count_calls(monkeypatch, partembed.norms.exact_dominates_powerq)
        assert cli.main(["check", "embed", "--lhs", lhs, "--rhs", rhs]) == 1
        assert numeric.n + exact.n == 0

    @pytest.mark.parametrize("lhs, rhs", CHECK_PAIRS)
    def test_check_bulk_makes_no_embedding_call(self, monkeypatch, capsys, lhs, rhs):
        search = count_calls(monkeypatch, partembed.orders.embeds)
        greedy = count_calls(monkeypatch, partembed.orders.embed_powerq)
        assert cli.main(["check", "bulk", "--lhs", lhs, "--rhs", rhs]) == 0
        assert search.n + greedy.n == 0

    @pytest.mark.parametrize("lhs, rhs", CHECK_PAIRS)
    def test_check_all_builds_one_pair(self, monkeypatch, capsys, lhs, rhs):
        init, built = Pair.__init__, []
        monkeypatch.setattr(Pair, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        cli.main(["check", "all", "--lhs", lhs, "--rhs", rhs, "--json"])
        assert len(built) == 1

    @pytest.mark.parametrize("relation, code", [
        ("embed", 1), ("supermajorize", 1), ("bulk", 0), ("stable", 1), ("all", 0)])
    def test_count_documents_are_decided_on_their_counts(self, monkeypatch, capsys,
                                                         relation, code):
        # Base 4 against base 2, refuted by TightValuation: no relation
        # expands a side or re-counts entries, and the base is read off the
        # two count vectors.
        base = count_calls(monkeypatch, partembed.core.common_power_base)
        calls = [count_calls(monkeypatch, fn) for fn in (
            partembed.core.from_base_counts, partembed.core.to_base_counts,
            partembed.orders.supermajorizes)]
        assert cli.main(["check", relation, "--lhs", '{"base":4,"counts":[0,8]}',
                         "--rhs", '{"base":2,"counts":[16,0,0,0,1]}', "--json"]) == code
        assert [c.n for c in calls] == [0, 0, 0]
        assert base.args == [(PowerPartition(4, (0, 8)), PowerPartition(2, (16, 0, 0, 0, 1)))]

    @pytest.mark.parametrize("relation", ["embed", "supermajorize", "bulk", "stable", "all"])
    def test_mixed_pair_never_expands_its_count_vector(self, monkeypatch, capsys, relation):
        # Base 9 against the entries [27, 3]: the count document is spread
        # into base 3, and only the entries side is counted.
        expansions = count_calls(monkeypatch, partembed.core.from_base_counts)
        conversions = count_calls(monkeypatch, partembed.core.to_base_counts)
        cli.main(["check", relation, "--lhs", '{"base":9,"counts":[1,2]}', "--rhs", "[27,3]"])
        assert expansions.n == 0
        assert conversions.args == [(from_entries([27, 3]), 3)]

    def test_library_takes_count_vectors(self):
        lam, mu = PowerPartition(4, (0, 5)), PowerPartition(4, (6, 0, 1))
        expanded = from_base_counts(lam), from_base_counts(mu)
        assert Pair(lam, mu).report() == Pair(*expanded).report()
        assert Pair(lam, mu).stable == Pair(*expanded).stable
        assert Pair(lam, mu).refutation == Pair(*expanded).refutation
        assert Pair(lam, mu).counts == (PowerPartition(2, (0, 0, 5)),
                                        PowerPartition(2, (6, 0, 0, 0, 1)))
        with pytest.raises(EmptyPartition):
            Pair(lam, PowerPartition(2, ())).report()

    @pytest.mark.parametrize("relation", ["embed", "supermajorize", "bulk", "stable", "all"])
    @pytest.mark.parametrize("lhs, rhs", CHECK_PAIRS)
    def test_check_finds_the_base_at_most_once(self, monkeypatch, capsys, relation, lhs, rhs):
        base = count_calls(monkeypatch, partembed.core.common_power_base)
        cli.main(["check", relation, "--lhs", lhs, "--rhs", rhs, "--json"])
        assert base.n <= 1
