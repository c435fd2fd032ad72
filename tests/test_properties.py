"""Property sweep: every decided verdict on small pairs carries its proof.

Hypothesis runs derandomized and without an example database, so the same
examples run every time.  General pairs go through ``relations``; count-form
power-of-2/3 pairs go through the embedding, bulk and refutation decisions
(the catalyst construction is left out: its catalysts can outgrow memory).
Smaller power-of-2/3 pairs, padded on both sides with the same boxes, go
through the full stable decision, catalyst construction included.  Count
vectors in bases 2-9, one base or two, give the same pair, and the same
report, as their expanded entries.
"""

from itertools import zip_longest

from hypothesis import example, given, settings, strategies as st

from partembed import cli
from partembed.core import PowerPartition, from_base_counts, from_entries, product
from oracle import brute_embed, brute_supermajorize
from partembed.orders import supermajorizes
from partembed.stablep import (
    BULK_FAILS,
    FAILS,
    HOLDS,
    Pair,
    StableRefutation,
)

SWEEP = settings(derandomize=True, database=None, deadline=None, max_examples=120)

partitions = st.lists(st.integers(1, 24), min_size=1, max_size=6).map(from_entries)


@st.composite
def powerq_pairs(draw):
    base = draw(st.sampled_from([2, 3]))
    counts = st.lists(st.integers(0, 6), min_size=1, max_size=5).filter(lambda c: c[-1])
    return tuple(from_base_counts(PowerPartition(base, tuple(draw(counts)))) for _ in range(2))


def tail_fails(mu, lam, x: int) -> bool:
    return sum(e for e in mu.entries if e >= x) < sum(e for e in lam.entries if e >= x)


@SWEEP
@given(partitions, partitions)
def test_general_pair_verdicts_are_certified(lam, mu):
    report = Pair(lam, mu, node_budget=10**4).report()
    if report.embeds:
        assert report.embed_witness.validate(lam, mu)
    elif report.embeds is False:
        assert not brute_embed(lam, mu)
    if report.supermajorized:
        assert brute_supermajorize(mu, lam)
    else:
        assert tail_fails(mu, lam, report.supermajorization_failing_x)
    if not report.bulk.holds:
        assert StableRefutation(BULK_FAILS, bulk=report.bulk, base=report.base).verify(lam, mu)
    stable = report.stable
    if stable.status == HOLDS:
        nu = stable.witness.nu
        assert stable.witness.embedding.validate(product(lam, nu), product(mu, nu))
    elif stable.status == FAILS:
        assert stable.reason.verify(lam, mu)


@SWEEP
@given(powerq_pairs())
def test_powerq_pair_verdicts_are_certified(sides):
    lam, mu = sides
    pair = Pair(lam, mu)
    witness, undecided = pair.embedding
    assert not undecided
    sup = supermajorizes(mu, lam)
    if witness is not None:
        assert witness.validate(lam, mu) and sup.holds
    if not sup.holds:
        assert tail_fails(mu, lam, sup.failing_x)
    bulk = pair.bulk
    if sup.holds:
        assert bulk.holds
    if not bulk.holds:
        assert bulk.failure_x is not None
        assert StableRefutation(BULK_FAILS, bulk=bulk, base=pair.base).verify(lam, mu)
    ref = Pair(lam, mu).refutation
    assert (ref is not None and ref.rule == BULK_FAILS) == (not bulk.holds)
    if ref is not None:
        assert ref.verify(lam, mu)


@st.composite
def padded_powerq_pairs(draw):
    """Two count vectors in one base and a vector of common boxes to add to
    both.  The vectors have up to three levels, or are a boxes of size q
    against one box gap levels higher plus unit boxes making up lam's total
    and slack more, a pair that needs a catalyst unless slack is 0."""
    base = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        counts = st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(lambda c: c[-1])
        u, v = draw(counts), draw(counts)
    else:
        gap, excess, slack = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
        a = base**gap + excess
        u, v = [0, a], [a * base - base ** (1 + gap) + slack] + [0] * gap + [1]
    pad = st.lists(st.integers(0, 2), min_size=1, max_size=4).filter(lambda c: c[-1])
    return base, u, v, draw(pad)


def assert_certified(verdict, lam, mu):
    if verdict.status == HOLDS:
        nu = verdict.witness.nu
        assert verdict.witness.embedding.validate(product(lam, nu), product(mu, nu))
    elif verdict.status == FAILS:
        assert verdict.reason.verify(lam, mu)


@SWEEP
@given(padded_powerq_pairs())
def test_stable_status_survives_common_boxes(case):
    base, u, v, pad = case
    lam, mu = (from_base_counts(PowerPartition(base, tuple(c)))
               for c in (u, v))
    lam_p, mu_p = (from_base_counts(PowerPartition(base, tuple(
        a + b for a, b in zip_longest(c, pad, fillvalue=0)))) for c in (u, v))
    plain = Pair(lam, mu, max_steps=300).stable
    padded = Pair(lam_p, mu_p, max_steps=300).stable
    assert plain.status == padded.status, (base, u, v, pad)
    assert_certified(plain, lam, mu)
    assert_certified(padded, lam_p, mu_p)


@st.composite
def count_vector_pairs(draw):
    """Two count vectors of levels 0-6 in one base of 2-9 or in two: bases 4,
    8 and 9 are read in their roots, and a vector of one level holds unit
    boxes only."""
    bases = st.integers(2, 9)
    base = draw(bases)
    other = base if draw(st.booleans()) else draw(bases)
    counts = st.lists(st.integers(0, 3), min_size=1, max_size=7).filter(lambda c: c[-1])
    return PowerPartition(base, tuple(draw(counts))), PowerPartition(other, tuple(draw(counts)))


@SWEEP
@given(count_vector_pairs())
@example((PowerPartition(4, (0, 5)), PowerPartition(4, (6, 0, 1))))
@example((PowerPartition(8, (0, 1)), PowerPartition(2, (0, 2, 1))))
@example((PowerPartition(9, (0, 10)), PowerPartition(3, (11, 0, 1))))
@example((PowerPartition(4, (0, 1)), PowerPartition(8, (0, 1))))
@example((PowerPartition(3, (5,)), PowerPartition(4, (1, 2))))
@example((PowerPartition(3, (5,)), PowerPartition(7, (6,))))
@example((PowerPartition(2, (1, 1)), PowerPartition(3, (0, 1))))
def test_count_vectors_decide_as_their_entries(sides):
    counted = Pair(*sides, node_budget=10**4, max_steps=30)
    expanded = Pair(*map(from_base_counts, sides), node_budget=10**4, max_steps=30)
    assert counted.base == expanded.base
    assert counted.counts == expanded.counts
    assert cli._encode(counted.report(), "\n") == cli._encode(expanded.report(), "\n")
