"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from partembed import cli
from partembed.core import PowerPartition, from_base_counts, product, to_base_counts
from partembed.norms import (
    dominates_all_s,
    exact_dominates_powerq,
    norm_profile,
    _default_tol,
)
from partembed.oracle import (
    brute_embed,
    brute_stable_search,
    brute_supermajorize,
    nu_order_compare,
)
from partembed.orders import embed_powerq, embeds, first_fit, supermajorizes
from partembed.stablep import (
    FAILS,
    HOLDS,
    Pair,
    construct_nu,
    normalize_pair,
)
from helpers import (
    LAM1,
    LAM2,
    MU1,
    MU3,
    random_divisible_chain,
    random_embeddable_pair,
    random_partition,
    random_powerq,
)

S_STAR = math.log(1 + math.sqrt(5)) / math.log(2)


def report(number: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {tag}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name} {suffix}"


def test_criterion_1_example_battery(capsys):
    start = time.monotonic()
    code = cli.main(["repro-example24"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    ok = code == 0 and "8/8 claims reproduced" in out and elapsed < 1.0
    with capsys.disabled():
        report(1, "worked-counterexample battery reproduces all eight claims",
               ok, f"{elapsed*1000:.0f} ms")


def test_criterion_2_norm_equality_point():
    # the count difference must equal the expansion of (x^2 - 2x - 4)^2,
    # computed here independently by convolving the factor with itself
    a = to_base_counts(LAM2, 2).counts
    b = to_base_counts(MU3, 2).counts
    diff = [0] * max(len(a), len(b))
    for i, c in enumerate(b):
        diff[i] += c
    for i, c in enumerate(a):
        diff[i] -= c
    factor = [-4, -2, 1]
    square = [0] * 5
    for i, x in enumerate(factor):
        for j, y in enumerate(factor):
            square[i + j] += x * y
    ok = diff == square

    exact = exact_dominates_powerq(to_base_counts(LAM2, 2), to_base_counts(MU3, 2))
    ok = ok and exact.holds and len(exact.interior_equalities) == 1
    eq = exact.interior_equalities[0]
    ok = ok and eq.exact and eq.base == 2
    a, b = eq.x_interval
    # interval contains 1 + sqrt(5) (exact comparison) with width <= 1e-9
    contains = a == b or ((a - 1) ** 2 < 5 and 5 < (b - 1) ** 2)
    ok = ok and contains and (b - a) <= Fraction(1, 10**9)

    numeric = dominates_all_s(LAM2, MU3)
    ok = ok and numeric.holds and len(numeric.interior_equalities) == 1
    s_found = numeric.interior_equalities[0].s
    ok = ok and abs(s_found - 1.69424) <= 1e-4 and abs(s_found - S_STAR) <= 1e-4
    report(2, "norm-equality point certified exactly and localized numerically",
           ok, f"s*={s_found:.7f}, interval width {float(b - a):.2e}")


def test_criterion_3_catalyst_construction():
    start = time.monotonic()
    verdict = construct_nu(to_base_counts(LAM1, 2), to_base_counts(MU1, 2))
    elapsed = time.monotonic() - start
    ok = verdict.status == HOLDS and list(verdict.witness.nu.entries) == [2, 1, 1]
    nu = verdict.witness.nu
    ok = ok and verdict.witness.embedding.validate(product(LAM1, nu), product(MU1, nu))
    ok = ok and elapsed < 0.010
    report(3, "catalyst construction returns exactly [2,1,1] with a valid embedding",
           ok, f"{elapsed*1000:.2f} ms")


def test_criterion_4_powerq_equivalence():
    rng = random.Random(1004)
    start = time.monotonic()
    pairs = 0
    while pairs < 300:
        base = 2 if pairs % 2 == 0 else 3
        u = random_powerq(rng, base=base, levels=5, max_count=6)
        v = random_powerq(rng, base=base, levels=5, max_count=6)
        lam, mu = from_base_counts(u), from_base_counts(v)
        sup = supermajorizes(mu, lam).holds
        found = embeds(lam, mu) is not None
        assert found == sup, (u, v)
        w = embed_powerq(u, v)
        assert (w is not None) == sup
        if w is not None:
            assert w.validate(lam, mu)
        pairs += 1
    elapsed = time.monotonic() - start
    report(4, "embedding of power partitions is equivalent to supermajorization "
              f"({pairs} pairs)", elapsed < 60, f"{elapsed:.1f} s")


def test_criterion_5_first_fit_completeness():
    rng = random.Random(1005)
    start = time.monotonic()
    reruns = 0
    for _ in range(300):
        lam = random_divisible_chain(rng, 6, 64)
        if rng.random() < 0.5:
            mu = random_partition(rng, 6, 64)
        else:
            mu = random_embeddable_pair(rng, lam=lam)[1]
        ff = first_fit(lam, mu) is not None
        exact = embeds(lam, mu) is not None
        assert ff == exact, (lam, mu)
        if len(mu) > 1 and reruns < 150:
            order = list(range(len(mu)))
            rng.shuffle(order)
            shuffled = first_fit(lam, mu, bin_order=order) is not None
            assert shuffled == exact, (lam, mu, order)
            reruns += 1
    elapsed = time.monotonic() - start
    ok = reruns >= 100 and elapsed < 60
    report(5, "first fit decides embeddability for divisible chains "
              f"(300 pairs, {reruns} shuffled-order reruns)", ok, f"{elapsed:.1f} s")


def test_criterion_6_implication_diagram():
    rng = random.Random(1006)
    start = time.monotonic()
    for _ in range(500):
        lam = random_partition(rng, 6, 32)
        mu = random_partition(rng, 6, 32)
        witness = embeds(lam, mu)
        emb = witness is not None
        assert emb == brute_embed(lam, mu), (lam, mu)
        if witness is not None:
            assert witness.validate(lam, mu)
        sup = supermajorizes(mu, lam).holds
        assert sup == brute_supermajorize(mu, lam), (lam, mu)
        bulk = dominates_all_s(lam, mu).holds
        stable = Pair(lam, mu, max_steps=200).stable
        if emb:
            assert sup, (lam, mu)
            assert stable.status != FAILS, (lam, mu)
        if sup:
            assert bulk, (lam, mu)
        if stable.status == HOLDS:
            assert bulk, (lam, mu)
    elapsed = time.monotonic() - start
    report(6, "implication diagram and oracle agreement hold on 500 random pairs",
           elapsed < 120, f"{elapsed:.1f} s")


def test_criterion_7_strict_norm_growth():
    rng = random.Random(1007)
    checked = 0
    while checked < 100:
        lam, mu = random_embeddable_pair(rng, 6, 32)
        if lam == mu:
            continue
        assert embeds(lam, mu) is not None
        prof = norm_profile(lam, mu)
        assert prof.f_exact(2) > 0, (lam, mu)
        assert prof.f_exact(3) > 0, (lam, mu)
        assert prof.f_mpf(1.5) > float(_default_tol(prof)), (lam, mu)
        checked += 1
    report(7, "norms grow strictly on (1, oo) for 100 embeddable non-identical pairs",
           True)


def test_criterion_8_catalyst_minimality():
    rng = random.Random(1008)
    start = time.monotonic()
    holds_pairs = 0
    attempts = 0
    while holds_pairs < 50 and attempts < 3000:
        attempts += 1
        u = random_powerq(rng, base=2, levels=3, max_count=3)
        v = random_powerq(rng, base=2, levels=4, max_count=4)
        lam, mu = from_base_counts(u), from_base_counts(v)
        if len(lam) > 8 or len(mu) > 10:
            continue
        if Pair(lam, mu).refutation is not None:
            continue
        lt, mt = normalize_pair(u, v)
        if lt.is_empty:
            continue
        verdict = construct_nu(lt, mt, max_steps=400)
        if verdict.status != HOLDS:
            continue
        holds_pairs += 1
        nu_alg = to_base_counts(verdict.witness.nu, 2)
        found = brute_stable_search(lam, mu, 4, 16)
        assert found is not None, (lam, mu)  # the pair is stable, so something valid exists
        try:
            found_pp = to_base_counts(found, 2)
        except Exception:
            continue  # best candidate not a power partition: nothing comparable below
        assert nu_order_compare(found_pp, nu_alg) >= 0, (lam, mu, found, verdict.witness.nu)
    elapsed = time.monotonic() - start
    ok = holds_pairs >= 50 and elapsed < 120
    report(8, f"no enumerated catalyst beats the constructed one ({holds_pairs} pairs)",
           ok, f"{elapsed:.1f} s")


def _normalized_status(u, v):
    lt, mt = normalize_pair(u, v)
    if lt.is_empty:
        return HOLDS
    if mt.is_empty:
        return FAILS
    return Pair(from_base_counts(lt), from_base_counts(mt), max_steps=300).stable.status


def _catalyst_family():
    """Normalized pairs that need a catalyst: a boxes of size q against one box
    gap levels higher, which cannot hold them all, plus unit boxes for the
    rest of lam's total and slack more.  Slack 0 packs tightly, and the
    valuation rule refutes it."""
    for q, gap, excess, slack in itertools.product((2, 3), (1, 2), (1, 2), (0, 1)):
        a = q**gap + excess
        units = a * q - q ** (1 + gap) + slack
        yield PowerPartition(q, (0, a)), PowerPartition(q, (units,) + (0,) * gap + (1,))


def test_criterion_9_normalization_equivalence():
    rng = random.Random(1009)
    pairs = []
    for _ in range(200):
        base = rng.choice([2, 3])
        pairs.append((random_powerq(rng, base=base, levels=4, max_count=5),
                      random_powerq(rng, base=base, levels=4, max_count=5)))
    pairs += _catalyst_family()
    # Padding draws come from their own stream, so the random pairs stay the same.
    pad_rng = random.Random(2009)
    for u, v in pairs:
        normalized = _normalized_status(u, v)
        assert Pair(from_base_counts(u), from_base_counts(v),
                    max_steps=300).stable.status == normalized, (u, v)
        # 1-2 common boxes at every level up to the taller side's top, which
        # normalization cancels again; a shared unit box makes both gcds 1.
        pad = [pad_rng.randint(1, 2) for _ in range(max(len(u.counts), len(v.counts)))]
        lam, mu = (from_base_counts(PowerPartition(pp.base, tuple(
            c + d for c, d in itertools.zip_longest(pp.counts, pad, fillvalue=0))))
            for pp in (u, v))
        assert Pair(lam, mu, max_steps=300).stable.status == normalized, (u, v, pad)
    report(9, "stable verdicts are identical before and after pair normalization "
              f"({len(pairs)} pairs, each also padded with common boxes)", True)
