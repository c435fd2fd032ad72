import importlib.util
import json
import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from partembed import norms
from partembed.core import BaseMismatch, PowerPartition, from_base_counts, from_entries, power, to_base_counts
from partembed.cli import parse_partition_doc
from partembed.norms import (
    INF,
    BulkVerdict,
    EqualityPoint,
    NormProfile,
    dominates_all_s,
    exact_dominates_powerq,
    failing_threshold,
    norm_profile,
    p_norm,
    profile_poly,
    power_sum,
    _eval_poly,
    _isolate_roots,
    _positive_root_bound,
    _refine_root_interval,
    _scaled_eval,
    _squarefree_chain,
    _variations,
)
from partembed.core import InvalidExponent, PartitionError
from partembed.oracle import brute_supermajorize
from partembed.orders import supermajorizes
from partembed.stablep import Pair
from helpers import LAM1, LAM2, MU3, count_pairs, random_embeddable_pair, random_partition, random_powerq

S_STAR = math.log(1 + math.sqrt(5)) / math.log(2)  # where the lam2/mu3 norms touch


class TestPNorm:
    def test_l1_is_sum(self):
        assert p_norm(LAM1, 1) == 8

    def test_linf_is_max(self):
        assert p_norm(from_entries([8] * 4 + [4] * 4), INF) == 8

    def test_l2_exact_root(self):
        # sum of squares of [2,2,2,2] is 16, a perfect square
        assert p_norm(LAM1, 2) == 4

    def test_l2_inexact(self):
        got = p_norm(from_entries([2, 1]), 2)
        assert abs(float(got) - math.sqrt(5)) < 1e-12

    def test_fractional_exponent(self):
        got = p_norm(from_entries([2, 1]), 1.5)
        expected = (2**1.5 + 1) ** (1 / 1.5)
        assert abs(float(got) - expected) < 1e-9

    def test_below_one_rejected(self):
        with pytest.raises(InvalidExponent):
            p_norm(LAM1, 0.5)

    def test_power_sum_exact(self):
        assert power_sum(from_entries([3, 2]), 3) == 27 + 8

    def test_power_norm_identity_on_power_sums(self):
        # power sums of an n-fold product factor exactly
        rng = random.Random(21)
        for _ in range(10):
            lam = random_partition(rng, 4, 9)
            for n in (2, 3):
                lam_n = power(lam, n)
                for s in (1, 2):
                    assert power_sum(lam_n, s) == power_sum(lam, s) ** n
                assert lam_n.max_entry == lam.max_entry**n


class TestNormProfile:
    def test_counterexample_profile(self):
        prof = norm_profile(LAM2, MU3)
        assert dict(prof.coefficients) == {16: 1, 8: -4, 4: -4, 2: 16, 1: 16}

    def test_identical_is_empty(self):
        assert norm_profile(LAM1, LAM1).coefficients == ()

    def test_small_profile(self):
        prof = norm_profile(from_entries([2]), from_entries([1, 1, 1]))
        assert dict(prof.coefficients) == {2: -1, 1: 3}

    def test_f1_matches_totals(self):
        rng = random.Random(22)
        for _ in range(25):
            lam = random_partition(rng)
            mu = random_partition(rng)
            assert norm_profile(lam, mu).f1() == mu.total - lam.total

    def test_sign_agreement_with_norms(self):
        # sign of f(s) equals sign of the norm difference at sampled s
        rng = random.Random(23)
        for _ in range(15):
            lam = random_partition(rng, 4, 16)
            mu = random_partition(rng, 4, 16)
            prof = norm_profile(lam, mu)
            for s in (1.5, 2, 3):
                f = float(prof.f_mpf(s))
                diff = float(p_norm(mu, s)) - float(p_norm(lam, s))
                if abs(f) > 1e-9:
                    assert (f > 0) == (diff > 0)


def _horner_holds(P, q):
    """Every tail sum T_i = sum_{j >= i} P_j q**j >= 0, by a top-down Horner
    pass whose value after P_i is T_i / q**i."""
    h = 0
    for c in reversed(P):
        h = h * q + c
        if h < 0:
            return False
    return True


def _brute_failing_x(lam, mu):
    """The smallest x whose tail sum of mu is below lam's, tried one by one."""
    top = max(lam.max_entry, mu.max_entry)
    return next((x for x in range(1, top + 1)
                 if sum(e for e in mu.entries if e >= x) < sum(e for e in lam.entries if e >= x)),
                None)


class TestFailingThreshold:
    """The one tail-sum sweep, on sparse profiles and on the dense profile
    (q**i, P_i) of a count pair, zero levels included."""

    def test_zero_coefficient_inside_a_negative_run(self):
        assert failing_threshold([(10, -1), (5, 0), (3, 5)]) == 4
        assert failing_threshold([(10, -1), (3, 5)]) == 4

    def test_empty_and_holding_profiles(self):
        assert failing_threshold([]) is None
        assert failing_threshold([(4, 1), (2, -2)]) is None
        assert failing_threshold([(4, 1), (1, -5)]) == 1

    def test_count_pair_sweep(self):
        small = 0
        for lam, mu in count_pairs(2000, seed=31):
            q, P = lam.base, profile_poly(lam, mu)
            dense = [(q**i, P[i]) for i in range(len(P) - 1, -1, -1)]
            x = failing_threshold(dense)
            assert (x is None) == _horner_holds(P, q), (lam, mu)
            assert x == failing_threshold([(v, n) for v, n in dense if n]), (lam, mu)
            if x is None:
                verdict = exact_dominates_powerq(lam, mu)
                assert verdict.holds and not verdict.interior_equalities, (lam, mu)
            l, m = from_base_counts(lam), from_base_counts(mu)
            if max(l.max_entry, m.max_entry) <= 1024 and len(l) + len(m) <= 80:
                small += 1
                assert x == supermajorizes(m, l).failing_x == _brute_failing_x(l, m), (lam, mu)
                assert (x is None) == brute_supermajorize(m, l), (lam, mu)
        assert small > 500


class TestFMpfBits:
    # The refinements and the failure searches evaluate f through f_mpf (the
    # grid samples come from stepped_grid), so it must return the very bits
    # of the plain mpmath sum, or numeric verdicts, failure exponents and
    # hints move.
    @staticmethod
    def reference(prof, s):
        import mpmath

        with mpmath.workprec(120):
            return mpmath.fsum(n * mpmath.power(v, s) for v, n in prof.coefficients)

    def test_bits_match_plain_mpmath(self):
        import mpmath

        rng = random.Random(31)
        for _ in range(250):
            values = rng.sample(range(1, 65), rng.randint(1, 8))
            if rng.random() < 0.3 and 1 not in values:
                values.append(1)
            prof = NormProfile(tuple(sorted(
                ((v, rng.choice((-1, 1)) * rng.randint(1, 5)) for v in values), reverse=True)))
            with mpmath.workprec(120):
                a = mpmath.mpf(rng.uniform(1, 3))
                b = a + mpmath.mpf(rng.uniform(0.01, 0.5))
                golden = (mpmath.sqrt(5) - 1) / 2
                span = mpmath.mpf(rng.uniform(1.5, 12)) - 1
                samples = [
                    rng.uniform(1, 20),
                    rng.randint(1, 30),
                    mpmath.mpf(rng.randint(1, 30)),
                    mpmath.mpf(rng.randint(1, 30)) + mpmath.mpf(1) / 2,
                    mpmath.mpf(1) + span * rng.randint(1, 62) / 63,
                    b - golden * (b - a),
                    a + golden * (b - a),
                ]
            for s in samples:
                assert prof.f_mpf(s)._mpf_ == self.reference(prof, s)._mpf_, (prof, s)

    def test_cached_logs_do_not_change_the_profile(self):
        prof = norm_profile(LAM2, MU3)
        before = (repr(prof), hash(prof))
        prof.f_mpf(1.5)
        assert (repr(prof), hash(prof)) == before
        assert prof == norm_profile(LAM2, MU3)


def _grid_span(prof):
    """The grid span that ``dominates_all_s`` takes for a profile."""
    import mpmath

    (v_1, _), (v_2, _) = prof.coefficients[:2]
    mass = sum(abs(c) for _, c in prof.coefficients)
    gap = math.log(v_1) - math.log(v_2) or math.log1p((v_1 - v_2) / v_2)
    with mpmath.workprec(120):
        return mpmath.mpf(1.0 + math.log(max(2, mass)) / gap) - 1


def _grid_profiles(n, seed=41):
    """n profiles of 2-8 values, up to 64 and up to 10**6 in turn, with
    counts of either sign and size 1-5, each with its grid span."""
    rng = random.Random(seed)
    for k in range(n):
        values = sorted(rng.sample(range(1, (64, 10**6)[k % 2] + 1), rng.randint(2, 8)), reverse=True)
        prof = NormProfile(tuple((v, rng.choice((-1, 1)) * rng.randint(1, 5)) for v in values))
        yield prof, _grid_span(prof)


_BIG = 345217350318977185375237309378926972062  # about 2**128


def _grid(prof, span):
    """``prof.stepped_grid(span)``, its raw values made mpf objects."""
    import mpmath

    return tuple([mpmath.mp.make_mpf(y) for y in ys] for ys in prof.stepped_grid(span))


class TestSteppedGrid:
    def test_each_lower_bound_holds_on_its_interval(self):
        # Each L_k holds on [s_k, s_{k+1}], except L_0, which may come from
        # the bound on f' and then holds on [1 + _HINT_GAP, s_1].
        import mpmath

        positive = 0
        for prof, span in _grid_profiles(12):
            fs, lows = _grid(prof, span)
            assert len(fs) == 64 and len(lows) == 63
            with mpmath.workprec(120):
                h = span / 63  # the step stepped_grid takes
            with mpmath.workprec(200):
                for k, low in enumerate(lows):
                    start = 1 + mpmath.mpf(norms._HINT_GAP) if k == 0 else 1 + k * h
                    for j in range(33):
                        s = start + (1 + (k + 1) * h - start) * mpmath.mpf(j) / 32
                        f = mpmath.fsum(c * mpmath.power(v, s) for v, c in prof.coefficients)
                        assert low <= f, (prof, k, j)
                    positive += low > 0
        # The bounds are not vacuous: many intervals are proven positive.
        assert positive > 200

    def test_steps_stay_close_to_f_mpf(self):
        import mpmath

        for prof, span in _grid_profiles(40, seed=42):
            fs, _ = _grid(prof, span)
            mass = sum(abs(c) for _, c in prof.coefficients)
            with mpmath.workprec(120):
                h = span / 63
            with mpmath.workprec(200):
                for k, y in enumerate(fs):
                    s = 1 + k * h
                    band = mpmath.ldexp(mass * mpmath.power(prof.coefficients[0][0], s), -110)
                    assert abs(y - prof.f_mpf(s)) <= band, (prof, k)

    def test_exact_at_one(self):
        # f(1) = 0 must stay exactly 0, as f_mpf(1) is: the grid minimum at
        # s = 1 of a pair tight at 1 is found by comparing against it.
        import mpmath

        prof = norm_profile(from_entries([3, 3]), from_entries([4, 1, 1]))
        with mpmath.workprec(120):
            fs, _ = prof.stepped_grid(mpmath.mpf(63) / 8)
        assert prof.f1() == 0 and fs[0] == mpmath.libmp.fzero == prof.f_mpf(1)._mpf_

    def test_close_values_past_the_float_range(self):
        # (N+1)**s - 2 N**s + (N-1)**s with N = 2**1017 takes a span near
        # 2e306, so the margin's (1 + span) ln v_1 passes the float range:
        # the bound gives up on every interval and nothing overflows.
        import mpmath

        big = 2**1017
        prof = norm_profile(from_entries([big] * 2), from_entries([big + 1, big - 1]))
        with mpmath.workprec(120):
            fs, lows = _grid(prof, mpmath.mpf(1 + math.log(4) / math.log1p(1 / big)) - 1)
        assert len(fs) == 64 and len(lows) == 63 and all(low < 0 for low in lows)

    @pytest.mark.parametrize("lam, mu", [
        ([2**61] * 2, [2**61 + 1, 2**61 - 1]),
        ([_BIG + 3, _BIG, _BIG - 2], [_BIG + 4, _BIG, _BIG - 3]),
        ([2**200] * 2, [2**200 + 1, 2**200 - 1]),
        ([2**1017] * 2, [2**1017 + 1, 2**1017 - 1]),
    ])
    def test_close_large_values_stay_close_to_f(self, lam, mu):
        # m (1 + span) ln v_1 passes 2**60 on these close values, where a
        # grid stepped at 130 bits loses f.  Each stepped value is checked
        # against f at the very point s_k = 1 + k*h the steps reach, taken
        # with 64 more bits than the grid's precision rule gives.
        import mpmath

        prof = norm_profile(from_entries(lam), from_entries(mu))
        span = _grid_span(prof)
        fs, _ = _grid(prof, span)
        v_1, m = prof.coefficients[0][0], len(prof.coefficients)
        mass = sum(abs(c) for _, c in prof.coefficients)
        with mpmath.workprec(53):
            reach = m * (1 + span) * mpmath.log(v_1)
        assert reach >= 2**60
        with mpmath.workprec(120):
            h = span / 63  # the step stepped_grid takes
        with mpmath.workprec(130 + int(mpmath.log(reach, 2)) + 1 - 60 + 64):
            for k, y in enumerate(fs):
                s = 1 + k * h
                f = mpmath.fsum(c * mpmath.power(v, s) for v, c in prof.coefficients)
                assert abs(y - f) <= mpmath.ldexp(mass * mpmath.power(v_1, s), -60), (lam, k)


def _reference_dominates_all_s(lam, mu):
    """The numeric bulk path before grid stepping: ``f_mpf`` at each of the
    64 grid points, and ``_refine_minimum`` at every grid minimum."""
    import mpmath

    profile = norm_profile(lam, mu)
    f1 = profile.f1()
    verdict = partial(BulkVerdict, tight_at_one=f1 == 0,
                      tight_at_infinity=lam.max_entry == mu.max_entry)
    if not profile.coefficients:
        return verdict(holds=True)
    if f1 < 0:
        return verdict(holds=False, failure_exponent=1.0)
    top_v, top_n = profile.coefficients[0]
    if top_n < 0:
        s = 2
        while s * top_v.bit_length() <= norms._EXACT_POWER_BITS and profile.f_exact(s) >= 0:
            s *= 2
        if s * top_v.bit_length() > norms._EXACT_POWER_BITS:
            with mpmath.workprec(120):
                while profile.f_mpf(s) >= 0:
                    s *= 2
        return verdict(holds=False, failure_exponent=float(s))
    if len(profile.coefficients) == 1:
        return verdict(holds=True)
    v2 = profile.coefficients[1][0]
    coeff_mass = sum(abs(n) for _, n in profile.coefficients)
    gap = math.log(top_v) - math.log(v2)
    if gap == 0.0:
        gap = math.log1p((top_v - v2) / v2)
    s_max = 1.0 + math.log(max(2, coeff_mass)) / gap
    tol = norms._default_tol(profile)
    with mpmath.workprec(120):
        tol_m = mpmath.mpf(tol.numerator) / tol.denominator
        if f1 == 0:
            d1 = mpmath.fsum(n * v * mpmath.log(v) for v, n in profile.coefficients)
            if d1 < -tol_m:
                s = mpmath.mpf(1) + mpmath.mpf("1e-3")
                while profile.f_mpf(s) >= 0:
                    s = 1 + (s - 1) / 2
                return verdict(holds=False, failure_exponent=float(s))
        one, span = mpmath.mpf(1), mpmath.mpf(s_max) - 1
        xs = [one + span * i / 63 for i in range(64)]
        fs = [profile.f_mpf(x) for x in xs]
        for x, y in zip(xs, fs):
            if y < -tol_m:
                return verdict(holds=False, failure_exponent=float(x))
        equalities = []
        for i in range(64):
            if (i > 0 and fs[i] > fs[i - 1]) or (i < 63 and fs[i] > fs[i + 1]):
                continue
            s_min, f_min = norms._refine_minimum(profile, xs[max(0, i - 1)], xs[min(63, i + 1)])
            if f_min < -tol_m:
                return verdict(holds=False, failure_exponent=float(s_min))
            if abs(f_min) <= tol_m and s_min > 1 + 1e-9:
                equalities.append(EqualityPoint(s=float(s_min), exact=False))
        return verdict(holds=True, interior_equalities=tuple(norms._dedupe_equalities(equalities)))


def _stress_pairs(n, seed=23):
    """n pairs of three kinds in turn: random lists of up to 8 entries up to
    32, 1000 or 10**6; pairs that embed by construction; and LAM2/MU3 scaled
    by c with a shared extra box, and a box of 1 or 2 on one side or none, so
    that f touches or nearly touches 0 near S_STAR."""
    rng = random.Random(seed)
    for k in range(n):
        top = rng.choice((32, 1000, 10**6))
        if k % 3 == 0:
            yield random_partition(rng, 8, top), random_partition(rng, 8, top)
        elif k % 3 == 1:
            yield random_embeddable_pair(rng, 8, top)
        else:
            c, shared, extra = rng.randint(1, 60), rng.randint(1, 1000), rng.choice(([], [1], [2]))
            lam = [8 * c] * 4 + [4 * c] * 4 + [shared]
            mu = [16 * c] + [2 * c] * 16 + [c] * 16 + [shared]
            if rng.random() < 0.5:
                lam += extra
            else:
                mu += extra
            yield from_entries(lam), from_entries(mu)


def _corpus_numeric_pairs():
    """The pairs of ``tools/cli_corpus.py`` that the numeric path decides."""
    spec = importlib.util.spec_from_file_location(
        "cli_corpus", Path(__file__).resolve().parents[1] / "tools" / "cli_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    for lhs, rhs in corpus.PAIRS:
        pair = Pair(*(parse_partition_doc(json.loads(doc))[0] for doc in (lhs, rhs)))
        if pair.base is None:
            yield pair.partitions


class TestSteppedGridKeepsVerdicts:
    def test_stress_pairs_match_the_reference(self, monkeypatch):
        refine, calls = norms._refine_minimum, []
        monkeypatch.setattr(norms, "_refine_minimum",
                            lambda *args: calls.append(args) or refine(*args))
        new_calls = hints = fails = 0
        for lam, mu in _stress_pairs(2001):
            start = len(calls)
            new = dominates_all_s(lam, mu)
            new_calls += len(calls) - start
            reference = _reference_dominates_all_s(lam, mu)
            assert repr(new) == repr(reference), (lam, mu)
            hints += bool(new.interior_equalities)
            fails += not new.holds
        # Refinements are both skipped and run, and hints and failures are
        # both reached.
        assert 300 < new_calls < len(calls) - new_calls - 1000
        assert hints > 100 and fails > 300

    @pytest.mark.parametrize("lam, mu", [
        ([2**20] * 2, [2**20 + 1, 2**20 - 1]),
        ([2**40] * 2, [2**40 + 1, 2**40 - 1]),
        ([2**60] * 2, [2**60 + 1, 2**60 - 1]),
        ([2**200] * 2, [2**200 + 1, 2**200 - 1]),
        ([_BIG + 3, _BIG, _BIG - 2], [_BIG + 4, _BIG, _BIG - 3]),
        ([2**500] * 2, [2**500 + 1, 2**500 - 1]),
    ])
    def test_close_large_values_match_the_reference(self, lam, mu):
        # m * s_max * ln v_1 grows with the entries: below 2**60 at 2**20 and
        # 2**40, past it from 2**60 on, where the grid is stepped at more
        # than 130 bits.  mu majorizes lam in the 2**128 pair, so bulk holds;
        # a grid stepped there at 130 bits loses f and reports a failure
        # near s = 6e37.
        lam, mu = from_entries(lam), from_entries(mu)
        assert repr(dominates_all_s(lam, mu)) == repr(_reference_dominates_all_s(lam, mu))
        assert dominates_all_s(lam, mu).holds

    def test_corpus_pairs_match_the_reference(self):
        pairs = list(_corpus_numeric_pairs())
        assert len(pairs) >= 12
        for lam, mu in pairs:
            assert repr(dominates_all_s(lam, mu)) == repr(_reference_dominates_all_s(lam, mu)), (lam, mu)


def _tight_pairs(n, seed=29):
    """[24,23] / [29,18] and [3,3] / [6], then n pairs tight at s = 1 with no
    common power base: lam of 2-8 entries up to 32, and mu from lam by 1-4
    merges, splits and shifts that keep it to 8 entries up to 32.  A pair is
    kept when f'(1) > 0, checked exactly as prod v**(n v) > 1, and mu holds
    the top value, so that the grid decides it."""
    yield from_entries([24, 23]), from_entries([29, 18])
    yield from_entries([3, 3]), from_entries([6])
    rng = random.Random(seed)
    kept = 0
    while kept < n:
        lam = [rng.randint(1, 32) for _ in range(rng.randint(2, 8))]
        mu = list(lam)
        for _ in range(rng.randint(1, 4)):
            i, j = rng.sample(range(len(mu)), 2) if len(mu) > 1 else (0, 0)
            op = rng.random()
            if op < 0.3 and i != j and mu[i] + mu[j] <= 32:
                mu[i] += mu[j]
                del mu[j]
            elif op < 0.5 and len(mu) < 8 and mu[i] > 1:
                x = rng.randint(1, mu[i] - 1)
                mu[i] -= x
                mu.append(x)
            elif i != j:
                x = rng.randint(1, 8)
                if mu[j] > x and mu[i] + x <= 32:
                    mu[i] += x
                    mu[j] -= x
        lam, mu = from_entries(lam), from_entries(mu)
        prof = norm_profile(lam, mu)
        if len(prof.coefficients) < 2 or prof.coefficients[0][1] < 0 or Pair(lam, mu).base:
            continue
        up = math.prod(v ** (c * v) for v, c in prof.coefficients if c > 0)
        down = math.prod(v ** (-c * v) for v, c in prof.coefficients if c < 0)
        if up > down:
            kept += 1
            yield lam, mu


def _reference_first_slope(prof):
    """L' of ``NormProfile.stepped_grid`` at 200 bits, with no margin:
    the Abel sum of the prefix sums W'_i of n v ln v against the drops
    v_i**h - v_{i+1}**h where W'_i < 0."""
    import mpmath

    span = _grid_span(prof)
    with mpmath.workprec(120):
        h = span / 63
    values = [v for v, _ in prof.coefficients] + [1]
    with mpmath.workprec(200):
        prefix = low = mpmath.mpf(0)
        for i, (v, c) in enumerate(prof.coefficients):
            prefix += c * v * mpmath.log(v)
            if prefix < 0:
                low += prefix * (mpmath.power(v, h) - mpmath.power(values[i + 1], h))
        return prefix + low


class TestFirstIntervalSlopeBound:
    def test_bound_holds_past_the_hint_gap(self):
        # The first interval's bound L_0 is one on f and on f_mpf, sampled
        # at 33 points of [1 + gap, 1 + h], on random profiles of either sign
        # at s = 1 and on the tight pairs.  The points are formed in mpf:
        # 1 + gap summed as floats puts the last one past 1 + h.
        import mpmath

        profiles = [prof for prof, _ in _grid_profiles(12, seed=43)]
        profiles += [norm_profile(lam, mu) for lam, mu in _tight_pairs(20)]
        positive = 0
        for prof in profiles:
            span = _grid_span(prof)
            low = mpmath.mp.make_mpf(prof.stepped_grid(span)[1][0])
            with mpmath.workprec(120):
                h = span / 63
            with mpmath.workprec(200):
                gap = mpmath.mpf(norms._HINT_GAP)
                for j in range(33):
                    s = 1 + gap + (h - gap) * mpmath.mpf(j) / 32
                    f = mpmath.fsum(c * mpmath.power(v, s) for v, c in prof.coefficients)
                    assert low <= f and low <= prof.f_mpf(s), (prof, j)
            positive += low > 0
        assert positive >= 10

    def test_tight_pairs_match_the_reference(self, monkeypatch):
        # Every pair keeps the reference verdict.  Where 1e-9 L' > 2 tol the
        # first interval is cleared and nothing is refined; where L' < 0, as
        # on [24,23] / [29,18] (f'(1) ~ 1.29), f(1) = 0 leaves no bound above
        # 0 there and the grid minimum at s = 1 is refined.
        import mpmath

        refine, calls = norms._refine_minimum, []
        monkeypatch.setattr(norms, "_refine_minimum",
                            lambda *args: calls.append(args) or refine(*args))
        seen = {"skipped": 0, "refined": 0, "supermajorized": 0, "not": 0}
        for k, (lam, mu) in enumerate(_tight_pairs(60)):
            start = len(calls)
            verdict = dominates_all_s(lam, mu)
            refined = len(calls) - start
            assert repr(verdict) == repr(_reference_dominates_all_s(lam, mu)), (lam, mu)
            prof = norm_profile(lam, mu)
            slope, tol = _reference_first_slope(prof), norms._default_tol(prof)
            with mpmath.workprec(120):
                clears = slope * mpmath.mpf(norms._HINT_GAP) > 2 * mpmath.mpf(tol.numerator) / tol.denominator
            if clears:
                assert refined == 0, (lam, mu, slope)
                seen["skipped"] += 1
            if slope < 0:
                assert refined >= 1, (lam, mu, slope)
                seen["refined"] += 1
            if k < 2:  # [24,23] / [29,18], then [3,3] / [6]
                assert (slope < 0, clears) == ((True, False), (False, True))[k]
            seen["supermajorized" if supermajorizes(mu, lam).holds else "not"] += 1
        # Both branches, on supermajorized pairs and on pairs that are not.
        assert seen["skipped"] >= 30 and seen["refined"] >= 5, seen
        assert seen["supermajorized"] >= 10 and seen["not"] >= 30, seen


class TestDominatesAllS:
    def test_counterexample_touch_point(self):
        verdict = dominates_all_s(LAM2, MU3)
        assert verdict.holds
        assert len(verdict.interior_equalities) == 1
        eq = verdict.interior_equalities[0]
        assert not eq.exact
        assert abs(eq.s - S_STAR) <= 1e-4

    def test_failing_pair(self):
        verdict = dominates_all_s(from_entries([2]), from_entries([1, 1, 1]))
        assert not verdict.holds
        s = verdict.failure_exponent
        assert s is not None and s > math.log2(3) - 0.1
        prof = norm_profile(from_entries([2]), from_entries([1, 1, 1]))
        assert prof.f_mpf(s) < 0

    def test_identical_tight_everywhere(self):
        verdict = dominates_all_s(LAM1, LAM1)
        assert verdict.holds and verdict.tight_at_one and verdict.tight_at_infinity

    def test_fails_at_one(self):
        verdict = dominates_all_s(from_entries([3]), from_entries([2]))
        assert not verdict.holds and verdict.failure_exponent == 1.0

    def test_fails_at_infinity_with_equal_l1(self):
        # equal sums but lam's top entry bigger: fails for large s
        verdict = dominates_all_s(from_entries([4, 1]), from_entries([3, 2]))
        assert not verdict.holds

    def test_far_failure_keeps_the_powers_small(self):
        # f(s) = 2 (2**20 - 1)**s - (2**20)**s turns negative near
        # s = 2**20 ln 2, so the doubling search ends at s = 2**20, where an
        # exact power would have 21 * 2**20 bits.
        import mpmath  # noqa: F401  (loaded before the measurement)

        lam, mu = from_entries([2**20]), from_entries([2**20 - 1, 2**20 - 1])
        tracemalloc.start()
        try:
            verdict = dominates_all_s(lam, mu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not verdict.holds and verdict.failure_exponent == 2.0**20
        assert peak < 2**18

    def test_close_values_past_the_float_range(self):
        # The search interval of [N,N] / [N+1,N-1] ends near s = 1.2e308 at
        # N = 2**1023, but past the float range from N = 2**1024 on.
        for n in (2**1024, 2**1100):
            with pytest.raises(norms.BeyondFloatRange, match="the largest float"):
                dominates_all_s(from_entries([n, n]), from_entries([n + 1, n - 1]))
        assert issubclass(norms.BeyondFloatRange, PartitionError)

    def test_dip_right_after_one(self):
        # equal sums, positive top coefficient, but f decreases at s=1: the
        # dominance failure sits just above 1, before any grid sample
        lam, mu = from_entries([8, 8, 8, 6]), from_entries([16] + [1] * 14)
        verdict = dominates_all_s(lam, mu)
        assert not verdict.holds and verdict.tight_at_one
        assert verdict.failure_exponent < 1.01
        assert norm_profile(lam, mu).f_mpf(verdict.failure_exponent) < 0

    def test_failure_found_only_by_refining_a_minimum(self, monkeypatch):
        # f = 30**s (x**2 - 2x - 4)**2 - 1 with x = 2**s dips to -1 only near
        # s = log2(1 + sqrt(5)), between grid samples that all stay above the
        # failure band: the refined minimum is what fails.
        import mpmath

        lam = from_entries([240] * 4 + [120] * 4 + [1])
        mu = from_entries([480] + [60] * 16 + [30] * 16)
        minima = []
        refine = norms._refine_minimum
        monkeypatch.setattr(norms, "_refine_minimum",
                            lambda *args: minima.append(refine(*args)) or minima[-1])
        verdict = dominates_all_s(lam, mu)
        assert not verdict.holds and not verdict.tight_at_one
        assert abs(verdict.failure_exponent - math.log2(1 + math.sqrt(5))) < 1e-6
        assert minima[-1][1] < -0.5 and float(minima[-1][0]) == verdict.failure_exponent
        assert all(f > 0 for _, f in minima[:-1])
        with mpmath.workprec(300):
            s = mpmath.mpf(verdict.failure_exponent)
            f = sum(n * mpmath.mpf(v) ** s for v, n in norm_profile(lam, mu).coefficients)
            assert abs(f + 1) < 1e-3

    def test_agrees_with_exact_on_powerq(self):
        rng = random.Random(24)
        for _ in range(60):
            base = rng.choice([2, 3])
            u = random_powerq(rng, base=base, levels=4, max_count=5)
            v = random_powerq(rng, base=base, levels=4, max_count=5)
            lam, mu = from_base_counts(u), from_base_counts(v)
            numeric = dominates_all_s(lam, mu)
            exact = exact_dominates_powerq(u, v)
            assert numeric.holds == exact.holds, (u, v)


class TestExactDominates:
    def test_counterexample_double_root(self):
        # profile polynomial is x^4 - 4x^3 - 4x^2 + 16x + 16 = (x^2 - 2x - 4)^2,
        # which touches zero at x = 1 + sqrt(5) inside (2, oo)
        verdict = exact_dominates_powerq(to_base_counts(LAM2, 2), to_base_counts(MU3, 2))
        assert verdict.holds
        assert len(verdict.interior_equalities) == 1
        eq = verdict.interior_equalities[0]
        assert eq.exact and eq.base == 2
        a, b = eq.x_interval
        assert a == b or ((a - 1) ** 2 < 5 and 5 < (b - 1) ** 2)  # contains 1+sqrt5
        assert b - a <= Fraction(1, 10**9)
        assert abs(eq.s - S_STAR) < 1e-9
        assert not verdict.tight_at_one and not verdict.tight_at_infinity

    def test_identical_zero_polynomial(self):
        pp = to_base_counts(LAM1, 2)
        verdict = exact_dominates_powerq(pp, pp)
        assert verdict.holds and verdict.tight_at_one and verdict.tight_at_infinity
        assert verdict.interior_equalities == ()

    def test_failing_pair(self):
        # [4] vs [2,2]: P(x) = 2x - x^2 < 0 beyond x=2
        verdict = exact_dominates_powerq(PowerPartition(2, (0, 0, 1)), PowerPartition(2, (0, 2)))
        assert not verdict.holds
        x = verdict.failure_x
        assert x is not None and 2 * x - x * x < 0

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            exact_dominates_powerq(PowerPartition(2, (1,)), PowerPartition(3, (1,)))

    def test_tight_at_one_only(self):
        # [2,2] vs [4]: P(x) = x^2 - 2x, zero at x=2 (s=1), positive beyond
        verdict = exact_dominates_powerq(PowerPartition(2, (0, 2)), PowerPartition(2, (0, 0, 1)))
        assert verdict.holds and verdict.tight_at_one
        assert verdict.interior_equalities == ()

    def test_crossing_inside_interval(self):
        # lam = [4,4,4,1], mu = [8,2,2,1]: equal sums, mu top bigger, but
        # f(2) = 64+4+4+1 - (48+1) = 24 > 0 ... construct a genuine interior
        # crossing instead: lam = [2,2,2], mu = [4,1]. P(x) = x^2 - 3x + 1.
        # P(2) = -1 < 0: fails already at s=1 region (x=q). Use sums equal:
        # lam = [2,2], mu = [4]: wait that holds. Take lam=[2,2,2], mu=[4,1,1]:
        # P(x) = x^2 - 3x + 2 = (x-1)(x-2): at x=q=2 P=0, positive beyond.
        verdict = exact_dominates_powerq(PowerPartition(2, (0, 3)), PowerPartition(2, (2, 0, 1)))
        assert verdict.holds and verdict.tight_at_one
        assert verdict.interior_equalities == ()


class TestRootIsolation:
    def test_sturm_variations(self):
        assert _variations([1, -1, 1]) == 2
        assert _variations([1, 0, 1]) == 0
        assert _variations([0, -2, 3]) == 1

    def test_isolate_two_roots(self):
        # (x-3)(x-5) = x^2 - 8x + 15
        exact, intervals = _isolate_roots(_squarefree_chain([15, -8, 1]), Fraction(2),
                                          Fraction(100))
        found = sorted([Fraction(r) for r in exact] + [(a + b) / 2 for a, b in intervals])
        assert len(found) == 2
        assert abs(float(found[0]) - 3) < 1.5 and abs(float(found[1]) - 5) < 1.5

    def test_isolate_irrational(self):
        # x^2 - 2 on (0, 10): one root at sqrt(2)
        exact, intervals = _isolate_roots(_squarefree_chain([-2, 0, 1]), Fraction(0), Fraction(10))
        assert len(exact) + len(intervals) == 1
        if intervals:
            a, b = intervals[0]
            assert a * a < 2 < b * b

    def test_squarefree_part(self):
        # (x-1)^2 (x-2) = x^3 - 4x^2 + 5x - 2 -> squarefree (x-1)(x-2)
        sf = _squarefree_chain([-2, 5, -4, 1])[0]
        assert _eval_poly(sf, Fraction(1)) == 0
        assert _eval_poly(sf, Fraction(2)) == 0
        assert len(sf) == 3

    def test_rational_root_hit(self):
        # root exactly at a bisection midpoint: (x-3)(x^2-2)
        poly = [6, -2, -3, 1]
        exact, intervals = _isolate_roots(_squarefree_chain(poly), Fraction(1), Fraction(8))
        total = len(exact) + len(intervals)
        assert total == 2  # 3 and sqrt(2) both lie in (1, 8)

    def test_interval_clear_of_a_midpoint_root(self):
        # (2x-9)(x^2-5): the first midpoint of (1, 8) is exactly 4.5, an
        # exact root, and the interval of sqrt(5) is bisected until its
        # closure is clear of 4.5
        poly = [45, -10, -9, 2]
        exact, intervals = _isolate_roots(_squarefree_chain(poly), Fraction(1), Fraction(8))
        assert exact == [Fraction(9, 2)]
        assert len(intervals) == 1
        a, b = intervals[0]
        assert not (a <= Fraction(9, 2) <= b)
        assert a * a < 5 < b * b  # still contains sqrt(5)


# A reference for the integer polynomial algebra: long division and Euclid's
# gcd over the rationals, written here so the oracle shares no code with it.
def _ref_divmod(num, den):
    num = [Fraction(c) for c in num]
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while num and len(num) >= len(den):
        shift = len(num) - len(den)
        f = num[-1] / den[-1]
        quot[shift] = f
        for i, c in enumerate(den):
            num[shift + i] -= f * c
        while num and num[-1] == 0:
            num.pop()
    return quot, num


def _ref_integer(p):
    """The primitive integer polynomial that is a positive multiple of p."""
    denom = math.lcm(*(Fraction(c).denominator for c in p))
    ints = [int(Fraction(c) * denom) for c in p]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _ref_squarefree(p):
    a, b = [Fraction(c) for c in p], [i * c for i, c in enumerate(p)][1:]
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    sf = _ref_integer(_ref_divmod(p, a)[0])
    return sf if sf[-1] > 0 else [-c for c in sf]


def _ref_sturm(p):
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while True:
        rem = _ref_divmod(chain[-2], chain[-1])[1]
        if not rem:
            return [_ref_integer(m) for m in chain]
        chain.append([-c for c in rem])


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _integer_polys(n, seed=12):
    """Integer polynomials of degree 1..12 built from linear factors d*x - c
    (rational roots) and quadratics, many of them repeated, times a content."""
    rng = random.Random(seed)
    for _ in range(n):
        poly, roots = [rng.choice([-3, -1, 1, 2])], []
        target = rng.randint(1, 12)
        while len(poly) - 1 < target:
            if rng.random() < 0.6:
                d, c = rng.randint(1, 4), rng.randint(-12, 12)
                factor = [-c, d]
                roots.append(Fraction(c, d))
            else:
                factor = [rng.randint(-20, 20), rng.randint(-5, 5), rng.choice([-2, 1, 3])]
            for _ in range(rng.choice([1, 1, 2, 3])):
                if len(poly) + len(factor) - 2 <= 12:
                    poly = _poly_mul(poly, factor)
        yield poly, roots


class TestIntegerAlgebra:
    POLYS = list(_integer_polys(300))

    def test_sweep_has_repeated_factors_and_rational_roots(self):
        repeated = sum(len(_ref_squarefree(p)) < len(p) for p, _ in self.POLYS)
        assert repeated > 100
        assert sum(bool(roots) for _, roots in self.POLYS) > 150
        assert max(len(p) for p, _ in self.POLYS) == 13

    def test_squarefree_part_matches_rational_reference(self):
        for p, _ in self.POLYS:
            assert _squarefree_chain(p)[0] == _ref_squarefree(p), p

    def test_sturm_chain_matches_rational_reference(self):
        for p, _ in self.POLYS:
            sf = _ref_squarefree(p)
            assert _squarefree_chain(sf) == _ref_sturm(sf), sf
            assert _squarefree_chain(p) == _ref_sturm(sf), p

    # integers, dyadic midpoints and non-dyadic rationals across the roots' range
    SIGN_POINTS = ([Fraction(k) for k in range(-13, 14)]
                   + [Fraction(2 * k + 1, 2**j) for j in (1, 3, 6) for k in range(-13, 13)]
                   + [Fraction(k, 7) for k in range(-91, 92, 4)])

    def test_scaled_eval_signs_match_rational_reference(self):
        def sign(v):
            return (v > 0) - (v < 0)

        for p, roots in self.POLYS:
            for x in self.SIGN_POINTS:
                assert sign(_scaled_eval(p, x)) == sign(_eval_poly(p, x)), (p, x)
            for root in roots:
                assert _eval_poly(p, root) == 0 and _scaled_eval(p, root) == 0, (p, root)


def _ref_root_counter(p):
    """(a, b) -> the roots of the square-free p in (a, b], by Sturm's theorem
    over the rational reference chain (zeros are skipped, so a may be a root)."""
    chain = _ref_sturm(p)

    def variations(x):
        signs = [v for v in (_eval_poly(m, x) for m in chain) if v != 0]
        return sum((u > 0) != (v > 0) for u, v in zip(signs, signs[1:]))

    return lambda a, b: variations(a) - variations(b)


def _grid_polys(n, seed=15):
    """Square-free integer polynomials to isolate on (lo, lo + 128): rational
    roots on the bisection grid of that range (some of them adjacent), a root
    at lo, and irrational roots close beside the grid roots."""
    rng = random.Random(seed)
    for _ in range(n):
        lo = Fraction(rng.randint(-4, 16))
        depth = rng.randint(2, 8)
        grid = set()
        for _ in range(rng.randint(1, 4)):
            j = rng.randint(1, 2**depth - 2)
            grid.add(lo + Fraction(128 * j, 2**depth))
            if rng.random() < 0.4:
                grid.add(lo + Fraction(128 * (j + 1), 2**depth))
        roots = sorted(grid) + ([lo] if rng.random() < 0.3 else [])
        poly = [1]
        for r in roots:
            poly = _poly_mul(poly, [-r.numerator, r.denominator])
        for r in rng.sample(sorted(grid), min(len(grid), rng.randint(0, 2))):
            # (D x - N)^2 - k with N/D = r: the roots r +- sqrt(k)/D
            d = 16 * r.denominator * rng.choice([1, 2, 4])
            nn, k = r.numerator * d // r.denominator, rng.choice([2, 3, 5, 7])
            poly = _poly_mul(poly, [nn * nn - k, -2 * d * nn, d * d])
        yield _ref_squarefree(poly), lo, lo + 128


class TestIsolationSweep:
    """``_isolate_roots`` against the rational reference only."""

    CASES = [(S, lo, hi, *_isolate_roots(_squarefree_chain(S), lo, hi))
             for S, lo, hi in _grid_polys(400)]

    def test_sweep_reaches_midpoint_roots_and_roots_at_lo(self):
        assert sum(len(exact) >= 2 for _, _, _, exact, _ in self.CASES) > 100
        assert sum(any(b - a <= 1 for a, b in zip(exact, exact[1:]))
                   for *_, exact, _ in self.CASES) > 10
        assert sum(any(a == lo for a, _ in intervals)
                   for _, lo, _, _, intervals in self.CASES) > 10
        assert sum(bool(exact) and bool(intervals) for *_, exact, intervals in self.CASES) > 100

    def test_exact_roots_and_intervals_are_certified(self):
        for S, lo, hi, exact, intervals in self.CASES:
            roots_in = _ref_root_counter(S)
            assert exact == sorted(set(exact))
            for r in exact:
                assert lo < r < hi and _eval_poly(S, r) == 0, (S, r)
            for (a, b), (c, _) in zip(intervals, intervals[1:]):
                assert b <= c, (S, intervals)
            for a, b in intervals:
                sa, sb = _eval_poly(S, a), _eval_poly(S, b)
                assert sa * sb < 0 or (sa == 0 and a == lo and sb != 0), (S, a, b)
                # one root in (a, b] and S(b) != 0: the closure holds no other
                # root, except a root at lo
                assert roots_in(a, b) == 1, (S, a, b)
            assert len(exact) + len(intervals) == roots_in(lo, hi), S

    def test_one_sturm_chain_per_call(self, monkeypatch):
        # The isolation bisects over the chain it is given and builds none.
        def forbidden(*args):
            raise AssertionError("the isolation built a remainder sequence")

        S, lo, hi, exact, intervals = max(self.CASES, key=lambda case: len(case[3]))
        chain = _squarefree_chain(S)
        for name in ("_squarefree_chain", "_pseudo_remainder"):
            monkeypatch.setattr(norms, name, forbidden)
        assert _isolate_roots(chain, lo, hi) == (exact, intervals)

    def test_chain_from_the_gcd_remainder_sequence(self):
        # For a square-free p (of either sign, with content) the Sturm chain
        # comes from the remainder sequence that found the constant gcd.
        for S, lo, hi, exact, intervals in self.CASES:
            for p in (S, [-c for c in S], [3 * c for c in S]):
                chain = _squarefree_chain(p)
                assert chain == _ref_sturm(S), p
                assert _isolate_roots(chain, lo, hi) == (exact, intervals), p

    def test_exact_path_runs_one_remainder_sequence(self, monkeypatch):
        # P = (x-3)(4x-11) is square-free and reaches the root isolation:
        # its chain is the gcd's sequence, so no second chain is built.
        calls = []
        chain = norms._squarefree_chain
        monkeypatch.setattr(norms, "_squarefree_chain", lambda p: calls.append(p) or chain(p))
        verdict = exact_dominates_powerq(PowerPartition(2, (0, 23)), PowerPartition(2, (33, 0, 4)))
        assert not verdict.holds and Fraction(11, 4) < verdict.failure_x < 3
        assert calls == [[33, -23, 4]]

    def test_refine_from_a_root_at_the_left_end(self):
        # (x-2)(10x-21) and its product with (x-20) on the isolating interval
        # (2, 14): S(2) = 0, and S is negative, then positive, just right of 2
        for S in ([42, -41, 10], _poly_mul([42, -41, 10], [-20, 1])):
            assert _isolate_roots(_squarefree_chain(S), Fraction(2), Fraction(14)) == (
                [], [(Fraction(2), Fraction(14))])
            a, b = _refine_root_interval(S, Fraction(2), Fraction(14), Fraction(1, 10**10))
            assert a < Fraction(21, 10) < b and b - a <= Fraction(1, 10**10)
            assert _eval_poly(S, a) * _eval_poly(S, b) < 0


class TestDecisionPathTakesIntegerSigns:
    """The exact path takes every sign from ``_scaled_eval``; the rational
    ``_eval_poly`` stays the independent reference of ``verify`` and the tests."""

    PAIRS = (
        # the two golden touch pairs: isolation, k = 1 checks, gap samples, refinement
        ((0, 3200, 240, 0, 24, 8), (6400, 0, 0, 320, 0, 0, 1), True),
        ((0, 5440, 0, 204), (6400, 0, 1636, 0, 9), True),
        # P = (x-2)(x-5): tight at q = 2 and negative just above it
        ((0, 7), (10, 0, 1), False),
        # P = -x^2 + 3x + 1: positive at q, leading coefficient negative
        ((0, 0, 1), (1, 3), False),
        # P = (x-4)^2 (x^2-8)^2: a midpoint hits the root 4, and the interval
        # of sqrt(8) is bisected until its closure is clear of it
        ((0, 512, 192, 0, 0, 8), (1024, 0, 0, 128, 0, 0, 1), True),
    )

    def test_exact_path_never_evaluates_in_fractions(self, monkeypatch):
        def forbidden(p, x):
            raise AssertionError("the exact path evaluated a polynomial in Fractions")

        monkeypatch.setattr(norms, "_eval_poly", forbidden)
        verdicts = [exact_dominates_powerq(PowerPartition(2, a), PowerPartition(2, b))
                    for a, b, _ in self.PAIRS]
        monkeypatch.undo()
        for (a, b, holds), verdict in zip(self.PAIRS, verdicts):
            assert verdict.holds is holds
            if not holds:
                P = profile_poly(PowerPartition(2, a), PowerPartition(2, b))
                assert _eval_poly(P, verdict.failure_x) < 0
        assert verdicts[-1].interior_equalities[-1].x_interval == (Fraction(4), Fraction(4))


def _tail_sums(P, q):
    """T_i = sum_{j >= i} P_j q**j for i = 0 .. deg P, summed term by term."""
    return [sum(c * q**j for j, c in enumerate(P) if j >= i) for i in range(len(P))]


def _supermajorized_pairs(n, seed=16):
    """Distinct same-base count pairs (lam, mu) on 1..24 levels, bases 2 and
    3, where mu is lam with some runs of q boxes merged into one box a level
    up, one level higher in a third of them, and a few boxes added: every
    tail sum of mu - lam is >= 0."""
    rng = random.Random(seed)
    for _ in range(n):
        q, levels = rng.choice((2, 3)), rng.randint(1, 23)
        lam = [rng.randint(0, 4) for _ in range(levels)]
        lam[-1] = max(lam[-1], 1)
        mu = lam + [0] * (rng.random() < 1 / 3)
        for _ in range(rng.randint(0, 3 * levels)):
            i = rng.randrange(len(mu) - 1) if len(mu) > 1 else 0
            if len(mu) > 1 and mu[i] >= q:
                mu[i] -= q
                mu[i + 1] += 1
        for _ in range(rng.choice((0, 0, 1, 3))):
            mu[rng.randrange(len(mu))] += 1
        while mu[-1] == 0:
            mu.pop()
        if mu != lam:
            yield PowerPartition(q, tuple(lam)), PowerPartition(q, tuple(mu))


class TestTailSumShortcut:
    """Pairs whose tail sums are all >= 0 are decided without root isolation."""

    CASES = [(lam, mu, profile_poly(lam, mu)) for lam, mu in _supermajorized_pairs(400)]

    @staticmethod
    def _one_negative_tail(lam, mu, P, k):
        """(lam, mu) with P_k lowered by d and P_(k-1) raised by d*q, so that
        T_k < 0 is the one negative tail sum."""
        q = lam.base
        d = _tail_sums(P, q)[k] // q**k + 1
        a, b = list(lam.counts), list(mu.counts)
        a += [0] * (len(b) - len(a))
        a[k] += d
        b[k - 1] += d * q
        while a[-1] == 0:
            a.pop()
        return PowerPartition(q, tuple(a)), PowerPartition(q, tuple(b))

    def test_sweep_covers_both_bases_and_both_tight_ends(self):
        for q in (2, 3):
            assert max(len(P) for lam, _, P in self.CASES if lam.base == q) == 24
        tight_q = [_eval_poly(P, lam.base) == 0 for lam, _, P in self.CASES]
        tight_inf = [len(lam.counts) == len(mu.counts) for lam, mu, _ in self.CASES]
        assert 50 < sum(tight_q) < len(self.CASES) - 50
        assert 50 < sum(tight_inf) < len(self.CASES) - 50
        assert sum(0 in _tail_sums(P, lam.base)[1:] for lam, _, P in self.CASES) > 50

    def test_supermajorized_pairs_hold_with_no_equality(self):
        for lam, mu, P in self.CASES:
            q = lam.base
            assert min(_tail_sums(P, q)) >= 0
            assert supermajorizes(from_base_counts(mu), from_base_counts(lam)).holds
            verdict = exact_dominates_powerq(lam, mu)
            assert verdict == norms.BulkVerdict(
                holds=True, tight_at_one=_eval_poly(P, q) == 0,
                tight_at_infinity=len(lam.counts) == len(mu.counts)), (lam, mu)

    def test_reference_isolation_finds_no_root(self):
        for lam, mu, P in self.CASES:
            q = Fraction(lam.base)
            assert _isolate_roots(_squarefree_chain(P), q, _positive_root_bound(P, q)) == ([], [])
            assert _eval_poly(P, q + 1) > 0

    def test_isolation_is_never_reached(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a supermajorized pair reached root isolation")

        for name in ("_isolate_roots", "_squarefree_chain"):
            monkeypatch.setattr(norms, name, forbidden)
        for lam, mu, _ in self.CASES:
            assert exact_dominates_powerq(lam, mu).holds

    NEGATIVE_TAIL = (
        # the two golden touch pairs
        (2, (0, 3200, 240, 0, 24, 8), (6400, 0, 0, 320, 0, 0, 1)),
        (2, (0, 5440, 0, 204), (6400, 0, 1636, 0, 9)),
        # catalyst-family pairs: P = x^2 - 3x + 3 and x^3 - 6x + 11 over base 2,
        # x^2 - 5x + 7 over base 3
        (2, (0, 3), (3, 0, 1)),
        (2, (0, 6), (11, 0, 0, 1)),
        (3, (0, 5), (7, 0, 1)),
    )

    def _isolations(self, monkeypatch, lam, mu):
        calls = []
        isolate = norms._isolate_roots
        monkeypatch.setattr(norms, "_isolate_roots",
                            lambda *args: calls.append(args) or isolate(*args))
        verdict = exact_dominates_powerq(lam, mu)
        monkeypatch.undo()
        return verdict, len(calls)

    def test_negative_tail_sum_isolates_once(self, monkeypatch):
        for q, a, b in self.NEGATIVE_TAIL:
            lam, mu = PowerPartition(q, a), PowerPartition(q, b)
            P = profile_poly(lam, mu)
            assert min(_tail_sums(P, q)) < 0 and _eval_poly(P, q) > 0 and P[-1] > 0
            verdict, calls = self._isolations(monkeypatch, lam, mu)
            assert verdict.holds and calls == 1, (a, b)

    def test_each_tail_sum_is_checked(self, monkeypatch):
        # for every base and every k below the top: a pair whose one negative
        # tail sum is T_k still goes to root isolation, once
        seen = set()
        for lam, mu, P in self.CASES:
            q = lam.base
            for k in range(1, len(P) - 1):
                if (q, k) in seen:
                    continue
                seen.add((q, k))
                lam_k, mu_k = self._one_negative_tail(lam, mu, P, k)
                P_k = profile_poly(lam_k, mu_k)
                assert [i for i, t in enumerate(_tail_sums(P_k, q)) if t < 0] == [k]
                verdict, calls = self._isolations(monkeypatch, lam_k, mu_k)
                assert calls == 1, (lam_k, mu_k)
                if not verdict.holds:
                    assert verdict.failure_x > q and _eval_poly(P_k, verdict.failure_x) < 0
        assert seen == {(q, k) for q in (2, 3) for k in range(1, 23)}


class TestExactPathMixedRoots:
    def _pair_for_poly(self, coeffs, base=2):
        # realize an integer polynomial as mu-counts minus lam-counts
        b = [max(c, 0) for c in coeffs]
        a = [max(-c, 0) for c in coeffs]
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
        return PowerPartition(base, tuple(a)), PowerPartition(base, tuple(b))

    def test_two_touch_roots_one_rational(self):
        # (x-3)^2 (x^2-10)^2 >= 0 everywhere: holds with two interior
        # equalities on (2, oo), at 3 and at sqrt(10)
        coeffs = [900, -600, -80, 120, -11, -6, 1]
        lam, mu = self._pair_for_poly(coeffs)
        verdict = exact_dominates_powerq(lam, mu)
        assert verdict.holds
        assert len(verdict.interior_equalities) == 2
        spots = sorted(float(sum(e.x_interval) / 2) for e in verdict.interior_equalities)
        assert abs(spots[0] - 3) < 1e-6 and abs(spots[1] - 10**0.5) < 1e-6

    def test_negative_gap_between_close_roots(self):
        # (x-3)(x^2-11) is negative exactly on (3, sqrt(11)), a gap of width
        # ~0.32 between a rational and an irrational crossing
        coeffs = [33, -11, -3, 1]
        lam, mu = self._pair_for_poly(coeffs)
        verdict = exact_dominates_powerq(lam, mu)
        assert not verdict.holds
        x = verdict.failure_x
        assert x is not None and 3 < x < Fraction(3317, 1000)
        assert _eval_poly(coeffs, x) < 0

    def test_one_pass_classifies_the_roots(self, monkeypatch):
        # Every sweep polynomial as a base-2 pair, against the rational
        # reference: a failure point is negative, and a pair that holds after
        # root isolation reports each root of P in (2, oo) once, with P > 0
        # in every gap between the reported roots.
        isolated = []
        isolate = norms._isolate_roots
        monkeypatch.setattr(norms, "_isolate_roots",
                            lambda *args: isolated.append(args) or isolate(*args))
        reached = gap_failures = 0
        for P, _ in _integer_polys(300):
            isolated.clear()
            verdict = exact_dominates_powerq(*self._pair_for_poly(P))
            if not verdict.holds:
                assert _eval_poly(P, verdict.failure_x) < 0, P
            if not isolated:
                continue
            reached += 1
            if not verdict.holds:
                gap_failures += 1
                continue
            S = _ref_squarefree(P)
            roots_in = _ref_root_counter(S)
            above_every_root = 1 + max(abs(Fraction(c, S[-1])) for c in S)
            spans = [e.x_interval for e in verdict.interior_equalities]
            assert len(spans) == roots_in(Fraction(2), above_every_root), P
            for (_, b), (c, _) in zip(spans, spans[1:]):
                assert b <= c, P
            for a, b in spans:
                if a == b:
                    assert a > 2 and _eval_poly(P, a) == 0, P
                else:
                    assert roots_in(a, b) == 1 and _eval_poly(S, b) != 0, (P, a, b)
            ends = [Fraction(2), *(x for span in spans for x in span), above_every_root]
            for lo, hi in zip(ends[::2], ends[1::2]):
                assert _eval_poly(P, (lo + hi) / 2) > 0, (P, lo, hi)
        assert reached > 50 and gap_failures > 10
