"""Stable embeddability: does some catalyst nu make lam x nu embed in mu x nu?

For power-of-q pairs the catalyst is constructed level by level.  After
cancelling common box counts (normalization, which leaves stability
unchanged), the iteration walks box sizes downward, at each size comparing
the demand from lam's side with the room on mu's side; whenever demand
exceeds room, the next nu coefficient is topped up by a ceiling division
against mu's top box count, otherwise the surplus is carried down (times q)
as leftover M.  Once the trailing coefficients are all zero for long enough
that no future demand can appear, the iteration has proved level-by-level
dominance of the products and stops.  A second pass with the first
coefficient scaled to (top count)^(N+1), N the last index of the first pass,
makes every division exact; it may stop earlier than the first, and its own
coefficients, scaled to an integral partition, are the catalyst.  It is also
a catalyst of the pair as given, so only that pair's products are built, as
count vectors (convolutions of the counts), and embedded, unless either would
hold more than ``MAX_PRODUCT_BOXES`` boxes: the witness lists one bin per box,
so such a catalyst answers UNKNOWN and names its box count.  A halt gives a
catalyst, so the iteration halts only on stable pairs, but not on every one:
base 2 [0,1,4,2,4] / [4,4,0,3,0,2] is stable with nu = [7,10,0,0,9], yet its
first pass still runs after 100,000 steps.  So the step budget produces
honest UNKNOWN verdicts, never fabricated ones, and UNKNOWN does not mean
unstable.

Refutations come from prefilters, each with a re-checkable certificate:
failed norm dominance, an exactly certified interior norm equality point for
a pair that is not identical, and a valuation gap under tight packing (equal
totals force every product bin to be filled exactly, which is impossible when
some prime divides every lam entry more often than every mu entry), checked
on the pair as given and, for a power-of-q pair, on the normalized pair.

This module owns the per-pair pipeline: a ``Pair`` computes each fact of a
pair once, on first use, and every relation (``Pair.report``, ``Pair.stable``,
``Pair.refutation`` and the CLI's ``check`` and ``conjecture-scan``) reads
them from one ``Pair``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from operator import mul

from .core import (
    BaseMismatch,
    ContractViolation,
    Partition,
    PartitionError,
    PowerPartition,
    _power_exponent,
    common_power_base,
    count_product,
    from_base_counts,
    from_entries,
    to_base_counts,
)
from .norms import BulkVerdict, EqualityPoint, _EXACT_POWER_BITS, _PRECISION_BITS, _eval_poly, \
    _trim, dominates_all_s, exact_dominates_powerq, norm_profile, profile_poly, \
    tail_threshold
from .orders import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    EmbeddingWitness,
    Supermajorization,
    embed_powerq,
    embeds,
    supermajorizes,
)

HOLDS = "HOLDS"
FAILS = "FAILS"
UNKNOWN = "UNKNOWN"

# Most boxes that either catalyst product may hold, the same as the CLI's limit
# on a count document; a larger catalyst answers UNKNOWN.
MAX_PRODUCT_BOXES = 10**6

BULK_FAILS = "BulkFails"
NORM_EQUALITY = "NormEquality"
TIGHT_VALUATION = "TightValuation"


@dataclass(frozen=True)
class StepRecord:
    """One iteration step: coefficient index decided, demand, room, result."""

    pass_index: int = field(metadata={"key": "pass"})
    step: int
    demand: int
    room: int
    coefficient: int
    leftover: int


@dataclass(frozen=True)
class StableWitness:
    nu: Partition
    embedding: EmbeddingWitness
    construction_log: tuple[StepRecord, ...] = ()


@dataclass(frozen=True)
class StableRefutation:
    """A checkable certificate that no catalyst can exist."""

    rule: str
    bulk: BulkVerdict | None = None
    equality: EqualityPoint | None = None
    base: int | None = None
    # No rule sets these two; every refutation document still prints them.
    top_lam: int | None = None
    top_mu: int | None = None
    prime: int | None = None
    lam_valuation: int | None = None
    mu_valuation: int | None = None

    def verify(self, lam: Partition, mu: Partition) -> bool:
        """Recheck the certificate against the pair it refutes, without
        deciding the pair again: BulkFails by the sign of f at its own failure
        point, in exact arithmetic or in a 240-bit interval enclosure.  A rule
        that names ``base`` reads the pair's profile polynomial in it, and is
        False for a pair outside that base."""
        if self.rule == BULK_FAILS:
            if self.bulk is None or self.bulk.holds:
                return False
            x = self.bulk.failure_x
            if x is not None and self.base is not None:
                # x = q**s, and the orders say nothing below s = 1.
                P = self._profile(lam, mu)
                return x >= self.base and P is not None and _eval_poly(P, x) < 0
            s = self.bulk.failure_exponent
            profile = norm_profile(lam, mu)
            if s is None or not 1 <= s < math.inf or not profile.coefficients:
                return False
            if s == int(s) and s * profile.coefficients[0][0].bit_length() <= _EXACT_POWER_BITS:
                return profile.f_exact(int(s)) < 0
            from mpmath import iv

            prec, iv.prec = iv.prec, 2 * _PRECISION_BITS
            try:  # f enclosed at the exact binary value of s
                return sum(n * iv.mpf(v) ** iv.mpf(s) for v, n in profile.coefficients).b < 0
            finally:
                iv.prec = prec
        if self.rule == NORM_EQUALITY:
            if lam == mu or self.equality is None or not self.equality.exact:
                return False
            if self.equality.x_interval is None:
                return False
            xa, xb = self.equality.x_interval
            q = self.base
            P = self._profile(lam, mu)
            if P is None or xa < q or xb < xa:
                return False
            if xa == xb:
                return _eval_poly(P, xa) == 0
            S = _squarefree(P)
            if xa == q and _eval_poly(S, Fraction(q)) == 0:
                return False
            return _eval_poly(S, xa) * _eval_poly(S, xb) < 0
        if self.rule == TIGHT_VALUATION:
            if self.prime is None or self.prime < 2 or lam.total != mu.total:
                return False
            if self.base is None:
                g_lam, g_mu = math.gcd(*lam.entries), math.gcd(*mu.entries)
            else:
                gcds = _normalized_gcds(self._profile(lam, mu), self.base)
                if gcds is None:
                    return False
                g_lam, g_mu = gcds
            v_l = _valuation(g_lam, self.prime)
            v_m = _valuation(g_mu, self.prime)
            return v_l == self.lam_valuation and v_m == self.mu_valuation and v_l > v_m
        return False

    def _profile(self, lam: Partition, mu: Partition) -> list[int] | None:
        """The profile polynomial P of the pair in ``base``, or None when there
        is no base (``to_base_counts`` rejects None) or a side is not a
        power-of-base partition."""
        try:
            return profile_poly(to_base_counts(lam, self.base), to_base_counts(mu, self.base))
        except PartitionError:
            return None


@dataclass(frozen=True)
class StableVerdict:
    status: str
    witness: StableWitness | None = None
    reason: StableRefutation | None = None
    budget_spent: int = 0
    detail: str | None = None


def _divmod_poly(num: list, den: list) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of num by the nonzero den, over the rationals."""
    num = [Fraction(c) for c in num]
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den):
        shift = len(num) - len(den)
        f = quot[shift] = num[-1] / den[-1]
        for i, c in enumerate(den):
            num[shift + i] -= f * c
        _trim(num)
    return quot, num


def _squarefree(P: list[int]) -> list[Fraction]:
    """A rational multiple of P / gcd(P, P') for a nonzero P, by Euclid's
    algorithm over the rationals: the NormEquality check shares no code with
    the integer pseudo-remainder sequences that the exact path decides with."""
    a, b = P, [i * c for i, c in enumerate(P)][1:]
    while b:
        a, b = b, _divmod_poly(a, b)[1]
    return _divmod_poly(P, a)[0]


def _valuation(n: int, r: int) -> int:
    v = 0
    while n % r == 0:
        n //= r
        v += 1
    return v


def normalize_pair(lam: PowerPartition, mu: PowerPartition) -> tuple[PowerPartition, PowerPartition]:
    """Cancel the common box count at every level: lam keeps max(-P_i, 0)
    boxes at level i and mu max(P_i, 0), the sign split of the profile
    polynomial P = ``profile_poly(lam, mu)``.  Either side may come out empty
    (everything cancelled), which downstream logic treats as trivially stable.
    Stability is unchanged by this."""
    if lam.base != mu.base:
        raise BaseMismatch(f"bases differ: {lam.base} vs {mu.base}")
    P = profile_poly(lam, mu)
    return (PowerPartition(lam.base, _trim([-c if c < 0 else 0 for c in P])),
            PowerPartition(lam.base, _trim([c if c > 0 else 0 for c in P])))


def _valuation_gap(g_lam: int, g_mu: int, base: int | None = None) -> StableRefutation | None:
    """The tight-valuation rule on the entry gcds of a pair of equal totals;
    ``base`` is set when the gcds are those of the normalized pair.

    The rule fires iff d = g_lam / gcd(g_lam, g_mu) > 1.  ``prime`` is the
    smallest factor r >= 2 of d when trial division up to min(sqrt(d), 2**20)
    finds one, which is then prime, and otherwise d itself, which is prime
    whenever d < 2**40.  Either way v_r(g_lam) > v_r(g_mu): for r = d,
    d**k | g_mu gives d**(k + 1) | g_lam, since every prime of d divides
    g_lam that much more often than g_mu.
    """
    d = g_lam // math.gcd(g_lam, g_mu)
    if d == 1:
        return None
    r = next((k for k in range(2, min(math.isqrt(d), 2**20) + 1) if d % k == 0), d)
    return StableRefutation(TIGHT_VALUATION, base=base, prime=r,
                            lam_valuation=_valuation(g_lam, r), mu_valuation=_valuation(g_mu, r))


def _normalized_gcds(P: list[int] | None, base: int) -> tuple[int, int] | None:
    """The entry gcds of the normalized pair of the profile polynomial P in
    ``base``, whose lam keeps the levels where P < 0 and mu those where
    P > 0; None when P is None or either side is empty."""
    if not P or not min(P) < 0 < max(P):
        return None
    return (base ** next(i for i, c in enumerate(P) if c < 0),
            base ** next(i for i, c in enumerate(P) if c > 0))


def _lowest_box(pp: PowerPartition) -> int:
    """The smallest box of a nonempty power partition, which is also the gcd
    of its entries."""
    return pp.base ** next(i for i, c in enumerate(pp.counts) if c)


def _entries(side: Partition | PowerPartition) -> Partition:
    """A side of a pair as its entry list, a count vector expanded."""
    return from_base_counts(side) if isinstance(side, PowerPartition) else side


def _spread(pp: PowerPartition, r: int) -> PowerPartition:
    """``pp`` in base r, for a base r**k: level i moves to level i*k.  A
    vector of unit boxes only is the same in every base."""
    if pp.base == r:
        return pp
    if len(pp.counts) == 1:
        return PowerPartition(r, pp.counts)
    k = _power_exponent(pp.base, r)
    counts = [0] * (k * (len(pp.counts) - 1) + 1)
    counts[::k] = pp.counts
    return PowerPartition(r, tuple(counts))


def construct_nu(lam: PowerPartition, mu: PowerPartition,
                 max_steps: int | None = None) -> StableVerdict:
    """Build the catalyst for a prefiltered power-of-q pair.

    The common box counts are cancelled first and the iteration runs on the
    normalized pair; the witness embeds the products of the given pair.
    Different bases raise BaseMismatch.  Preconditions on the normalized pair
    (violations raise ContractViolation): mu nonempty whenever lam is, and
    mu's top box index not below lam's.  A pair that cancels down to an empty
    lam gets the trivial catalyst [1].  The verdict is HOLDS with a validated
    witness, or UNKNOWN when ``max_steps`` (default 64*(n+m+2)) runs out or
    when a product would hold more than ``MAX_PRODUCT_BOXES`` boxes.  The
    iteration halts only on stable pairs, but some stable pairs never halt it,
    and slow halting and divergence cannot be told apart within a budget.

    With bm = mu's top box count and S the first pass's length, every
    ceiling division of the second pass at a step t <= S is exact, by
    induction on t: c_k is a multiple of bm**(S - k) for k < t and the
    leftover before step t is a multiple of bm**(S - t + 2).  Both hold at
    t = 1, as c_0 = bm**S and the first leftover is bm**(S + 1).  Demand
    and room at step t take only c_k with k < t and q times the leftover, so
    demand - room is a multiple of bm**(S - t + 1); the new coefficient
    (demand - room) / bm is a multiple of bm**(S - t), or it is 0 and the
    new leftover room - demand is a multiple of bm**(S - t + 1).
    """
    lt, mt = normalize_pair(lam, mu)
    q = lam.base
    if lt.is_empty:
        return StableVerdict(HOLDS, StableWitness(from_entries([1]), embed_powerq(lam, mu)),
                             None, 0)
    if mt.is_empty:
        raise ContractViolation("lam has boxes but mu has none; prefilter should have refuted")
    a = lt.counts
    b = mt.counts
    n = len(a) - 1
    m = len(b) - 1
    if m < n:
        raise ContractViolation("lam's top box outranks mu's; prefilter should have refuted")
    bm = b[m]
    i_min = next(i for i, c in enumerate(a) if c)
    if max_steps is None:
        max_steps = 64 * (n + m + 2)
    # The demand at any level looks back at the last (m - i_min) coefficients,
    # so a zero run of that length can never wake up again.
    run_stop = max(n, m - i_min, 1)
    log: list[StepRecord] = []
    spent = 0
    c: list[int] = []
    for pass_index, pass_name in enumerate(("first", "second"), 1):
        c = [bm ** len(c)]  # 1, then bm**S
        leftover = bm * c[0]  # unused top boxes, in units of the level just below them
        zeros = 0
        steps = 0
        while zeros < run_stop:
            if steps >= max_steps:
                return StableVerdict(UNKNOWN, None, None, spent + steps,
                                     detail=f"iteration budget exhausted in the {pass_name} pass")
            steps += 1
            t = len(c)
            # Step t meets c_k at the level m - t + k, for the levels 0 .. m - 1.
            low = max(m - t, 0)
            demand = sum(map(mul, a[low:m], c[low - m + t:]))
            room = q * leftover + sum(map(mul, b[low:m], c[low - m + t:]))
            if demand > room:
                ct = -((room - demand) // bm)  # ceil((demand - room) / bm)
                leftover = 0
            else:
                ct = 0
                leftover = room - demand
            c.append(ct)
            zeros = zeros + 1 if ct == 0 else 0
            log.append(StepRecord(pass_index, t, demand, room, ct, leftover))
        spent += steps
        while c[-1] == 0:
            c.pop()

    # The second pass's c[k] counts boxes of nominal size q^-k.  It may stop
    # earlier than the first; its own last index, top, sets the catalyst's
    # span, and scaling by q^top makes the boxes integral: counts[i] boxes of
    # size q^i with counts[i] = c[top - i].
    nu_pp = PowerPartition(q, tuple(c[::-1]))
    boxes = max(lam.box_count, mu.box_count) * nu_pp.box_count
    if boxes > MAX_PRODUCT_BOXES:
        return StableVerdict(UNKNOWN, None, None, spent,
                             detail=f"the catalyst products would hold {boxes} boxes, "
                                    f"more than the limit of {MAX_PRODUCT_BOXES}")
    w = embed_powerq(count_product(lam, nu_pp), count_product(mu, nu_pp))
    if w is None:
        raise RuntimeError("internal error: stop rule fired without product dominance")
    return StableVerdict(HOLDS, StableWitness(from_base_counts(nu_pp), w, tuple(log)), None, spent)


@dataclass(frozen=True)
class Pair:
    """A pair (lam, mu) and the facts its relations share, each computed on
    first use and kept.  A pair with a common power base takes the exact paths
    on its count vectors: the greedy embedding, the exact bulk decision and
    the catalyst construction; any other pair the budgeted search and the
    numeric bulk path.

    Each side is a Partition or a nonempty PowerPartition.  A pair with a base
    is decided on its count vectors and reads entries only from its entry-list
    sides: ``common_power_base`` reads a count vector's base, ``counts``
    spreads a count vector into the pair's base and counts an entry list, and
    supermajorization and the valuation gcds come from the counts.  A count
    vector is expanded, once, only by a path that reads ``partitions``: a
    pair with no common base, ``check --base`` and the scan's identical-pair
    test."""

    lam: Partition | PowerPartition
    mu: Partition | PowerPartition
    node_budget: int = DEFAULT_NODE_BUDGET
    max_steps: int | None = None

    @cached_property
    def partitions(self) -> tuple[Partition, Partition]:
        """Both sides as entry lists, a count vector expanded on first use."""
        return _entries(self.lam), _entries(self.mu)

    @cached_property
    def base(self) -> int | None:
        """The smallest common power base, or None."""
        return common_power_base(self.lam, self.mu)

    @cached_property
    def counts(self) -> tuple[PowerPartition, PowerPartition] | None:
        """Both sides as count vectors in ``base``, or None without a base."""
        if self.base is None:
            return None
        return tuple([_spread(side, self.base) if isinstance(side, PowerPartition)
                      else to_base_counts(side, self.base) for side in (self.lam, self.mu)])

    @cached_property
    def profile(self) -> list[int] | None:
        """The profile polynomial P of the count vectors, or None without a
        base."""
        return None if self.counts is None else profile_poly(*self.counts)

    @cached_property
    def embedding(self) -> tuple[EmbeddingWitness | None, bool]:
        """Embedding witness or None, plus a flag set when the search ran out
        of ``node_budget`` (never for a power-of-q pair)."""
        if self.counts is not None:
            return embed_powerq(*self.counts), False
        try:
            return embeds(*self.partitions, self.node_budget), False
        except BudgetExceeded:
            return None, True

    @cached_property
    def sup(self) -> Supermajorization:
        """mu supermajorizes lam; for a pair with a base, by one tail-sum
        sweep of the profile (q**i, P_i)."""
        if self.counts is not None:
            failing_x = tail_threshold(self.profile, self.base)
            return Supermajorization(failing_x is None, failing_x)
        lam, mu = self.partitions
        return supermajorizes(mu, lam)

    @cached_property
    def bulk(self) -> BulkVerdict:
        if self.counts is not None:
            return exact_dominates_powerq(*self.counts)
        return dominates_all_s(*self.partitions)

    @cached_property
    def refutation(self) -> StableRefutation | None:
        """The first refutation rule that fires, or None.

        (a) stability needs full norm dominance; (b) an exactly certified
        interior norm equality with lam != mu is fatal; (c) under tight
        packing (equal totals) a prime dividing every lam entry strictly more
        often than every mu entry is fatal, because every product bin would
        have to be filled exactly by pieces that carry more of that prime than
        the bin does; for a power-of-q pair where the given pair shows no gap,
        (c) is applied to the normalized pair and its certificate records
        ``base``.  A normalized lam whose top box outranks mu's refutes too,
        but (a) implies it: normalization leaves P unchanged and at most one
        side holding boxes at each level, so P's leading coefficient is then
        negative and the exact bulk decision fails.
        """
        base, bulk = self.base, self.bulk
        if not bulk.holds:
            return StableRefutation(BULK_FAILS, bulk=bulk, base=base)
        # An identical pair has an empty profile and so no interior equality.
        for eq in bulk.interior_equalities:
            if eq.exact:
                return StableRefutation(NORM_EQUALITY, bulk=bulk, equality=eq, base=base)
        if not bulk.tight_at_one:  # f(1) = total(mu) - total(lam) != 0
            return None
        if self.counts is None:
            return _valuation_gap(*(math.gcd(*side.entries) for side in self.partitions))
        ref = _valuation_gap(*map(_lowest_box, self.counts))
        if ref is None and (gcds := _normalized_gcds(self.profile, base)) is not None:
            # Common boxes can hide the gap (a shared unit box makes both
            # gcds 1); the normalized pair is as stable as the given one.
            ref = _valuation_gap(*gcds, base=base)
        return ref

    @cached_property
    def catalyst(self) -> StableVerdict:
        """Stable verdict without the direct embedding: the refutation rules,
        then for a power-of-q pair the catalyst construction, whose witness is
        already the pair's."""
        if self.refutation is not None:
            return StableVerdict(FAILS, None, self.refutation, 0)
        if self.counts is None:
            return StableVerdict(UNKNOWN, None, None, 0,
                                 detail="no common power base, so no catalyst construction applies")
        return construct_nu(*self.counts, self.max_steps)

    @cached_property
    def stable(self) -> StableVerdict:
        """A direct embedding gives HOLDS with the trivial catalyst [1];
        otherwise the ``catalyst`` verdict."""
        witness, undecided = self.embedding
        if witness is not None:
            return StableVerdict(HOLDS, StableWitness(from_entries([1]), witness), None, 0)
        if undecided and self.refutation is None:
            return replace(self.catalyst, detail=f"{self.catalyst.detail}; the direct embedding "
                                                 "search also hit its budget")
        return self.catalyst

    def report(self) -> RelationReport:
        """All four relations, with the implication diagram enforced.

        BudgetExceeded is reported as an undecided field, never raised.
        Diagram violations (embeds without supermajorization, and so on) are
        internal errors and raise RuntimeError.
        """
        witness, emb_unknown = self.embedding
        emb = None if emb_unknown else witness is not None
        sup, bulk, stable = self.sup, self.bulk, self.stable

        if emb is True:
            if not sup.holds:
                raise RuntimeError("implication violated: embeds but not supermajorized")
            if stable.status == FAILS:
                raise RuntimeError("implication violated: embeds but stable=FAILS")
        if sup.holds and not bulk.holds:
            raise RuntimeError("implication violated: supermajorized but not bulk")
        if stable.status == HOLDS and not bulk.holds:
            raise RuntimeError("implication violated: stable holds but not bulk")

        return RelationReport(
            embeds=emb,
            embed_witness=witness,
            supermajorized=sup.holds,
            supermajorization_failing_x=sup.failing_x,
            stable=stable,
            bulk=bulk,
            base=self.base,
        )


@dataclass
class RelationReport:
    """All four relations for one pair, with certificates.

    ``embeds`` is None when the exact search ran out of budget; every other
    field is always decided (stable may be UNKNOWN with its own budget note).
    """

    embeds: bool | None
    embed_witness: EmbeddingWitness | None
    supermajorized: bool
    supermajorization_failing_x: int | None
    stable: StableVerdict
    bulk: BulkVerdict
    base: int | None = None
