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
a catalyst of the pair as given, so only that pair's products are built and
embedded.  The iteration need not terminate: it halts exactly on the stable
pairs, so the step budget produces honest UNKNOWN verdicts, never fabricated
ones.

Refutations come from prefilters, each with a re-checkable certificate:
failed norm dominance, an exactly certified interior norm equality point for
a pair that is not identical, a top-box-index gap after normalization, and a
valuation gap under tight packing (equal totals force every product bin to
be filled exactly, which is impossible when some prime divides every lam
entry more often than every mu entry), checked on the pair as given and, for
a power-of-q pair, on the normalized pair.

This module owns the per-pair pipeline: ``relations`` and ``stable_embeds``
decide a pair's common power base, its direct embedding and its bulk verdict
once each, and every relation (and the CLI's ``conjecture-scan``) reads the
same decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    BaseMismatch,
    ContractViolation,
    EmptyPartition,
    Partition,
    PartitionError,
    PowerPartition,
    common_power_base,
    from_base_counts,
    from_entries,
    product,
    to_base_counts,
)
from .norms import BulkVerdict, EqualityPoint, bulk_verdict, profile_poly, \
    _eval_poly, _squarefree_part
from .orders import (
    DEFAULT_NODE_BUDGET,
    EmbeddingWitness,
    decide_embed,
    embed_powerq,
    supermajorizes,
)

HOLDS = "HOLDS"
FAILS = "FAILS"
UNKNOWN = "UNKNOWN"

BULK_FAILS = "BulkFails"
NORM_EQUALITY = "NormEquality"
TOP_INDEX = "TopIndexRule"
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
    top_lam: int | None = None
    top_mu: int | None = None
    prime: int | None = None
    lam_valuation: int | None = None
    mu_valuation: int | None = None

    def verify(self, lam: Partition, mu: Partition) -> bool:
        """Recheck the certificate against the pair it refutes."""
        if self.rule == BULK_FAILS:
            if self.bulk is None or self.bulk.holds:
                return False
            if self.bulk.failure_x is not None and self.base is not None:
                P = profile_poly(to_base_counts(lam, self.base), to_base_counts(mu, self.base))
                return _eval_poly(P, self.bulk.failure_x) < 0
            return not bulk_verdict(lam, mu, self.base).holds
        if self.rule == NORM_EQUALITY:
            if lam == mu or self.equality is None or not self.equality.exact:
                return False
            if self.equality.x_interval is None or self.base is None:
                return False
            xa, xb = self.equality.x_interval
            q = self.base
            if xa < q or xb < xa:
                return False
            P = profile_poly(to_base_counts(lam, q), to_base_counts(mu, q))
            if xa == xb:
                return _eval_poly(P, xa) == 0
            S = _squarefree_part(P)
            if xa == q and _eval_poly(S, Fraction(q)) == 0:
                return False
            return _eval_poly(S, xa) * _eval_poly(S, xb) < 0
        if self.rule == TOP_INDEX:
            normalized = self._normalized(lam, mu)
            return normalized is not None and normalized[1].top_index < normalized[0].top_index
        if self.rule == TIGHT_VALUATION:
            if self.prime is None or self.prime < 2 or lam.total != mu.total:
                return False
            if self.base is None:
                g_lam, g_mu = math.gcd(*lam.entries), math.gcd(*mu.entries)
            else:
                normalized = self._normalized(lam, mu)
                if normalized is None:
                    return False
                g_lam, g_mu = map(_lowest_box, normalized)
            v_l = _valuation(g_lam, self.prime)
            v_m = _valuation(g_mu, self.prime)
            return v_l == self.lam_valuation and v_m == self.mu_valuation and v_l > v_m
        return False

    def _normalized(self, lam: Partition, mu: Partition):
        """The pair normalized in ``base``, or None when there is no base, a
        side is not a power-of-base partition or a side cancels away."""
        if self.base is None:
            return None
        try:
            lt, mt = normalize_pair(to_base_counts(lam, self.base), to_base_counts(mu, self.base))
        except PartitionError:
            return None
        return None if lt.is_empty or mt.is_empty else (lt, mt)


@dataclass(frozen=True)
class StableVerdict:
    status: str
    witness: StableWitness | None = None
    reason: StableRefutation | None = None
    budget_spent: int = 0
    detail: str | None = None


def _valuation(n: int, r: int) -> int:
    if n == 0:
        return 0
    v = 0
    while n % r == 0:
        n //= r
        v += 1
    return v


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def normalize_pair(lam: PowerPartition, mu: PowerPartition) -> tuple[PowerPartition, PowerPartition]:
    """Cancel the common box count at every level.

    Afterwards at most one side holds boxes at each level; either side may
    come out empty (everything cancelled), which downstream logic treats as
    trivially stable.  Stability of the pair is unchanged by this.
    """
    if lam.base != mu.base:
        raise BaseMismatch(f"bases differ: {lam.base} vs {mu.base}")
    a = list(lam.counts)
    b = list(mu.counts)
    for i in range(min(len(a), len(b))):
        d = min(a[i], b[i])
        a[i] -= d
        b[i] -= d
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    return PowerPartition(lam.base, tuple(a)), PowerPartition(lam.base, tuple(b))


def prefilter_stable(lam: Partition, mu: Partition) -> StableRefutation | None:
    """Refutation rules, applied in order; None when no rule fires.

    (a) stability needs full norm dominance; (b) an exactly certified interior
    norm equality with lam != mu is fatal; (c) after normalization lam's top
    box may not outrank mu's; (d) under tight packing (equal totals) a prime
    dividing every lam entry strictly more often than every mu entry is fatal,
    because every product bin would have to be filled exactly by pieces that
    carry more of that prime than the bin does; for a power-of-q pair where
    the given pair shows no gap, (d) is applied to the normalized pair and
    its certificate records ``base``.
    """
    base = common_power_base(lam, mu)
    return _refute(lam, mu, base, bulk_verdict(lam, mu, base))


def _refute(lam: Partition, mu: Partition, base: int | None,
            bulk: BulkVerdict) -> StableRefutation | None:
    """The rules of ``prefilter_stable``, given the pair's common power base
    (or None) and its bulk verdict."""
    if not bulk.holds:
        return StableRefutation(BULK_FAILS, bulk=bulk, base=base)
    if lam != mu:
        for eq in bulk.interior_equalities:
            if eq.exact:
                return StableRefutation(NORM_EQUALITY, bulk=bulk, equality=eq, base=base)
    normalized = None
    if base is not None:
        lt, mt = normalize_pair(to_base_counts(lam, base), to_base_counts(mu, base))
        if not lt.is_empty and not mt.is_empty:
            if mt.top_index < lt.top_index:
                return StableRefutation(TOP_INDEX, base=base,
                                        top_lam=lt.top_index, top_mu=mt.top_index)
            normalized = lt, mt
    if lam.total == mu.total:
        ref = _valuation_gap(math.gcd(*lam.entries), math.gcd(*mu.entries))
        if ref is None and normalized is not None:
            # Common boxes can hide the gap (a shared unit box makes both
            # gcds 1); the normalized pair is as stable as the given one.
            ref = _valuation_gap(*map(_lowest_box, normalized), base=base)
        return ref
    return None


def _valuation_gap(g_lam: int, g_mu: int, base: int | None = None) -> StableRefutation | None:
    """The tight-valuation rule on the entry gcds of a pair of equal totals;
    ``base`` is set when the gcds are those of the normalized pair."""
    for r in _prime_factors(g_lam):
        v_l = _valuation(g_lam, r)
        v_m = _valuation(g_mu, r)
        if v_l > v_m:
            return StableRefutation(TIGHT_VALUATION, base=base, prime=r,
                                    lam_valuation=v_l, mu_valuation=v_m)
    return None


def _lowest_box(pp: PowerPartition) -> int:
    """The smallest box of a nonempty power partition, which is also the gcd
    of its entries."""
    return pp.base ** next(i for i, c in enumerate(pp.counts) if c)


def construct_nu(lam: PowerPartition, mu: PowerPartition,
                 max_steps: int | None = None) -> StableVerdict:
    """Build the catalyst for a prefiltered power-of-q pair.

    The common box counts are cancelled first and the iteration runs on the
    normalized pair; the witness embeds the products of the given pair.
    Different bases raise BaseMismatch.  Preconditions on the normalized pair
    (violations raise ContractViolation): mu nonempty whenever lam is, and
    mu's top box index not below lam's.  A pair that cancels down to an empty
    lam gets the trivial catalyst [1].  The verdict is HOLDS with a validated
    witness, or UNKNOWN when ``max_steps`` (default 64*(n+m+2)) runs out; the
    iteration halts exactly on stable pairs, so slow halting and divergence
    cannot be told apart within a budget.
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

    def run_pass(c0: int, pass_index: int):
        c = [c0]
        leftover = bm * c0  # unused top boxes, in units of the level just below them
        zeros = 0
        steps = 0
        while zeros < run_stop:
            if steps >= max_steps:
                return None, steps
            steps += 1
            t = len(c)
            level = m - t
            demand = 0
            for i in range(n + 1):
                k = i - level
                if 0 <= k < t:
                    demand += a[i] * c[k]
            room = q * leftover
            for j in range(m):
                k = j - level
                if 0 <= k < t:
                    room += b[j] * c[k]
            if demand > room:
                ct = -((room - demand) // bm)  # ceil((demand - room) / bm)
                leftover = 0
            else:
                ct = 0
                leftover = room - demand
            c.append(ct)
            zeros = zeros + 1 if ct == 0 else 0
            log.append(StepRecord(pass_index, t, demand, room, ct, leftover))
        while c and c[-1] == 0:
            c.pop()
        return c, steps

    spent = 0
    first, steps1 = run_pass(1, 1)
    spent += steps1
    if first is None:
        return StableVerdict(UNKNOWN, None, None, spent,
                             detail="iteration budget exhausted in the first pass")
    scale = len(first)
    second, steps2 = run_pass(bm**scale, 2)
    spent += steps2
    if second is None:
        return StableVerdict(UNKNOWN, None, None, spent,
                             detail="iteration budget exhausted in the second pass")
    # The scaled pass may stop earlier than the first; its own last nonzero
    # coefficient sets the catalyst's span.
    top = len(second) - 1
    for k, ck in enumerate(second):
        e = scale - k
        if e > 0 and ck % bm**e:
            raise RuntimeError(
                f"internal error: divisibility of coefficient {k} by top count^{e} failed")

    # second[k] counts boxes of nominal size q^-k; scaling by q^top makes them
    # integral: counts[i] boxes of size q^i with counts[i] = second[top - i].
    nu_pp = PowerPartition(q, tuple(second[top - i] for i in range(top + 1)))
    nu = from_base_counts(nu_pp)
    prod_l = product(from_base_counts(lam), nu)
    prod_m = product(from_base_counts(mu), nu)
    w = embed_powerq(to_base_counts(prod_l, q), to_base_counts(prod_m, q))
    if w is None:
        raise RuntimeError("internal error: stop rule fired without product dominance")
    return StableVerdict(HOLDS, StableWitness(nu, w, tuple(log)), None, spent)


def nu_order_compare(u: PowerPartition, v: PowerPartition) -> int:
    """Catalyst quality order: span length first, then count ratios.

    The key is scale-free: multiplying all counts or shifting every box up a
    level leaves it unchanged.  Returns -1, 0, or 1.
    """
    if u.base != v.base:
        raise BaseMismatch(f"bases differ: {u.base} vs {v.base}")
    if u.is_empty or v.is_empty:
        raise EmptyPartition("catalyst order needs nonempty operands")
    ku = _nu_key(u)
    kv = _nu_key(v)
    if ku < kv:
        return -1
    if ku > kv:
        return 1
    return 0


def _nu_key(pp: PowerPartition):
    counts = pp.counts
    first = next(i for i, c in enumerate(counts) if c)
    span = len(counts) - first
    ratios = tuple(Fraction(counts[first + k], counts[first]) for k in range(1, span))
    return span, ratios


def stable_embeds(lam: Partition, mu: Partition, *,
                  node_budget: int = DEFAULT_NODE_BUDGET,
                  max_steps: int | None = None) -> StableVerdict:
    """Tri-state stable-embeddability decision.

    Fast path: a direct embedding gives HOLDS with the trivial catalyst [1].
    Then the refutation prefilters run, and for common-power-base pairs the
    catalyst construction; pairs with no common base come back UNKNOWN since
    no decision procedure is available for them.
    """
    base = common_power_base(lam, mu)
    witness, embed_unknown = decide_embed(lam, mu, base, node_budget)
    if witness is not None:
        return _embeds_directly(witness)
    return _stable_given(lam, mu, base, bulk_verdict(lam, mu, base), embed_unknown, max_steps)


def _embeds_directly(witness: EmbeddingWitness) -> StableVerdict:
    return StableVerdict(HOLDS, StableWitness(from_entries([1]), witness), None, 0)


def _stable_given(lam: Partition, mu: Partition, base: int | None, bulk: BulkVerdict,
                  embed_unknown: bool, max_steps: int | None) -> StableVerdict:
    """Stable verdict for a pair with no direct embedding, given its common
    power base (or None), its bulk verdict and whether the direct embedding
    search ran out of budget: the refutation rules, then for a power-of-q
    pair the catalyst construction, whose witness is already the pair's."""
    ref = _refute(lam, mu, base, bulk)
    if ref is not None:
        return StableVerdict(FAILS, None, ref, 0)
    if base is None:
        detail = "no common power base, so no catalyst construction applies"
        if embed_unknown:
            detail += "; the direct embedding search also hit its budget"
        return StableVerdict(UNKNOWN, None, None, 0, detail=detail)
    return construct_nu(to_base_counts(lam, base), to_base_counts(mu, base), max_steps)


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


def relations(lam: Partition, mu: Partition, *,
              node_budget: int = DEFAULT_NODE_BUDGET,
              max_steps: int | None = None) -> RelationReport:
    """Compute all four relations and enforce the implication diagram.

    The common power base, the direct embedding and the bulk verdict are
    decided once and shared by every relation; power-of-q pairs take the
    exact paths for embedding and bulk.  BudgetExceeded is reported as an
    undecided field, never raised.  Diagram violations (embeds without
    supermajorization, and so on) are internal errors and raise RuntimeError.
    """
    base = common_power_base(lam, mu)
    witness, emb_unknown = decide_embed(lam, mu, base, node_budget)
    emb = None if emb_unknown else witness is not None
    sup = supermajorizes(mu, lam)
    bulk = bulk_verdict(lam, mu, base)
    if witness is not None:
        stable = _embeds_directly(witness)
    else:
        stable = _stable_given(lam, mu, base, bulk, emb_unknown, max_steps)

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
        base=base,
    )
