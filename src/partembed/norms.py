"""l_s norms and the dominance decision "norm(lam, s) <= norm(mu, s) for all s".

The comparand is the signed multiplicity profile n_v = mult_mu(v) - mult_lam(v),
whose exponential sum

    f(s) = sum_v n_v * v**s

has the same sign as norm(mu, s) - norm(lam, s) at every s.  Dominance over
all of [1, oo] therefore reduces to f >= 0 on [1, oo).

Two decision paths are provided.  The numeric path samples f in very high
precision on a provably sufficient interval [1, s_max], which must end
inside the float range, and refines sign changes and near-zero minima.  One
pass steps its grid by multiplication (v**(s + h) = v**s * v**h) at a
precision sized from the grid's reach in s * ln v, and bounds f from below
on each grid interval by Abel summation of the prefix sums
W_i = sum_{j <= i} n_j v_j**s against the weights v**(s' - s), the
partial-sum form of Laguerre's rule of signs; where f(1) = 0 keeps that
bound at or below 0 on the first interval, the same sum over the terms
n_v v ln v bounds f' there instead.  A grid minimum whose bracket is bounded
above twice the failure band is not refined, as its refinement could
neither fail nor report a hint.  For
partitions whose entries are powers of one base q the substitution x = q**s
turns f into an integer polynomial P(x), and dominance on [q, oo) is decided
exactly.  The tail sums T_i = sum_{j >= i} P_j q**j are
the tail differences of the profile (q**i, P_i), which ``failing_threshold``
sweeps as it does for ``orders.supermajorizes``.  If every T_i is >= 0 (mu
supermajorizes lam), Abel summation against the increasing weights (x/q)**j
gives P(x) = T_0 + sum_{i >= 1} T_i ((x/q)**i - (x/q)**(i-1)),
which is > 0 for x > q unless every T_i, and so P, is 0: dominance holds with
no interior equality, and nothing is isolated.  Otherwise the square-free
part and the Sturm chain are pseudo-remainder sequences in integers (one
sequence gives both when P is square-free), and every sign taken at a
rational point n/d (root isolation, gap sign samples that tell touch roots
from crossings) is the sign of the integer d**deg * P(n/d).  The roots are
isolated by one bisection over one Sturm chain: a rational root met at a
midpoint is reported exactly, and nothing is divided out.  One pass over the
sorted roots then samples the gap below each root, fails on a negative
sample, and otherwise certifies the root as an interior equality point by
its isolating interval; numeric equality points are only flagged, never
trusted as refutations.  ``stablep.Pair`` picks the path for a pair.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Iterable

from .core import (
    BaseMismatch,
    InvalidExponent,
    Partition,
    PartitionError,
    PowerPartition,
    integer_root,
)

if TYPE_CHECKING:
    import mpmath

# mpmath is imported inside the numeric functions only, so the embedding and
# exact paths never load it.

INF = math.inf

# Working precision for the numeric path; the tangential cases need well over
# double precision to stay resolvable.
_PRECISION_BITS = 120
# Samples of f on the capped search interval; local minima among them are refined.
_GRID = 64
# A near-zero refined minimum is an equality hint only past s = 1 + _HINT_GAP.
_HINT_GAP = 1e-9


def power_sum(a: Partition, s: int) -> int:
    """Exact sum of entries raised to the integer power s >= 1."""
    if isinstance(s, bool) or not isinstance(s, int) or s < 1:
        raise InvalidExponent(f"power_sum needs an integer s >= 1, got {s!r}")
    return sum(e**s for e in a.entries)


def p_norm(a: Partition, s):
    """The l_s norm of a partition, for s in [1, oo].

    Integer s: the power sum is computed exactly and the exact integer root
    is returned when it exists; otherwise a high-precision real (relative
    error well below 2**-60).  s = math.inf returns the max entry.
    """
    import mpmath

    if s == INF:
        return a.max_entry
    if isinstance(s, bool):
        raise InvalidExponent(f"exponent {s!r} is not a number >= 1")
    if isinstance(s, int):
        if s < 1:
            raise InvalidExponent(f"exponent {s} must be >= 1")
        total = power_sum(a, s)
        root = integer_root(total, s)
        if root**s == total:
            return root
        with mpmath.workprec(_PRECISION_BITS):
            return mpmath.power(mpmath.mpf(total), mpmath.mpf(1) / s)
    s_frac = Fraction(s) if isinstance(s, Fraction) else Fraction(str(float(s)))
    if s_frac < 1:
        raise InvalidExponent(f"exponent {s!r} must be >= 1")
    with mpmath.workprec(_PRECISION_BITS):
        sm = mpmath.mpf(s_frac.numerator) / s_frac.denominator
        total = mpmath.fsum(mpmath.power(e, sm) for e in a.entries)
        return mpmath.power(total, 1 / sm)


@dataclass(frozen=True)
class NormProfile:
    """Signed multiplicity map value -> mult_mu(value) - mult_lam(value).

    Zero coefficients are absent; iteration order is by decreasing value.
    """

    coefficients: tuple[tuple[int, int], ...]

    def f1(self) -> int:
        """Exact f(1) = total(mu) - total(lam)."""
        return sum(n * v for v, n in self.coefficients)

    def f_exact(self, s: int) -> int:
        """Exact integer f(s) for integer s >= 1."""
        if isinstance(s, bool) or not isinstance(s, int) or s < 1:
            raise InvalidExponent(f"f_exact needs an integer s >= 1, got {s!r}")
        return sum(n * v**s for v, n in self.coefficients)

    def f_mpf(self, s) -> mpmath.mpf:
        """High-precision f(s) for real s, at ``_PRECISION_BITS`` bits."""
        import mpmath

        with mpmath.workprec(_PRECISION_BITS):
            return mpmath.fsum(n * mpmath.power(v, s) for v, n in self.coefficients)

    def stepped_grid(self, span) -> tuple[list, list]:
        """f(s_k) at the ``_GRID`` points s_k = 1 + k*h, h = span / (_GRID - 1),
        and a lower bound L_k of f on each interval [s_k, s_{k+1}], as raw mpf
        values (``_mpf_`` tuples).

        Each v**h is one exp, and each term n v**s_{k+1} is n v**s_k * v**h.
        The relative error of a stepped v**s_k is about s_k times the error
        of ln v, so everything is carried at prec = ``_PRECISION_BITS`` + 10 +
        max(0, bits(m (1 + span) ln v_1) - 60) bits, each ln v taken at prec:
        the stepped values stay within 2**-60 sum |n| v_1**s_k of f, and
        while m (1 + span) ln v_1 < 2**60 prec is 130 bits, the precision at
        which ``mpmath.power`` takes ln v for ``f_mpf``.  With
        v_1 > ... > v_m the values and W_i = sum_{j <= i} n_j v_j**s_k the
        prefix sums, Abel summation against the weights w_j = v_j**(s - s_k),
        which are >= 1 and do not increase with j, gives
        f(s) = W_m + sum_{i <= m} W_i (w_i - w_{i+1}) with w_{m+1} = 1.  On
        the interval each w_i - w_{i+1} lies in [0, v_i**h - v_{i+1}**h], so
        L_k = W_m + sum_{W_i < 0} W_i (v_i**h - v_{i+1}**h) - margin, with
        v_{m+1}**h = 1 (``_abel_sum``).  The margin, 2**-_PRECISION_BITS *
        sum |n| * v_1**s_{k+1} * (2**10 + m * (1 + (1 + span) ln v_1)),
        covers the rounding of the steps, of the sums and of ``f_mpf`` on
        the interval (each of its ln v has 130 bits); it is formed in mpf,
        rounded up, as (1 + span) ln v_1 can pass the float range.  L_k > 0
        forces W_m = f(s_k) > 0.

        A pair tight at s = 1 has f(1) = 0, so L_0 <= 0.  Where L_0 <= 0,
        the same Abel sum at s = 1 over the terms n v ln v, less the margin
        on [1, s_1] times ln v_1 (each term is a term n v times
        ln v <= ln v_1), is a lower bound L' of f' on [1, s_1], and
        f(s) >= f(1) + (s - 1) L' there: f >= f(1) + gap L' past 1 + gap,
        gap = ``_HINT_GAP`` <= h, when L' >= 0, else f >= f(1) + h L'.  That
        bound, less the margin and rounded down, replaces L_0 where it is
        higher, so L_0 bounds f and ``f_mpf`` on [1 + gap, s_1].
        """
        import mpmath

        lib = mpmath.libmp
        rnd, up, down = lib.round_nearest, lib.round_up, lib.round_floor
        add, mul, sub = lib.mpf_add, lib.mpf_mul, lib.mpf_sub
        values = [lib.from_int(v) for v, _ in self.coefficients]
        reach = mul(add(span._mpf_, lib.fone, 53, up), lib.mpf_log(values[0], 53, up), 53, up)
        spread = lib.mpf_mul_int(reach, len(values), 53, up)  # m (1 + span) ln v_1
        prec = _PRECISION_BITS + 10 + max(0, spread[2] + spread[3] - 60)
        h = lib.mpf_div(span._mpf_, lib.from_int(_GRID - 1), _PRECISION_BITS, rnd)
        logs = [lib.mpf_log(v, prec, rnd) for v in values]
        steps = [lib.mpf_exp(mul(h, ln_v), prec, rnd) for ln_v in logs]
        drops = [sub(a, b, prec, rnd) for a, b in zip(steps, steps[1:] + [lib.fone])]
        mass = sum(abs(n) for _, n in self.coefficients)
        slack = add(spread, lib.from_int(len(values) + 2**10), 53, up)
        margin = lib.mpf_shift(lib.mpf_mul_int(slack, mass, 53, up), -_PRECISION_BITS)
        at_one = terms = [lib.from_int(n * v) for v, n in self.coefficients]
        top = values[0]  # v_1**s_{k+1}
        fs, lows = [], []
        for k in range(_GRID):
            total, low = _abel_sum(terms, drops, prec)
            fs.append(total)
            if k == _GRID - 1:
                break
            terms = [mul(term, r, prec, rnd) for term, r in zip(terms, steps)]
            top = mul(top, steps[0], prec, rnd)
            lows.append(sub(low, mul(margin, top, prec, rnd), prec, rnd))
        if lib.mpf_le(lows[0], lib.fzero):
            terms = [mul(term, ln_v, prec, rnd) for term, ln_v in zip(at_one, logs)]
            edge = mul(margin, mul(values[0], steps[0], prec, up), prec, up)
            slope = sub(_abel_sum(terms, drops, prec)[1], mul(edge, logs[0], prec, up), prec, down)
            width = h if slope[0] else lib.from_float(_HINT_GAP)
            low = add(lib.from_int(self.f1()), mul(width, slope, prec, down), prec, down)
            low = sub(low, edge, prec, down)
            if lib.mpf_gt(low, lows[0]):
                lows[0] = low
        return fs, lows


def _abel_sum(terms: list, drops: list, prec: int) -> tuple:
    """(W_m, W_m + sum_{W_i < 0} W_i * drops_i) for the prefix sums W_i of
    ``terms``, raw mpf values at ``prec``: with each drop the greatest growth
    of w_i - w_{i+1} over an interval, a lower bound there of the Abel sum
    W_m + sum_i W_i (w_i - w_{i+1}) (``NormProfile.stepped_grid``)."""
    import mpmath

    lib = mpmath.libmp
    add, mul, rnd = lib.mpf_add, lib.mpf_mul, lib.round_nearest
    total = low = lib.fzero
    for term, drop in zip(terms, drops):
        total = add(total, term, prec, rnd)
        if total[0]:  # a negative prefix sum
            low = add(low, mul(total, drop, prec, rnd), prec, rnd)
    return total, add(total, low, prec, rnd)


def norm_profile(lam: Partition, mu: Partition) -> NormProfile:
    """Coefficient extraction for f(s); identical partitions give an empty map."""
    coeff: dict[int, int] = {}
    for e in mu.entries:
        coeff[e] = coeff.get(e, 0) + 1
    for e in lam.entries:
        coeff[e] = coeff.get(e, 0) - 1
    items = tuple((v, n) for v, n in sorted(coeff.items(), reverse=True) if n != 0)
    return NormProfile(items)


def failing_threshold(coefficients: Iterable[tuple[int, int]]) -> int | None:
    """The smallest integer x whose tail difference sum_{v >= x} n * v is
    negative, or None, for (v, n) pairs in decreasing v; pairs with n = 0 are
    allowed.  A tail failing at v fails down to just above the next v, or to 1."""
    tail = 0
    failing_x = None
    for v, n in coefficients:
        if tail < 0:
            failing_x = v + 1
        tail += n * v
    if tail < 0:
        failing_x = 1
    return failing_x


def tail_threshold(P: list[int], q: int) -> int | None:
    """``failing_threshold`` of the profile (q**i, P_i) of a power-of-q pair
    whose profile polynomial is P."""
    return failing_threshold(reversed([(q**i, c) for i, c in enumerate(P) if c]))


@dataclass(frozen=True)
class EqualityPoint:
    """A point s in (1, oo) where the two norms agree.

    ``exact`` is True only when the point was certified by rational root
    isolation, in which case ``x_interval`` is an isolating interval for
    x = base**s and contains the root exactly once.
    """

    s: float
    exact: bool
    x_interval: tuple[Fraction, Fraction] | None = None
    base: int | None = None


@dataclass(frozen=True)
class BulkVerdict:
    holds: bool
    failure_exponent: float | None = None
    # Exact rational witness x = q**s with P(x) < 0, when the exact path fails.
    failure_x: Fraction | None = None
    interior_equalities: tuple[EqualityPoint, ...] = ()
    tight_at_one: bool = False
    tight_at_infinity: bool = False


# Bits of the largest power v**s the s -> oo failure search takes exactly;
# past it the search goes on at _PRECISION_BITS.
_EXACT_POWER_BITS = 2**14


def _default_tol(profile: NormProfile) -> Fraction:
    """The numeric path's band: f below -tol fails, and a minimum with
    |f| <= tol is reported as an equality hint."""
    top = profile.coefficients[0][0] if profile.coefficients else 1
    scale = abs(profile.f1()) + sum(abs(n) for _, n in profile.coefficients) * top
    return Fraction(1, 10**12) * max(1, scale)


class BeyondFloatRange(PartitionError):
    """The numeric bulk path's search interval would pass the float range."""


def dominates_all_s(lam: Partition, mu: Partition) -> BulkVerdict:
    """Decide f(s) >= 0 on [1, oo) numerically.

    s = 1 and the top-coefficient sign (the s -> oo behaviour) are checked
    exactly; the search interval is then capped at the point s_max beyond
    which the top term provably dominates (where s_max is not a finite float,
    a supermajorized pair holds and any other raises BeyondFloatRange),
    sampled on ``_GRID`` points by ``NormProfile.stepped_grid``, and local
    minima are refined by ``_refine_minimum``, except where the grid's lower
    bound on each interval of the minimum's bracket exceeds 2 tol: there
    every value the refinement would see is above tol, so it could neither
    fail nor report a hint, and it is skipped.  On the first interval that
    bound holds past 1 + ``_HINT_GAP``, where hints start.  Near-zero minima
    are reported as interior equalities with ``exact=False``; they are
    hints, not certificates.  A failure at s = 1, or as s -> oo at an s where
    v**s stays under ``_EXACT_POWER_BITS`` bits, is found in exact integer
    arithmetic, without loading mpmath.
    """
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
        # mu's largest entry is exceeded or outweighed: f(s) -> -oo, so some
        # power of 2 has f(s) < 0.  Exact while the powers stay small.
        s = 2
        while s * top_v.bit_length() <= _EXACT_POWER_BITS and profile.f_exact(s) >= 0:
            s *= 2
        if s * top_v.bit_length() > _EXACT_POWER_BITS:
            import mpmath

            with mpmath.workprec(_PRECISION_BITS):
                while profile.f_mpf(s) >= 0:
                    s *= 2
        return verdict(holds=False, failure_exponent=float(s))
    if len(profile.coefficients) == 1:
        # Single positive term: f > 0 everywhere.
        return verdict(holds=True)

    import mpmath

    v2 = profile.coefficients[1][0]
    coeff_mass = sum(abs(n) for _, n in profile.coefficients)
    # Beyond s_max, top_v**s exceeds coeff_mass * v2**s, which bounds all other terms.
    gap = math.log(top_v) - math.log(v2)
    if gap == 0.0:
        # Close large values whose logarithms round to the same float.
        gap = math.log1p((top_v - v2) / v2)
    s_max = 1.0 + math.log(max(2, coeff_mass)) / gap if gap else INF
    if s_max == INF:
        # Abel summation of the tail sums against the increasing weights
        # v**(s - 1) gives f > 0 on (1, oo) for a supermajorized pair that is
        # not identical.  Read here only: reading it on every pair skips most
        # grids, and waits for a bench whose memory does not grow per query.
        if failing_threshold(profile.coefficients) is None:
            return verdict(holds=True)
        raise BeyondFloatRange("the numeric bulk path cannot decide this pair: its search interval "
                               f"would end past s = {sys.float_info.max:.4g}, the largest float")

    tol = _default_tol(profile)
    with mpmath.workprec(_PRECISION_BITS):
        tol_m = mpmath.mpf(tol.numerator) / tol.denominator
        if f1 == 0:
            # f(1) = 0 with f decreasing at 1 dips negative before the first
            # grid sample; the derivative settles it without sampling.
            d1 = mpmath.fsum(n * v * mpmath.log(v) for v, n in profile.coefficients)
            if d1 < -tol_m:
                s = mpmath.mpf(1) + mpmath.mpf("1e-3")
                while profile.f_mpf(s) >= 0:
                    s = 1 + (s - 1) / 2
                return verdict(holds=False, failure_exponent=float(s))
        one, span = mpmath.mpf(1), mpmath.mpf(s_max) - 1

        def grid(i):
            # Formed only where a point is printed or bounds a refinement.
            return one + span * i / (_GRID - 1)

        lib = mpmath.libmp
        fail_below, skip_above = lib.mpf_neg(tol_m._mpf_), lib.mpf_shift(tol_m._mpf_, 1)
        fs, lows = profile.stepped_grid(span)
        for i, y in enumerate(fs):
            if lib.mpf_lt(y, fail_below):
                return verdict(holds=False, failure_exponent=float(grid(i)))

        last = _GRID - 1
        minima = [i for i in range(_GRID) if (i == 0 or lib.mpf_le(fs[i], fs[i - 1]))
                  and (i == last or lib.mpf_le(fs[i], fs[i + 1]))]
        equalities: list[EqualityPoint] = []
        for i in minima:
            if all(lib.mpf_gt(low, skip_above) for low in lows[max(0, i - 1):i + 1]):
                continue  # f > 2 tol on the bracket: no failure, no hint
            s_min, f_min = _refine_minimum(profile, grid(max(0, i - 1)), grid(min(last, i + 1)))
            if f_min < -tol_m:
                return verdict(holds=False, failure_exponent=float(s_min))
            if abs(f_min) <= tol_m and s_min > 1 + _HINT_GAP:
                equalities.append(EqualityPoint(s=float(s_min), exact=False))

        return verdict(holds=True, interior_equalities=tuple(_dedupe_equalities(equalities)))


def _refine_minimum(profile: NormProfile, lo, hi):
    """Golden-section minimization of f on [lo, hi]."""
    import mpmath

    gr = (mpmath.sqrt(5) - 1) / 2
    a, b = mpmath.mpf(lo), mpmath.mpf(hi)
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = profile.f_mpf(c), profile.f_mpf(d)
    width = mpmath.mpf("1e-9")
    for _ in range(140):
        if b - a < width:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = profile.f_mpf(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = profile.f_mpf(d)
    s = (a + b) / 2
    return s, profile.f_mpf(s)


def _dedupe_equalities(points: list[EqualityPoint]) -> list[EqualityPoint]:
    out: list[EqualityPoint] = []
    for p in sorted(points, key=lambda e: e.s):
        if out and abs(out[-1].s - p.s) < 1e-6:
            continue
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# Exact decision for power-of-q partitions: P(x) = sum (b_i - a_i) x^i on [q, oo)
# ---------------------------------------------------------------------------
# Dense little-endian coefficient lists; [] is the zero polynomial.


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _eval_poly(p: list, x):
    """p(x) in the arithmetic of x: the plain reference certificates are
    checked with; the decision path takes its signs from ``_scaled_eval``."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _scaled_eval(p: list[int], x: Fraction) -> int:
    """d**deg(p) * p(n/d) for x = n/d, d > 0: the sign of p(x), and 0 exactly
    where p(x) is 0, by a homogeneous Horner loop over plain integers."""
    n, d = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * n + c * scale
        scale *= d
    return acc


def _deriv(p: list) -> list:
    return _trim([i * c for i, c in enumerate(p)][1:])


def _primitive_keep_sign(p: list[int]) -> list[int]:
    """Divide by the positive content only (sign pattern must survive)."""
    g = math.gcd(*p) or 1
    return [c // g for c in p]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of the remainder of a by the nonzero b over
    the rationals: with lc(b) > 0 (negating b keeps the remainder), each step
    scales r by lc(b) / gcd(lc(r), lc(b)) > 0, then cancels its top term."""
    if b[-1] < 0:
        b = [-c for c in b]
    lb = b[-1]
    r = list(a)
    while len(r) >= len(b):
        g = math.gcd(r[-1], lb)
        f, m = r[-1] // g, lb // g
        r = [m * c for c in r]
        shift = len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        r.pop()
        _trim(r)
    return r


def _exact_quotient(num: list[int], den: list[int]) -> list[int] | None:
    """num / den over the integers, or None when den does not divide num (a
    primitive divisor over the rationals divides over the integers: Gauss)."""
    num = list(num)
    quot = [0] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den):
        f, rest = divmod(num[-1], den[-1])
        if rest:
            return None
        shift = len(num) - len(den)
        quot[shift] = f
        for i, c in enumerate(den):
            num[shift + i] -= f * c
        num.pop()
    return None if any(num) else quot


def _squarefree_chain(p: list[int]) -> list[list[int]]:
    """The Sturm chain of S = p / gcd(p, p'), whose first member is S,
    primitive with positive leading coefficient.

    The gcd comes from a primitive pseudo-remainder sequence of p and p'
    (Collins 1967).  When it is constant, p is square-free and that sequence
    is its Sturm chain up to signs: the chain's member k is -rem(k-2, k-1),
    the sequence's is +rem, and ``_pseudo_remainder`` is odd in its first
    argument and even in its second, so the signs repeat +, +, -, - along the
    chain, all flipped when p's leading coefficient is negative.  Otherwise
    the chain is that of the square-free quotient p / gcd, whose own sequence
    ends in a constant.
    """
    seq = [_primitive_keep_sign(p), _primitive_keep_sign(_deriv(p))]
    while seq[-1]:
        seq.append(_primitive_keep_sign(_pseudo_remainder(seq[-2], seq[-1])))
    seq.pop()
    gcd = seq[-1]
    if len(gcd) > 1:
        quot = _exact_quotient(p, gcd)
        if quot is None:
            raise AssertionError("gcd does not divide its polynomial")
        return _squarefree_chain(quot)
    negate = p[-1] < 0 if p else False
    return [[-c for c in m] if (k % 4 > 1) != negate else m for k, m in enumerate(seq)]


def _variations(values: Iterable) -> int:
    count = 0
    prev = 0
    for v in values:
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _isolate_roots(chain: list[list[int]], lo: Fraction, hi: Fraction):
    """Isolate the real roots of the square-free S = chain[0] inside the open
    (lo, hi), given S's Sturm chain (``_squarefree_chain``); ``hi`` must lie
    strictly above every root of S.

    One bisection over the chain.  At a root c of a square-free S the sign
    variations V(c) equal those just right of c, so V(a) - V(b) counts the
    roots in (a, b] even when a or b is a root.
    Returns (exact_roots, intervals): the rational roots hit at bisection
    midpoints, and disjoint open intervals (a, b) with one simple root each
    and no other root of S in their closure, where S(b) != 0 and S(a) has the
    opposite sign or a is the root lo.  So every point of an interval-free
    gap other than lo is provably not a root.
    """
    S = chain[0]

    def signs_at(x: Fraction) -> list[int]:
        return [_scaled_eval(p, x) for p in chain]

    exact: set[Fraction] = set()
    intervals: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, _variations(signs_at(lo)), _variations(signs_at(hi)))]
    while stack:
        a, b, va, vb = stack.pop()
        k = va - vb - (b in exact)  # roots in the open (a, b)
        if k == 0:
            continue
        if k == 1 and a not in exact and b not in exact:
            if _scaled_eval(S, a) * _scaled_eval(S, b) > 0:
                raise AssertionError("isolated interval without sign change")
            intervals.append((a, b))
            continue
        mid = (a + b) / 2
        at_mid = signs_at(mid)
        if at_mid[0] == 0:
            exact.add(mid)
        vm = _variations(at_mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    return sorted(exact), sorted(intervals)


def _refine_root_interval(S: list[int], a: Fraction, b: Fraction, width: Fraction):
    """Shrink an isolating interval of S by bisection to the requested width.

    Signs are compared against S(b), which is never 0: a may be the root q."""
    sb = _scaled_eval(S, b)
    while b - a > width:
        mid = (a + b) / 2
        sm = _scaled_eval(S, mid)
        if sm == 0:
            return mid, mid
        if (sb > 0) == (sm > 0):
            b = mid
        else:
            a = mid
    return a, b


_EQUALITY_INTERVAL_WIDTH = Fraction(1, 10**10)


def profile_poly(lam: PowerPartition, mu: PowerPartition) -> list[int]:
    """P(x) = sum_i (b_i - a_i) x^i for same-base count vectors a (lam), b (mu)."""
    a, b = lam.counts, mu.counts
    coeffs = [0] * max(len(a), len(b))
    for i, c in enumerate(b):
        coeffs[i] += c
    for i, c in enumerate(a):
        coeffs[i] -= c
    return _trim(coeffs)


def exact_dominates_powerq(lam: PowerPartition, mu: PowerPartition) -> BulkVerdict:
    """Exact dominance decision for two same-base power partitions.

    With x = q**s the comparand becomes the integer polynomial
    P(x) = sum_i (b_i - a_i) x^i, to be checked >= 0 on [q, oo).  The check
    is exact: sign at q, tail sums, leading sign, root isolation in (q, oo),
    then one pass over the sorted roots.  Tail sums sum_{j >= i} P_j q**j all
    >= 0 (an empty P too), swept by ``failing_threshold``, give P > 0 on
    (q, oo) by Abel summation, so the pair holds with no touch point.  The
    pass samples P in the gap below each root, failing at the first negative
    sample, and refines each root's isolating interval: the roots of a
    nonnegative P are touch points and come back as exact interior
    equalities.
    """
    if lam.base != mu.base:
        raise BaseMismatch(f"bases differ: {lam.base} vs {mu.base}")
    q = lam.base
    P = profile_poly(lam, mu)
    q_f = Fraction(q)
    p_at_q = _scaled_eval(P, q_f)
    # tight at oo: the same top box, or both sides empty
    verdict = partial(BulkVerdict, tight_at_one=p_at_q == 0,
                      tight_at_infinity=len(lam.counts) == len(mu.counts))
    if p_at_q < 0:
        return verdict(holds=False, failure_exponent=1.0, failure_x=q_f)
    if tail_threshold(P, q) is None:
        return verdict(holds=True)
    if P[-1] < 0:
        x = q_f + 1
        while _scaled_eval(P, x) >= 0:
            x *= 2
        return verdict(holds=False, failure_exponent=_s_of(x, q), failure_x=x)
    if p_at_q == 0:
        # Sign of P just above q from the first nonvanishing derivative.
        d = list(P)
        while True:
            d = _deriv(d)
            val = _scaled_eval(d, q_f)
            if val != 0:
                break
        if val < 0:
            eps = Fraction(1, 2)
            while _scaled_eval(P, q_f + eps) >= 0:
                eps /= 2
            x = q_f + eps
            return verdict(holds=False, failure_exponent=_s_of(x, q), failure_x=x)

    chain = _squarefree_chain(P)
    S = chain[0]
    exact_roots, intervals = _isolate_roots(chain, q_f, _positive_root_bound(P, q_f))

    # Exact roots are point intervals.  P's sign is constant between roots, so
    # one root-free sample of the gap below each root tells touch roots from
    # crossings: the gap's midpoint below a point, an interval's lower end
    # (past every earlier root) below an interval.  A sample at q is skipped,
    # as P(q) > 0 or the derivative check certified the gap above q, and the
    # gap above the last root is positive, as P[-1] > 0.
    equalities = []
    gap_lo = q_f
    for a, b in sorted([(r, r) for r in exact_roots] + intervals):
        w = (gap_lo + a) / 2 if a == b else a
        if w > q_f:
            val = _scaled_eval(P, w)
            if val == 0:
                raise AssertionError("gap sample hit a root")
            if val < 0:
                return verdict(holds=False, failure_exponent=_s_of(w, q), failure_x=w)
        gap_lo = b
        if a < b:
            a, b = _refine_root_interval(S, a, b, _EQUALITY_INTERVAL_WIDTH)
        equalities.append(EqualityPoint(s=_s_of((a + b) / 2, q), exact=True,
                                        x_interval=(a, b), base=q))
    return verdict(holds=True, interior_equalities=tuple(equalities))


def _s_of(x: Fraction, q: int) -> float:
    return math.log(float(x)) / math.log(q)


def _positive_root_bound(P: list[int], lo: Fraction) -> Fraction:
    """A rational strictly above every real root of P and above lo."""
    lead = abs(P[-1])
    bound = 1 + max(abs(c) for c in P) // lead + 1
    return max(Fraction(bound), lo + 1)
