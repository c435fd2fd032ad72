"""Re-check every answer the program printed, outside the timed region.

The documents are decoded here from their documented JSON layout rather than
with the CLI's own parsers, so the check keeps working when the CLI's codec is
rewritten and does not trust the code it checks.  Witnesses are re-validated
and certificates re-verified through the library's public ``validate`` and
``verify`` methods; supermajorization and exact bulk failure points are
re-derived independently.
"""

from __future__ import annotations

import json
from fractions import Fraction

from partembed import (
    BulkVerdict,
    EmbeddingWitness,
    EqualityPoint,
    PowerPartition,
    StableRefutation,
    from_base_counts,
    from_entries,
    product,
)

EXIT_CODES = {"HOLDS": 0, "FAILS": 1, "UNKNOWN": 2}


def partition(doc: dict):
    if "entries" in doc:
        return from_entries(doc["entries"])
    counts = list(doc["counts"])
    while counts and counts[-1] == 0:
        counts.pop()
    return from_base_counts(PowerPartition(doc["base"], tuple(counts)))


def _witness(d: dict) -> EmbeddingWitness:
    return EmbeddingWitness(tuple(d["assignment"]), tuple(d["loads"]))


def _equality(d: dict) -> EqualityPoint:
    interval = d.get("x_interval")
    return EqualityPoint(s=d["s"], exact=d["exact"], base=d.get("base"),
                         x_interval=(Fraction(interval[0]), Fraction(interval[1]))
                         if interval else None)


def _bulk(d: dict) -> BulkVerdict:
    return BulkVerdict(
        holds=d["holds"],
        failure_exponent=d["failure_exponent"],
        failure_x=Fraction(d["failure_x"]) if d.get("failure_x") else None,
        interior_equalities=tuple(_equality(e) for e in d["interior_equalities"]),
        tight_at_one=d["tight_at_one"],
        tight_at_infinity=d["tight_at_infinity"],
    )


def _refutation(d: dict) -> StableRefutation:
    return StableRefutation(
        rule=d["rule"],
        bulk=_bulk(d["bulk"]) if d.get("bulk") else None,
        equality=_equality(d["equality"]) if d.get("equality") else None,
        **{k: d.get(k) for k in ("base", "top_lam", "top_mu", "prime",
                                 "lam_valuation", "mu_valuation")},
    )


def _tail_sums_dominate(mu, lam) -> tuple[bool, int | None]:
    """Supermajorization from its definition: the smallest failing threshold.

    Tail sums only change just above an entry value, so the integer
    thresholds 1 and v + 1 for every value v cover every case, and the first
    failure among them is the smallest failing integer.
    """
    for x in sorted({1} | {v + 1 for v in set(lam) | set(mu)}):
        if sum(e for e in mu if e >= x) < sum(e for e in lam if e >= x):
            return False, x
    return True, None


def _profile(lam, mu, base: int) -> list[int]:
    """Coefficients of P(x) = sum over entries v of (mult_mu(v) - mult_lam(v)) * x**log_base(v)."""
    by_level = {}
    for sign, side in ((1, mu), (-1, lam)):
        for v in side:
            k = 0
            while v > 1:
                v //= base
                k += 1
            by_level[k] = by_level.get(k, 0) + sign
    coeffs = [by_level.get(k, 0) for k in range(max(by_level, default=-1) + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _sign_at(coeffs: list[int], x: Fraction) -> int:
    """Sign of P(x), from the integer d**deg * P(n / d) by Horner's rule."""
    n, d = x.numerator, x.denominator
    acc, d_power = 0, 1
    for i, c in enumerate(reversed(coeffs)):
        if i:
            d_power *= d
        acc = acc * n + c * d_power
    return (acc > 0) - (acc < 0)


def _bulk_problems(lam, mu, base: int, report: dict) -> list[str]:
    """Check a power-of-base bulk report against the profile P(x), x = base**s.

    P(base) is the comparison at s = 1.  A failure point must make P negative.
    A HOLDS needs P >= 0 at 33 evenly spaced points from base to the Cauchy
    bound on P's roots, beyond which P has the sign of its leading coefficient.
    """
    coeffs = _profile(lam, mu, base)
    at_one = _sign_at(coeffs, Fraction(base))
    problems = []
    if report["tight_at_one"] != (at_one == 0):
        problems.append("bulk tight_at_one disagrees with the profile at s = 1")
    if not report["holds"]:
        if report.get("failure_x") and _sign_at(coeffs, Fraction(report["failure_x"])) >= 0:
            problems.append("exact bulk failure point does not fail")
        return problems
    if coeffs:
        bound = max(Fraction(base), 1 + Fraction(max(map(abs, coeffs)), abs(coeffs[-1])))
        points = [base + (bound - base) * j / 32 for j in range(33)]
        if coeffs[-1] < 0 or any(_sign_at(coeffs, x) < 0 for x in points):
            problems.append("bulk HOLDS but the profile is negative at a sampled point")
    return problems


def letter(verdict) -> str:
    """One-letter form of a verdict: H(olds), F(ails) or U(nknown)."""
    if verdict in (True, "HOLDS"):
        return "H"
    if verdict in (False, "FAILS"):
        return "F"
    return "U"


def check(query, rc: int, out: str) -> tuple[str, list[str]]:
    """Verdict letters of one answer and the list of problems found in it.

    For ``check embed`` and ``check bulk`` the verdict is one letter; for
    ``check all`` it is four: embed, supermajorize, bulk, stable.
    """
    lam, mu = partition(query.lhs), partition(query.rhs)
    doc = json.loads(out)
    if query.relation == "bulk":
        verdict = doc["verdict"]
        problems = []
        if rc != EXIT_CODES[verdict]:
            problems.append(f"exit code {rc} for {verdict}")
        problems += _bulk_problems(lam, mu, doc["base"], doc["report"])
        return letter(verdict), problems
    if query.relation == "embed":
        verdict = doc["verdict"]
        problems = []
        if rc != EXIT_CODES[verdict]:
            problems.append(f"exit code {rc} for {verdict}")
        if verdict == "HOLDS" and not _witness(doc["witness"]).validate(lam, mu):
            problems.append("embedding witness does not validate")
        if verdict == "FAILS" and query.embeds:
            problems.append("FAILS on a pair that embeds by construction")
        return letter(verdict), problems

    problems = []
    emb, stable = doc["embeds"], doc["stable"]
    status = stable["status"]
    if emb and not _witness(doc["embed_witness"]).validate(lam, mu):
        problems.append("embedding witness does not validate")
    if emb is False and query.embeds:
        problems.append("embeds=false on a pair that embeds by construction")

    sup, failing_x = _tail_sums_dominate(mu, lam)
    if doc["supermajorized"] != sup or doc["supermajorization_failing_x"] != failing_x:
        problems.append("supermajorization verdict or failing threshold is wrong")

    bulk = doc["bulk"]
    if not bulk["holds"] and bulk.get("failure_x") and doc["base"] is not None:
        if _sign_at(_profile(lam, mu, doc["base"]), Fraction(bulk["failure_x"])) >= 0:
            problems.append("exact bulk failure point does not fail")

    if status == "HOLDS":
        w = stable["witness"]
        nu = from_entries(w["nu"])
        if not _witness(w["embedding"]).validate(product(lam, nu), product(mu, nu)):
            problems.append("stable witness does not validate on the products")
    elif status == "FAILS":
        if not _refutation(stable["reason"]).verify(lam, mu):
            problems.append(f"stable refutation {stable['reason']['rule']} does not verify")

    if emb and not doc["supermajorized"]:
        problems.append("diagram: embeds but not supermajorized")
    if emb and status == "FAILS":
        problems.append("diagram: embeds but stable FAILS")
    if doc["supermajorized"] and not bulk["holds"]:
        problems.append("diagram: supermajorized but not bulk")
    if status == "HOLDS" and not bulk["holds"]:
        problems.append("diagram: stable but not bulk")

    decided = emb is not None and status != "UNKNOWN"
    if rc != (0 if decided else 2):
        problems.append(f"exit code {rc} for a report that is {'' if decided else 'not '}decided")
    return letter(emb) + letter(doc["supermajorized"]) + letter(bulk["holds"]) + letter(status), problems


def golden_flips(expected: str, got: str) -> bool:
    """True when a verdict that was decided in the golden file changed value."""
    return any(e != "U" and g != "U" and e != g for e, g in zip(expected, got))
