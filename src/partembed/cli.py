"""Command-line interface: relation queries, the example battery, generators.

Exit codes: 0 the queried relation holds (or, for ``check all``, everything
was decided), 1 it fails, 2 undecided within budget, 64 usage error,
65 malformed input data or input past a stated limit: an integer of more
digits than ``int`` parses or prints, JSON nested deeper than the recursion
limit, or a pair that is not supermajorized and whose numeric bulk search
interval passes the float range; such a query prints nothing to stdout.

Partitions travel as JSON documents with exactly one of ``entries`` (a list
of positive integers, any order) or ``counts`` plus ``base`` (the power
count-vector form), and an optional ``name``.  Quick queries can pass a bare
array inline: ``--lhs '[2,2,2,2]'``.  Corpora are newline-delimited JSON.
A ``counts`` document parses to its PowerPartition and is decided on its
counts (``stablep.Pair``); it is expanded into entries only where a path
reads them: without a common base, for ``check --base`` and for
``conjecture-scan``'s identical-pair test.
Reports print as JSON documents laid out as by ``json.dumps(doc, indent=2)``,
written in one pass over the report objects by ``_write``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .core import (
    MAX_BOXES,
    Partition,
    PartitionError,
    PowerPartition,
    from_entries,
    product,
    to_base_counts,
)
from .norms import BeyondFloatRange, _trim
from .orders import DEFAULT_NODE_BUDGET
from .stablep import (
    FAILS,
    HOLDS,
    NORM_EQUALITY,
    TIGHT_VALUATION,
    UNKNOWN,
    Pair,
)

EX_OK = 0
EX_FAILS = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_DATA = 65
# The exit code of a single relation's verdict.
_EXIT_CODES = {HOLDS: EX_OK, FAILS: EX_FAILS, UNKNOWN: EX_UNKNOWN}


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low):
    """argparse type: an int >= ``low``; anything else is a usage error."""
    def parse(text: str):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= {low}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


# ---------------------------------------------------------------------------
# JSON documents for every report type
# ---------------------------------------------------------------------------

_SCALARS = (bool, int, float, str, type(None))
_INTS = {int}
# Writers of the scalars that report objects hold, by exact type.
_SCALAR_JSON = {
    str: _json_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


@functools.cache
def _json_members(cls) -> tuple[tuple[str, str], ...]:
    """(attribute, '"key": ') of each field, in declaration order; a field's
    JSON key is its ``key`` metadata, else its name."""
    return tuple((f.name, _json_str(f.metadata.get("key", f.name)) + ": ")
                 for f in dataclasses.fields(cls))


def _encode(obj, indent: str) -> str:
    """The JSON document of ``obj`` as ``json.dumps(doc, indent=2)`` lays it
    out, for a value whose line starts at ``indent`` (a newline and two
    spaces per level), written in one pass over the report objects
    themselves.  A dataclass is an object of its fields in declaration order,
    a Partition its entry list, a Fraction "p/q" (exact, so 3 is "3/1") and
    a tuple a list; JSON lists and dicts with string keys are written as
    they are."""
    tp = type(obj)
    if write := _SCALAR_JSON.get(tp):
        return write(obj)
    if isinstance(obj, _SCALARS):  # floats, and subclasses of the scalar types
        return json.dumps(obj)
    if tp is Fraction:
        return f'"{obj.numerator}/{obj.denominator}"'
    inner = indent + "  "
    if tp is Partition:
        obj = obj.entries
    if isinstance(obj, (tuple, list)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == _INTS:
            items = map(int.__repr__, obj)
        else:
            items = [_encode(x, inner) for x in obj]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if isinstance(obj, dict):
        items = [_json_str(k) + ": " + _encode(v, inner) for k, v in obj.items()]
    else:
        items = [key + _encode(getattr(obj, name), inner) for name, key in _json_members(tp)]
    if not items:
        return "{}"
    return f"{{{inner}{(',' + inner).join(items)}{indent}}}"


def _write(obj) -> None:
    """Print the JSON document of ``obj``: every ``--json`` answer."""
    print(_encode(obj, "\n"))


def parse_partition_doc(obj) -> tuple[Partition | PowerPartition, str | None]:
    """The partition of a document and its name: a Partition from
    ``entries``, the trimmed PowerPartition from ``counts``."""
    if isinstance(obj, list):
        obj = {"entries": obj}
    if not isinstance(obj, dict):
        raise _InputError("partition doc must be a JSON object or array of entries")
    has_entries = "entries" in obj
    has_counts = "counts" in obj
    if has_entries == has_counts:
        raise _InputError("exactly one of 'entries' or 'counts' must be present")
    try:
        if has_entries:
            return from_entries(obj["entries"]), obj.get("name")
        base = obj.get("base")
        if base is None:
            raise _InputError("'counts' form needs a 'base'")
        pp = PowerPartition(base, tuple(_trim(list(obj["counts"]))))
        if pp.box_count > MAX_BOXES:
            raise _InputError(f"'counts' form holds {pp.box_count} boxes, "
                              f"more than the limit of {MAX_BOXES}")
        if pp.is_empty:
            raise _InputError("cannot expand an empty count vector")
        return pp, obj.get("name")
    except PartitionError as exc:
        raise _InputError(str(exc)) from exc
    except TypeError as exc:
        raise _InputError(f"malformed partition doc: {exc}") from exc


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _parse_json(text: str, where: str, invalid: str = "not valid JSON: "):
    """The JSON value of ``text``.  Malformed JSON, an integer of more digits
    than ``int`` parses (``json.loads`` raises a plain ValueError for it,
    not a JSONDecodeError) and nesting deeper than the parser recurses are
    each an _InputError that names ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{where}: {invalid}{exc}") from exc
    except ValueError as exc:
        raise _InputError(f"{where}: an integer has more digits than the limit of "
                          f"{sys.get_int_max_str_digits()}") from exc
    except RecursionError as exc:
        raise _InputError(f"{where}: JSON nested too deeply for the recursion limit of "
                          f"{sys.getrecursionlimit()}") from exc


def _load_doc(inline: str | None, path: str | None, side: str):
    if inline is not None:
        obj = _parse_json(inline, f"--{side}")
    elif path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _InputError(f"cannot read {path}: {exc}") from exc
        obj = _parse_json(text, path)
    else:
        raise _InputError(f"missing {side} partition: give a file or --{side}")
    return parse_partition_doc(obj)


def cmd_check(args) -> int:
    lam, _ = _load_doc(args.lhs, args.lhs_file, "lhs")
    mu, _ = _load_doc(args.rhs, args.rhs_file, "rhs")
    pair = Pair(lam, mu, args.budget, args.max_steps)
    if args.base is not None:
        try:
            for side in pair.partitions:
                to_base_counts(side, args.base)
        except PartitionError as exc:
            raise _InputError(f"--base {args.base}: {exc}") from exc
    if args.relation == "embed":
        witness, undecided = pair.embedding
        word = UNKNOWN if undecided else (HOLDS if witness else FAILS)
        if args.json:
            _write({"relation": "embed", "verdict": word, "witness": witness})
        elif undecided:
            print(f"embed: {word} (search budget of {args.budget} nodes exhausted)")
        elif witness:
            print(f"embed: {word}  assignment={list(witness.assignment)}")
        else:
            print(f"embed: {word} (no assignment exists)")
        return _EXIT_CODES[word]

    if args.relation == "supermajorize":
        sup = pair.sup
        word = HOLDS if sup.holds else FAILS
        if args.json:
            _write({"relation": "supermajorize", "verdict": word, "failing_x": sup.failing_x})
        elif sup.holds:
            print(f"supermajorize: {word}")
        else:
            print(f"supermajorize: {word} at threshold x={sup.failing_x}")
        return _EXIT_CODES[word]

    if args.relation == "bulk":
        base, verdict = pair.base, pair.bulk
        word = HOLDS if verdict.holds else FAILS
        if args.json:
            _write({"relation": "bulk", "verdict": word, "base": base, "report": verdict})
        else:
            path = f"exact, base {base}" if base is not None else "numeric"
            print(f"bulk: {word} ({path})")
            if verdict.failure_exponent is not None:
                print(f"  norm dominance fails near s={verdict.failure_exponent:.6g}")
            for eq in verdict.interior_equalities:
                kind = "exact" if eq.exact else "numeric"
                print(f"  interior equality at s={eq.s:.6g} ({kind})")
        return _EXIT_CODES[word]

    if args.relation == "stable":
        verdict = pair.stable
        if args.json:
            _write({"relation": "stable", "verdict": verdict.status, "report": verdict})
        else:
            lines = [f"stable: {verdict.status}"]
            if verdict.witness is not None:
                lines.append(f"  catalyst nu = {list(verdict.witness.nu.entries)}")
            if verdict.reason is not None:
                lines.append(f"  refutation: {verdict.reason.rule}")
            if verdict.detail:
                lines.append(f"  {verdict.detail}")
            print("\n".join(lines))
        return _EXIT_CODES[verdict.status]

    # all four relations
    report = pair.report()
    if args.json:
        _write(report)
    else:
        emb = "UNKNOWN" if report.embeds is None else ("HOLDS" if report.embeds else "FAILS")
        sup = "HOLDS" if report.supermajorized else f"FAILS at x={report.supermajorization_failing_x}"
        print(f"embed:          {emb}\n"
              f"supermajorize:  {sup}\n"
              f"stable:         {report.stable.status}"
              + (f" (nu={list(report.stable.witness.nu.entries)})" if report.stable.witness else "")
              + (f" ({report.stable.reason.rule})" if report.stable.reason else "")
              + f"\nbulk:           {'HOLDS' if report.bulk.holds else 'FAILS'}")
    decided = report.embeds is not None and report.stable.status != UNKNOWN
    return EX_OK if decided else EX_UNKNOWN


# ---------------------------------------------------------------------------
# repro-example24
# ---------------------------------------------------------------------------


def cmd_repro_example24(args) -> int:
    lam1 = from_entries([2, 2, 2, 2])
    mu1 = from_entries([4] + [1] * 8)
    mu2 = from_entries([3, 3, 3])
    lam2 = from_entries([8, 8, 8, 8, 4, 4, 4, 4])
    mu3 = from_entries([16] + [2] * 16 + [1] * 16)
    lam3 = from_entries([4, 2, 2])
    mu4 = from_entries([5, 3])

    claims: list[dict] = []

    def claim(name: str, ok: bool, detail: str = ""):
        claims.append({"claim": name, "ok": bool(ok), "detail": detail})

    p11, p12, p23, p34 = Pair(lam1, mu1), Pair(lam1, mu2), Pair(lam2, mu3), Pair(lam3, mu4)
    v1 = p11.stable
    ok1 = (
        v1.status == HOLDS
        and v1.witness is not None
        and list(v1.witness.nu.entries) == [2, 1, 1]
        and v1.witness.embedding.validate(product(lam1, v1.witness.nu),
                                          product(mu1, v1.witness.nu))
    )
    claim("lam1 stably embeds into mu1 with validating catalyst [2,1,1]", ok1,
          f"status={v1.status}")

    sup1 = p11.sup
    tails = (sum(e for e in lam1 if e >= 2), sum(e for e in mu1 if e >= 2))
    claim("lam1 is not supermajorized by mu1 (threshold 2: 8 > 4)",
          not sup1.holds and sup1.failing_x == 2 and tails == (8, 4),
          f"failing_x={sup1.failing_x}")

    claim("lam1 does not embed into mu1", p11.embedding[0] is None)
    claim("lam1 is supermajorized by mu2", p12.sup.holds)
    claim("lam1 does not embed into mu2", p12.embedding[0] is None)

    bulk23 = p23.bulk
    claim("lam2 bulk-embeds into mu3", bulk23.holds,
          f"equalities={len(bulk23.interior_equalities)}")

    v7 = p23.stable
    claim("lam2 does not stably embed into mu3 (norm-equality certificate)",
          v7.status == FAILS and v7.reason is not None
          and v7.reason.rule == NORM_EQUALITY and v7.reason.verify(lam2, mu3),
          f"status={v7.status}")

    sup34 = p34.sup
    v8 = p34.stable
    claim("lam3 is supermajorized by mu4 yet does not stably embed (valuation certificate)",
          sup34.holds and v8.status == FAILS and v8.reason is not None
          and v8.reason.rule == TIGHT_VALUATION and v8.reason.verify(lam3, mu4),
          f"status={v8.status}")

    ok_all = all(c["ok"] for c in claims)
    if args.json:
        _write({"claims": claims, "ok": ok_all})
    else:
        for c in claims:
            tag = "ok  " if c["ok"] else "FAIL"
            print(f"{tag} {c['claim']}")
        print(f"{sum(c['ok'] for c in claims)}/{len(claims)} claims reproduced")
    return EX_OK if ok_all else EX_FAILS


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    for i in range(args.count):
        if args.kind == "random":
            length = rng.randint(1, args.length)
            entries = sorted((rng.randint(1, args.max_value) for _ in range(length)),
                             reverse=True)
            doc = {"entries": entries, "name": f"random-s{args.seed}-{i}"}
        elif args.kind == "powerq":
            counts = [rng.randint(0, args.max_count) for _ in range(args.levels)]
            if not any(counts):
                counts[rng.randrange(len(counts))] = 1
            doc = {"base": args.base, "counts": _trim(counts),
                   "name": f"powerq-b{args.base}-s{args.seed}-{i}"}
        else:  # divisible
            entries = []
            v = rng.randint(1, args.max_value)
            for _ in range(rng.randint(1, args.length)):
                entries.append(v)
                low = [d for d in range(1, math.isqrt(v) + 1) if v % d == 0]
                v = rng.choice(low + [v // d for d in reversed(low) if d * d != v])
            doc = {"entries": entries, "name": f"divisible-s{args.seed}-{i}"}
        print(json.dumps(doc))
    return EX_OK


# ---------------------------------------------------------------------------
# conjecture-scan
# ---------------------------------------------------------------------------


def _scan_pair(name: str, lam: Partition | PowerPartition, mu: Partition | PowerPartition,
               max_steps: int | None) -> dict:
    """One corpus row: only pairs with norm equality at s=1 and s=oo but strict
    dominance in between are interesting; everything else is excluded."""
    pair = Pair(lam, mu, max_steps=max_steps)
    lam, mu = pair.partitions  # documents in different bases can be equal
    if lam == mu:
        return {"name": name, "status": "excluded", "detail": "identical partitions"}
    if pair.base is None:
        return {"name": name, "status": "excluded", "detail": "no common power base"}
    bulk = pair.bulk
    if not bulk.holds:
        return {"name": name, "status": "excluded", "detail": "norm dominance fails"}
    if not bulk.tight_at_one:
        return {"name": name, "status": "excluded",
                "detail": f"not tight at s=1 ({lam.total} < {mu.total})"}
    if not bulk.tight_at_infinity:
        return {"name": name, "status": "excluded",
                "detail": f"not tight at s=oo ({lam.max_entry} < {mu.max_entry})"}
    if bulk.interior_equalities:
        return {"name": name, "status": "excluded", "detail": "interior equality point"}
    verdict = pair.catalyst
    if verdict.status == FAILS:
        return {"name": name, "status": "fails", "detail": verdict.reason.rule}
    if verdict.status == HOLDS:
        return {"name": name, "status": "holds", "steps": verdict.budget_spent,
                "nu": list(verdict.witness.nu.entries)}
    return {"name": name, "status": "unknown", "steps": verdict.budget_spent}


def cmd_conjecture_scan(args) -> int:
    rows = []
    try:
        with open(args.corpus, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                where = f"{args.corpus}:{line_no + 1}"
                obj = _parse_json(line, where, invalid="")
                try:
                    lam, lname = parse_partition_doc(obj["lhs"])
                    mu, _ = parse_partition_doc(obj["rhs"])
                except (KeyError, TypeError) as exc:
                    raise _InputError(f"{where}: {exc}") from exc
                name = obj.get("name") or lname or f"pair-{line_no}"
                rows.append(_scan_pair(name, lam, mu, args.max_steps))
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {args.corpus}: {exc}") from exc

    counts = Counter(r["status"] for r in rows)
    if args.json:
        _write({"rows": rows, "counts": dict(counts)})
    else:
        lines = []
        for r in rows:
            extra = r.get("detail") or (f"steps={r.get('steps')} nu={r.get('nu')}"
                                        if "steps" in r else "")
            lines.append(f"{str(r['name']):<28} {r['status']:<9} {extra}")
        lines.append("--")
        lines.append("  ".join(f"{k}={v}" for k, v in sorted(counts.items())) if rows
                     else "empty corpus")
        print("\n".join(lines))
    return EX_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on first use and then reused."""
    parser = _Parser(prog="partembed",
                     description="Decide and certify embeddability orders on partitions.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", parents=[], help="decide one relation for a pair",
                           description="Decide a relation between two partitions.")
    check.add_argument("relation", choices=["embed", "supermajorize", "bulk", "stable", "all"])
    check.add_argument("lhs_file", nargs="?", help="JSON file with the left partition")
    check.add_argument("rhs_file", nargs="?", help="JSON file with the right partition")
    check.add_argument("--lhs", help="inline JSON for the left partition")
    check.add_argument("--rhs", help="inline JSON for the right partition")
    check.add_argument("--budget", type=_at_least(0), default=DEFAULT_NODE_BUDGET,
                       help="search node budget for exact embedding")
    check.add_argument("--max-steps", type=_at_least(0), default=None,
                       help="iteration budget for the catalyst construction")
    check.add_argument("--base", type=_at_least(2), default=None,
                       help="require both partitions to be powers of this base")
    check.add_argument("--json", action="store_true", help="machine-readable output")
    check.set_defaults(func=cmd_check)

    repro = sub.add_parser("repro-example24",
                           help="reproduce the eight worked counterexample claims")
    repro.add_argument("--json", action="store_true")
    repro.set_defaults(func=cmd_repro_example24)

    gen = sub.add_parser("gen", help="emit reproducible partition documents")
    gen.add_argument("kind", choices=["random", "powerq", "divisible"])
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (echoed in names)")
    gen.add_argument("--count", type=_at_least(0), default=1)
    gen.add_argument("--len", dest="length", type=_at_least(1), default=6, help="max length")
    gen.add_argument("--max", dest="max_value", type=_at_least(1), default=32,
                     help="max entry")
    gen.add_argument("--base", type=_at_least(2), default=2, help="base for powerq docs")
    gen.add_argument("--levels", type=_at_least(1), default=4, help="levels for powerq docs")
    gen.add_argument("--max-count", type=_at_least(0), default=6, help="max count per level")
    gen.set_defaults(func=cmd_gen)

    scan = sub.add_parser("conjecture-scan",
                          help="tabulate catalyst construction on tight strictly-dominant pairs")
    scan.add_argument("corpus", help="newline-delimited JSON of {lhs, rhs, name?} pairs")
    scan.add_argument("--max-steps", type=_at_least(0), default=None)
    scan.add_argument("--json", action="store_true")
    scan.set_defaults(func=cmd_conjecture_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, BeyondFloatRange) as exc:
        print(f"partembed: {exc}", file=sys.stderr)
        return EX_DATA
    except ValueError as exc:  # an answer's integer past the digit limit of str(int)
        if "integer string conversion" not in str(exc):
            raise
        print(f"partembed: the answer holds an integer of more digits than the limit of "
              f"{sys.get_int_max_str_digits()}", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
