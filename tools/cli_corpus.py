"""Record the CLI's answers on a fixed query list, one NDJSON record per query.

    python tools/cli_corpus.py [--tree DIR] OUT

imports ``partembed`` from ``DIR/src`` (default: this checkout), calls
``partembed.cli.main(argv)`` in-process for every query and writes
``{"argv", "rc", "out", "err"}`` per line to ``OUT``.  An exception that
escapes ``main`` is recorded as ``rc: null`` with its type and message in
``err``; the summary line ends with the number of such queries.  Run it on
two trees and compare the outputs with ``cmp``: equal files mean the two
programs print the same bytes and exit codes.

The query list is fixed: the first 300 seed-1 queries of ``general-mix`` and
``powerq-mix`` re-asked as every relation with and without ``--json`` (deep
``powerq-mix`` pairs, which ask ``check bulk``, only as embed, supermajorize
and bulk), the first 100 seed-7 deep ``powerq-mix`` pairs as ``check bulk
--json`` (57 of them get past the exact path's sign checks at q and at oo; all
57 are supermajorized, so their tail sums decide them and none reaches the
Sturm root isolation), the first 400 ``binpack-hard`` queries as they are
(node budget 2000) and again with ``--budget 500``, so that which searches run
out of budget is pinned at two budgets, both forms of ``repro-example24``, the
``PAIRS`` below (those pinned by ``tests/golden``, among them two base-2 count
pairs with two touch roots each, which reach the root refinement, and one
whose rational touch root is printed as a point interval, one base-2 pair
whose catalyst has 3,888 boxes, so that the witness of a large catalyst is
pinned, two base-q pairs whose roots past q are all bisection midpoints of the
isolation range, one tight at q whose one isolating interval starts at the
root q, and two supermajorized count pairs, one of them tight at q and at oo
and one on 24 levels, one whose bulk failure exponent, 2**66, prints in
e-notation, one whose numeric bulk failure only the refinement of a grid
minimum finds, one refuted by a NormEquality certificate whose isolating
interval is a point, one whose profile's second value is 1, one whose two top
values have the same float logarithm, one tight at s = 1 that fails at
s = 1.0005, where the step towards 1 is halved, one tight at q whose
failure_x 9/4 takes a second halving, an identical pair with no common power
base, a profile of one positive term, and one tight at q and at oo with a
touch root, and the count documents the base rule must read: bases 4, 8
and 9, base 2 against base 4 and against base 8, base 4 against base 8,
base 2 against base 3 with boxes above 1 on both sides, which has no base,
a side of unit boxes only against base 2 and against another such side,
a count document against an entries document, and two numeric touch hints
next to grid intervals whose lower bound is close to 0: ``SCALED_TOUCH``
with a shared 5 added on both sides, and ``[10]*8`` / ``[20]+[5]*16``, which
touches 0 at s = 2, and two pairs of close values whose grid reaches past
m * s_max * ln v_1 = 2**60: ``[N+3,N,N-2]`` / ``[N+4,N,N-3]`` with N about
2**128, and ``[N,N]`` / ``[N+1,N-1]`` with N = 2**200, and four count
documents against an entries document: base 4 with level 1 empty against
``[2]``, unit boxes only against ``[4,2,1]``, base 9 against ``[27,3]`` and
base 2 against ``[3]``, which has no common base, and two pairs tight at
s = 1 with no common base, ``[3,3]`` / ``[6]``, whose prefix sums of
n v ln v are all >= 0, and ``[24,23]`` / ``[29,18]``, one of whose prefix
sums is negative) under every relation, the
first 100 ``powerq-mix`` catalyst-family pairs with one box added at every
level up to mu's top on both sides (so normalization cancels something) as
stable and all, an 800,000-box count document against ``[8,8,4,2,1]`` as
supermajorize and all, ``[1]`` / ``[1000003]``, whose greedy embedding holds
1000002 unit pieces, as embed, stable and all, two base-2 count pairs whose
catalyst products hold more than 2**63 boxes at one level, as stable and
all, ``[N,N]`` / ``[N+1,N-1]`` with N = 2**1023 as bulk, whose numeric search
interval still ends inside the float range, and with N = 2**1024 and
N = 2**1100, where it does not, as bulk, stable and all, two supermajorized
pairs whose search interval passes the float range, ``[10**4000]`` /
``[10**4000+1]`` and ``[3**2000, 1]`` / ``[3**2000+1]``, as bulk and all, a
count document of one box 2**20000, whose 6,021 digits pass the limit of
Python's int printing, against itself as embed, stable and all with
``--json``, one box 2**20001 against three of 2**20000, whose failing
threshold prints the same way, as supermajorize and as text all, ``gen random``,
``powerq`` and ``divisible`` with ``--seed 3 --count 5``,
``conjecture-scan`` over ``tools/scan_corpus.ndjson`` with and without ``--json`` and
``--max-steps 3``, a few queries with an invalid option, among them the
removed ``--tol`` and ``--grid``, which are usage errors, a pair whose
direct search runs out of a 1-node budget as embed and as stable,
every kind of malformed partition document, all-zero counts among them,
which exits 65, an entry of 5,001 digits, past the digit limit of
Python's int parsing, inline and in ``tools/long_entry.ndjson``, read by
``check embed`` and by ``conjecture-scan``, an entry inside 1,000 nested
arrays, past the nesting Python's JSON parser takes, inline and in
``tools/deep_nesting.ndjson``, read the same three ways, ``check bulk``
on a base-4 count pair with ``--base`` 2, 3 and 16, and the other input paths:
trailing zero counts, a missing side, unreadable and non-JSON input files,
and an empty and a missing scan corpus.

The scan corpus is committed: the ``PAIRS`` below up to the base-rule ones,
the first 100 seed-1 ``powerq-mix`` catalyst-family pairs as they are, 100
pairs of equal totals and equal top box, 25 from each of four groups (base
2 or 3, scan status holds or fails) of the count vectors with up to four
levels and counts up to 4, every k-th in enumeration order, then the
base-rule ``PAIRS``, a base-4 document against the equal base-2 one, two
tight pairs, in base 4 and in base 2 against base 4, and two pairs whose
name is not a string: a JSON list on the line, and a JSON object in the
lhs document of a line with no name of its own.  Queries name it by a
path relative to this checkout, which is the working directory while they
run, so the argv is the same whichever tree ``--tree`` points at.
The workload streams come from this checkout's ``bench/workloads.py``, which
is only read.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCAN_CORPUS = "tools/scan_corpus.ndjson"
# One scan line whose lhs entry has 5,001 digits, also read as a partition
# document file.
LONG_ENTRY_FILE = "tools/long_entry.ndjson"
# One scan line whose lhs entry sits inside 1,000 nested arrays, also read as
# a partition document file.
DEEP_FILE = "tools/deep_nesting.ndjson"
RELATIONS = ("embed", "supermajorize", "bulk", "stable", "all")
# LAM2/MU3 of the tests scaled by 3: no common power base, so the numeric bulk
# path decides it and reports one touch hint.
SCALED_TOUCH = ("[24,24,24,24,12,12,12,12]", json.dumps([48] + [6] * 16 + [3] * 16))
# A base-4 count pair, which the base rule reads in base 2.
BASE4 = ('{"base":4,"counts":[0,5]}', '{"base":4,"counts":[6,0,1]}')
# About 2**128.
BIG = 345217350318977185375237309378926972062
PAIRS = (
    ("[2,2,2,2]", "[4,1,1,1,1,1,1,1,1]"),
    ("[8,8,8,8,4,4,4,4]", json.dumps([16] + [2] * 16 + [1] * 16)),
    ("[4,2,2]", "[5,3]"),
    ("[4]", "[2,2]"),
    ("[3,3]", "[4,1,1]"),
    ("[3,3,2]", "[6,2]"),
    SCALED_TOUCH,
    # f dips below 0 only near s = 3.83, between the samples of a coarse grid.
    ("[30,25]", "[31,22,13,9,1]"),
    # Base-2 count pairs with two touch roots each, which the exact path
    # refines to printed x_intervals: P = (x-4)^2 (x^2-20)^2 and
    # P = (3x-10)^2 (x-8)^2.
    ('{"base":2,"counts":[0,3200,240,0,24,8]}', '{"base":2,"counts":[6400,0,0,320,0,0,1]}'),
    ('{"base":2,"counts":[0,5440,0,204]}', '{"base":2,"counts":[6400,0,1636,0,9]}'),
    # P = (x-4)^2 (x^2-8)^2: a bisection midpoint lands on the touch root 4,
    # which is kept as exact and printed as the point interval ["4/1", "4/1"].
    ('{"base":2,"counts":[0,512,192,0,0,8]}', '{"base":2,"counts":[1024,0,0,128,0,0,1]}'),
    # Needs a 3,888-box catalyst: pins the witness bytes of a large catalyst.
    (json.dumps([16] * 7), json.dumps([32] * 3 + [8] + [4] * 4 + [2] * 4)),
    # Roots hit at bisection midpoints of the isolation range (2, 10) and
    # (3, 35): P = (x-3)(4x-11) and P = (x-6)(2x-11), both failing between
    # their roots.
    ('{"base":2,"counts":[0,23]}', '{"base":2,"counts":[33,0,4]}'),
    ('{"base":3,"counts":[0,23]}', '{"base":3,"counts":[66,0,2]}'),
    # P = (x-2)(10x-21)^2, tight at q = 2: the one isolating interval, (2, 14),
    # starts at the root q, and bulk holds with one exact equality.
    ('{"base":2,"counts":[882,0,620]}', '{"base":2,"counts":[0,1281,0,100]}'),
    # Supermajorized, so every tail sum of P is >= 0: P = x - 2 is tight at q
    # and at oo, and a 24-level pair with one tail sum 0 below its top.
    ('{"base":2,"counts":[2,1,1]}', '{"base":2,"counts":[0,2,1]}'),
    ('{"base":2,"counts":[4,0,3,2,0,0,1,4,3,2,2,0,2,3,1,3,4,4,0,1,4,4,2,4]}',
     '{"base":2,"counts":[2,1,1,1,1,0,1,5,1,1,1,2,2,1,0,2,1,6,0,2,0,4,1,5]}'),
    # f(s) = 2*v**s - (v+1)**s with v = 10**20 turns negative only past
    # s = v*ln 2, so the doubling search prints failure_exponent 2**66 in
    # e-notation, next to entries above 2**64.
    (json.dumps([10**20 + 1]), json.dumps([10**20] * 2)),
    # No common power base; bulk fails only at s = 1.69424..., where
    # f = 30**s (x**2 - 2x - 4)**2 - 1 with x = 2**s is about -1.  No grid
    # sample falls below the failure band, so the refined minimum decides it.
    (json.dumps([240] * 4 + [120] * 4 + [1]), json.dumps([480] + [60] * 16 + [30] * 16)),
    # P = (x-4)**2: the touch root 4 is a bisection midpoint of (2, 18), so
    # the NormEquality certificate carries the point interval ["4/1", "4/1"].
    (json.dumps([2] * 8), json.dumps([4] + [1] * 16)),
    # The profile's second value is 1: f(s) = 8**s - 8, so the bound past
    # which the top term dominates divides by ln 8 alone.
    (json.dumps([5] + [1] * 8), "[8,5]"),
    # The two top values 2**60 + 1 and 2**60 have the same float logarithm,
    # so the gap between them is taken with log1p.
    (json.dumps([2**60] * 2), json.dumps([2**60 + 1, 2**60 - 1])),
    # Equal totals, and f decreasing at s = 1: f dips below 0 only before
    # s = 1.001, so the step towards 1 is halved until f(1.0005) < 0.
    (json.dumps([2] * 19), json.dumps([10, 3] + [1] * 25)),
    # P = 2x**2 - 9x + 10 is 0 at q = 2 and decreasing there, and
    # P(5/2) = 0, so the step above q is halved once more: failure_x = 9/4.
    ('{"base":2,"counts":[0,9]}', '{"base":2,"counts":[10,0,2]}'),
    # Identical, with no common power base: the numeric path's empty profile.
    ("[10,6]", "[10,6]"),
    # A profile of one positive term, f(s) = 5**s.
    ("[3]", "[5,3]"),
    # P = (x-2)(x-4)**2: tight at q and at oo with a touch root at 4.
    ('{"base":2,"counts":[32,0,10,1]}', '{"base":2,"counts":[0,32,0,2]}'),
    # Count documents whose base is a perfect power, decided in its root:
    # catalysts in base 4 and 9, and base 8 with P = (x**3 - 16)**2 in base 2,
    # an irrational touch root refuted by NormEquality.
    BASE4,
    ('{"base":9,"counts":[0,10]}', '{"base":9,"counts":[11,0,1]}'),
    ('{"base":8,"counts":[0,32]}', '{"base":8,"counts":[256,0,1]}'),
    # Base 4 against base 2, P = (x**2 - 4)**2: tight at q, refuted by
    # TightValuation; base 8 against base 2, and base 4 against base 8.
    ('{"base":4,"counts":[0,8]}', '{"base":2,"counts":[16,0,0,0,1]}'),
    ('{"base":8,"counts":[0,1]}', '{"base":2,"counts":[0,2,1]}'),
    ('{"base":4,"counts":[0,1]}', '{"base":8,"counts":[0,1]}'),
    # Base 3 against base 2 with boxes above 1 on both sides, [3,3] / [4,1,1]:
    # no common base, so the numeric path decides.
    ('{"base":3,"counts":[0,2]}', '{"base":2,"counts":[2,0,1]}'),
    # Unit boxes only on one side, either way round, and on both sides.
    ('{"base":3,"counts":[5]}', '{"base":2,"counts":[1,2]}'),
    ('{"base":2,"counts":[1,2]}', '{"base":3,"counts":[5]}'),
    ('{"base":3,"counts":[5]}', '{"base":7,"counts":[6]}'),
    # A count document against an entries document, either way round.
    ('{"base":2,"counts":[0,4]}', json.dumps([4] + [1] * 8)),
    ("[8,2]", '{"base":16,"counts":[0,1]}'),
    # No common power base, and f dips to a numeric touch hint next to grid
    # intervals whose lower bound is close to 0: SCALED_TOUCH with a shared 5
    # (hint at s = 1.6942...), and f = 5**s (2**s - 4)**2 (hint at s = 2).
    (json.dumps([24] * 4 + [12] * 4 + [5]), json.dumps([48] + [6] * 16 + [5] + [3] * 16)),
    (json.dumps([10] * 8), json.dumps([20] + [5] * 16)),
    # Close values so large that m * s_max * ln v_1 passes 2**60, where a
    # grid stepped at 130 bits loses f: N ~ 2**128, which mu majorizes, and
    # N = 2**200, which reports a numeric equality hint.
    (json.dumps([BIG + 3, BIG, BIG - 2]), json.dumps([BIG + 4, BIG, BIG - 3])),
    (json.dumps([2**200] * 2), json.dumps([2**200 + 1, 2**200 - 1])),
    # A count document against an entries document, each read in the base
    # of both: base 4 with its level 1 empty against [2], base 6 with unit
    # boxes only against base 2, base 9 against base 27's root 3, and base 2
    # against [3], which has no common base.
    ('{"base":4,"counts":[0,0,1]}', "[2]"),
    ('{"base":6,"counts":[3]}', "[4,2,1]"),
    ('{"base":9,"counts":[1,2]}', "[27,3]"),
    ('{"base":2,"counts":[1,1]}', "[3]"),
    # Tight at s = 1 with no common base.  Every prefix sum of n v ln v of
    # [3,3] / [6] is >= 0, so f' > 0 on the first grid interval; the prefix
    # sums of [24,23] / [29,18] dip below 0, so f'(1) ~ 1.29 alone does not
    # bound f' there.
    ("[3,3]", "[6]"),
    ("[24,23]", "[29,18]"),
)
# An 800,000-box count document against an entries document: decided on its
# counts, never expanded.
MANY_BOXES = ('{"base":2,"counts":[500000,200000,100000]}', "[8,8,4,2,1]")
# Base 1000003, a prime: placing the one box of [1] in the bin 1000003 leaves
# 1000002 unit pieces for the greedy embedding to hold.
BIG_BASE = ("[1]", "[1000003]")
# Base-2 count pairs that pass every refutation rule, whose catalyst products
# hold more than 2**63 boxes at one level.
HUGE_CATALYSTS = (
    ('{"base":2,"counts":[2,1,1,5,3,6]}', '{"base":2,"counts":[5,6,3,5,2,2,2]}'),
    ('{"base":2,"counts":[6,0,3,1,6]}', '{"base":2,"counts":[6,5,3,2,1,2]}'),
)
# [N,N] / [N+1,N-1]: the numeric path's search interval ends near
# s = 1.2e308 for N = 2**1023; past the float range for N = 2**1024, and
# for N = 2**1100 the gap between the top two logarithms underflows to 0.
FLOAT_EDGE = tuple((json.dumps([2**e] * 2), json.dumps([2**e + 1, 2**e - 1]))
                   for e in (1023, 1024, 1100))
# Supermajorized pairs with no common power base whose numeric search
# interval passes the float range: the gap between the top two logarithms
# underflows to 0 for [10**4000] / [10**4000+1] and [3**2000, 1] / [3**2000+1].
FLOAT_SUPER = tuple((json.dumps(lhs), json.dumps(rhs)) for lhs, rhs in
                    (([10**4000], [10**4000 + 1]), ([3**2000, 1], [3**2000 + 1])))
# A count document of one box 2**20000, whose 6,021 digits pass the limit of
# Python's int printing although the document itself is small, and one box
# 2**20001 against three of 2**20000, whose failing threshold 2**20000 + 1
# prints the same way.
HUGE_BOX = '{"base":2,"counts":[' + "0," * 20000 + "1]}"
HUGE_SUP = ('{"base":2,"counts":[' + "0," * 20001 + "1]}",
            '{"base":2,"counts":[' + "0," * 20000 + "3]}")
# 10**5000, one digit past the 4,300-digit limit of Python's int parsing.
LONG_ENTRY = "[1" + "0" * 5000 + "]"
# The entry 2 inside 1,000 nested arrays, deeper than Python's JSON parser
# recurses.
DEEP = "[" * 1000 + "2" + "]" * 1000
# A pair whose direct search runs out of a 1-node budget and which no
# refutation rule settles, so its stable detail also names that budget.
BUDGET_PAIR = ("[5,4,3,3,2,2,2]", "[9,8,4]")
# Partition documents that exit 65.
MALFORMED = (
    "[0]",
    "[]",
    '{"counts":[1,2]}',
    '{"base":1,"counts":[1,2]}',
    '{"entries":[2],"counts":[1],"base":2}',
    '"x"',
    "x",
    '{"base":2,"counts":[2000000]}',
    '{"base":2,"counts":5}',
    '{"base":2,"counts":[0,0]}',
    '{"base":9,"counts":[]}',
)
# Option range checks (--tol and --grid are no longer options, so their
# queries pin that both are usage errors), a 1-node search budget, the
# malformed documents, a --base that one side does not fit, trailing zero
# counts, a missing side, unreadable and non-JSON input files, and an empty
# and a missing scan corpus.
EDGE_QUERIES = (
    ["check", "bulk", "--lhs", "[3,3]", "--rhs", "[4,1,1]", "--tol", "1e6"],
    ["check", "all", "--lhs", "[3,3]", "--rhs", "[4,1,1]", "--tol", "1e6", "--json"],
    ["check", "bulk", "--lhs", "[4,4,1]", "--rhs", "[5,3,1]", "--tol", "1e6"],
    ["check", "bulk", "--lhs", "[4,4,1]", "--rhs", "[5,3,1]", "--tol", "-1"],
    ["check", "bulk", "--lhs", "[3,3]", "--rhs", "[4,1,1]", "--tol", "nan"],
    ["check", "bulk", "--lhs", "[3,3]", "--rhs", "[4,1,1]", "--tol", "inf"],
    ["gen", "powerq", "--levels", "0"],
    ["gen", "powerq", "--base", "1"],
    ["gen", "random", "--len", "0"],
    ["gen", "random", "--max", "0"],
    ["gen", "divisible", "--max", "0"],
    ["check", "embed", "--lhs", "[5,4,3,3,2]", "--rhs", "[9,8]", "--budget", "-1"],
    ["check", "stable", "--lhs", "[5,4,3,3,2]", "--rhs", "[9,8]", "--max-steps", "-3"],
    ["check", "embed", "--lhs", "[4]", "--rhs", "[2,2]", "--base", "1"],
    ["check", "bulk", "--lhs", "[3,3]", "--rhs", "[4,1,1]", "--grid", "-5"],
    ["check", "bulk", "--lhs", SCALED_TOUCH[0], "--rhs", SCALED_TOUCH[1], "--grid", "7",
     "--json"],
    ["check", "bulk", "--lhs", SCALED_TOUCH[0], "--rhs", SCALED_TOUCH[1], "--grid", "200",
     "--json"],
    ["conjecture-scan", "corpus.ndjson", "--max-steps", "-1"],
    ["check", "embed", "--lhs", BUDGET_PAIR[0], "--rhs", BUDGET_PAIR[1], "--budget", "1"],
    ["check", "stable", "--lhs", BUDGET_PAIR[0], "--rhs", BUDGET_PAIR[1], "--budget", "1"],
    ["check", "stable", "--lhs", BUDGET_PAIR[0], "--rhs", BUDGET_PAIR[1], "--budget", "1",
     "--json"],
    *(["check", "embed", "--lhs", lhs, "--rhs", "[4]"] for lhs in MALFORMED),
    ["check", "embed", "--lhs", "[4]", "--rhs", "[3]", "--base", "2"],
    ["check", "embed", "--lhs", LONG_ENTRY, "--rhs", LONG_ENTRY],
    ["check", "embed", LONG_ENTRY_FILE, "--rhs", "[4]"],
    ["conjecture-scan", LONG_ENTRY_FILE],
    ["check", "embed", "--lhs", DEEP, "--rhs", "[4]"],
    ["check", "embed", DEEP_FILE, "--rhs", "[4]"],
    ["conjecture-scan", DEEP_FILE],
    *(["check", "bulk", "--lhs", BASE4[0], "--rhs", BASE4[1], "--base", base]
      for base in ("2", "3", "16")),
    ["check", "embed", "--lhs", '{"base":2,"counts":[0,1,0]}', "--rhs", "[2]"],
    ["check", "embed", "--rhs", "[4]"],
    ["check", "embed", "no-such-file.json", "--rhs", "[4]"],
    ["check", "embed", SCAN_CORPUS, "--rhs", "[4]"],
    ["conjecture-scan", "/dev/null"],
    ["conjecture-scan", "/dev/null", "--json"],
    ["conjecture-scan", "no-such-corpus.ndjson"],
)


def queries() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)

    def ask(query, relations):
        for relation in relations:
            argv = ["check", relation, "--lhs", json.dumps(query.lhs),
                    "--rhs", json.dumps(query.rhs)]
            yield argv + ["--json"]
            yield argv

    out = []
    for query in islice(workloads.general_mix(1), 300):
        out += ask(query, RELATIONS)
    for query in islice(workloads.powerq_mix(1), 300):
        out += ask(query, RELATIONS[:3] if query.relation == "bulk" else RELATIONS)
    deep = (query for query in workloads.powerq_mix(7) if query.relation == "bulk")
    out += [["check", "bulk", "--lhs", json.dumps(query.lhs), "--rhs", json.dumps(query.rhs),
             "--json"] for query in islice(deep, 100)]
    binpack = list(islice(workloads.binpack_hard(1), 400))
    out += [query.argv() for query in binpack]
    out += [replace(query, extra_args=("--budget", "500")).argv() for query in binpack]
    out += [["repro-example24"], ["repro-example24", "--json"]]
    for lhs, rhs in PAIRS:
        for relation in RELATIONS:
            argv = ["check", relation, "--lhs", lhs, "--rhs", rhs]
            out += [argv + ["--json"], argv]
    catalysts = (query for query in workloads.powerq_mix(1) if query.relation == "all")
    for query in islice(catalysts, 100):
        lam, mu = query.lhs["counts"], query.rhs["counts"]
        lam = lam + [0] * (len(mu) - len(lam))
        query = replace(query, lhs=dict(query.lhs, counts=[c + 1 for c in lam]),
                        rhs=dict(query.rhs, counts=[c + 1 for c in mu]))
        out += ask(query, ("stable", "all"))
    for (lhs, rhs), relations in ((MANY_BOXES, ("supermajorize", "all")),
                                  (BIG_BASE, ("embed", "stable", "all")),
                                  *((pair, ("stable", "all")) for pair in HUGE_CATALYSTS),
                                  (FLOAT_EDGE[0], ("bulk",)),
                                  *((pair, ("bulk", "stable", "all")) for pair in FLOAT_EDGE[1:]),
                                  *((pair, ("bulk", "all")) for pair in FLOAT_SUPER)):
        for relation in relations:
            argv = ["check", relation, "--lhs", lhs, "--rhs", rhs]
            out += [argv + ["--json"], argv]
    out += [["check", relation, "--lhs", HUGE_BOX, "--rhs", HUGE_BOX, "--json"]
            for relation in ("embed", "stable", "all")]
    sup = ["check", "supermajorize", "--lhs", HUGE_SUP[0], "--rhs", HUGE_SUP[1]]
    out += [sup + ["--json"], sup, ["check", "all", "--lhs", HUGE_SUP[0], "--rhs", HUGE_SUP[1]]]
    out += [["gen", kind, "--seed", "3", "--count", "5"]
            for kind in ("random", "powerq", "divisible")]
    for extra in ((), ("--max-steps", "3")):
        argv = ["conjecture-scan", SCAN_CORPUS, *extra]
        out += [argv + ["--json"], argv]
    out += [list(argv) for argv in EDGE_QUERIES]
    return out


def record(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # recorded, so that a crash shows in the comparison
            rc = None
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    return {"argv": argv, "rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ holds the partembed to run")
    parser.add_argument("out", type=Path, help="NDJSON file to write")
    args = parser.parse_args(argv)
    todo = queries()
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    import partembed.cli as cli

    out = args.out.resolve()
    os.chdir(ROOT)
    raised = 0
    with open(out, "w", encoding="utf-8") as fh:
        for query in todo:
            answer = record(cli, query)
            raised += answer["rc"] is None
            fh.write(json.dumps(answer) + "\n")
    print(f"{len(todo)} queries -> {args.out} (partembed from {Path(cli.__file__).parent}), "
          f"{raised} raised")
    return 0


if __name__ == "__main__":
    sys.exit(main())
