"""Seeded query streams for the three benchmark workloads.

The generators belong to the benchmark, not to the test suite, so that an
edit to the tests never changes what the benchmark measures.  Each stream is
a pure function of its seed and is unbounded: the runner draws queries from
it until its time is up.  The program only ever sees the JSON documents the
queries carry.  Nothing here filters pairs by verdict or by outcome.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import count


@dataclass(frozen=True)
class Query:
    """One closed-loop request: ``partembed check <relation> --json ...``."""

    relation: str
    lhs: dict
    rhs: dict
    extra_args: tuple[str, ...] = ()
    # The pair embeds by construction, so "does not embed" is a wrong answer.
    embeds: bool = False

    def argv(self) -> list[str]:
        return ["check", self.relation, "--json",
                "--lhs", json.dumps(self.lhs, separators=(",", ":")),
                "--rhs", json.dumps(self.rhs, separators=(",", ":")),
                *self.extra_args]

    def key(self) -> str:
        """Stable identifier of the query, used by the golden verdict files."""
        return json.dumps([self.relation, self.lhs, self.rhs, list(self.extra_args)],
                          separators=(",", ":"), sort_keys=True)


# Every knob of every workload.  These values define the workloads: changing
# one makes a different benchmark.  Why each workload exists is recorded in
# BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "general-mix": {
        "default_seed": 1,
        "max_len": 8,
        "max_entry": 32,
        "bin_slack": [0, 3],
    },
    "binpack-hard": {
        "default_seed": 1,
        "items": 20,
        "item_size": [20, 60],
        "bins": 6,
        "perturb_delta": [1, 10],
        "node_budget": 2000,
    },
    "powerq-mix": {
        "default_seed": 1,
        "bases": [2, 3],
        "deep_levels": 24,
        "deep_max_count": 6,
        "catalyst_top_gap": [1, 2],
        "catalyst_excess": [1, 3],
        "catalyst_slack": [0, 8],
    },
}


def _entries_doc(entries: list[int]) -> dict:
    return {"entries": sorted(entries, reverse=True)}


def _counts_doc(base: int, counts: list[int]) -> dict:
    return {"base": base, "counts": counts}


def _random_entries(rng: random.Random, max_len: int, max_entry: int) -> list[int]:
    return [rng.randint(1, max_entry) for _ in range(rng.randint(1, max_len))]


def general_mix(seed: int):
    """Independent random pairs alternating with pairs that embed by construction."""
    p = WORKLOADS["general-mix"]
    rng = random.Random(seed)
    for i in count():
        lam = _random_entries(rng, p["max_len"], p["max_entry"])
        if i % 2 == 0:
            yield Query("all", _entries_doc(lam),
                        _entries_doc(_random_entries(rng, p["max_len"], p["max_entry"])))
            continue
        # mu's bins are runs of lam's entries plus a little slack.
        bins, current = [], 0
        for e in sorted(lam, reverse=True):
            if current and rng.random() < 0.5:
                bins.append(current)
                current = 0
            current += e
        bins.append(current)
        bins = [b + rng.randint(*p["bin_slack"]) for b in bins]
        yield Query("all", _entries_doc(lam), _entries_doc(bins), embeds=True)


def binpack_hard(seed: int):
    """Items grouped into bins with zero slack; odd queries move mass between two bins."""
    p = WORKLOADS["binpack-hard"]
    rng = random.Random(seed)
    budget = ("--budget", str(p["node_budget"]))
    for i in count():
        items = [rng.randint(*p["item_size"]) for _ in range(p["items"])]
        groups = [[] for _ in range(p["bins"])]
        order = list(range(len(items)))
        rng.shuffle(order)
        for k, idx in enumerate(order):
            groups[k if k < p["bins"] else rng.randrange(p["bins"])].append(items[idx])
        bins = [sum(g) for g in groups]
        embeds = True
        if i % 2 == 1:
            a, b = rng.sample(range(p["bins"]), 2)
            delta = rng.randint(*p["perturb_delta"])  # every bin holds >= 20, so stays positive
            bins[a] += delta
            bins[b] -= delta
            embeds = False
        yield Query("embed", _entries_doc(items), _entries_doc(bins), budget, embeds)


def _random_counts(rng: random.Random, levels: int, max_count: int) -> list[int]:
    counts = [rng.randint(0, max_count) for _ in range(rng.randint(1, levels))]
    if not any(counts):
        counts[-1] = 1
    while counts[-1] == 0:
        counts.pop()
    return counts


def catalyst_query(q: int, gap: int, top: int, excess: int, slack: int) -> Query:
    """A normalized power-of-q pair that needs a catalyst.

    lam is a boxes of size q; mu is ``top`` boxes ``gap`` levels higher, which
    cannot hold them all (a = top * q**gap + excess), plus enough unit boxes to
    make up lam's total and ``slack`` more.
    """
    a = top * q**gap + excess
    units = a * q - top * q ** (1 + gap) + slack
    return Query("all", _counts_doc(q, [0, a]), _counts_doc(q, [units] + [0] * gap + [top]))


def powerq_mix(seed: int):
    """Deep random power-of-q pairs alternating with catalyst-family pairs.

    Deep pairs ask only ``check bulk``, the exact Sturm path.  Under ``check
    all`` about one in a thousand of them reaches the catalyst construction,
    where some take over 20 s and some hit the "passes disagree" defect (the
    ones found are in ``known_defect_queries``).

    The catalyst family asks ``check all`` and has one top box.  lam sits on
    one level because deeper lams give catalysts of up to 1e37 boxes and more,
    a single one of which takes seconds or the whole memory cap.  With two top
    boxes the family hits the "passes disagree" defect; those pairs are in
    ``known_defect_queries``.
    """
    p = WORKLOADS["powerq-mix"]
    rng = random.Random(seed)
    for i in count():
        q = rng.choice(p["bases"])
        if i % 2 == 0:
            yield Query("bulk",
                        _counts_doc(q, _random_counts(rng, p["deep_levels"], p["deep_max_count"])),
                        _counts_doc(q, _random_counts(rng, p["deep_levels"], p["deep_max_count"])))
            continue
        yield catalyst_query(q, rng.randint(*p["catalyst_top_gap"]), 1,
                             rng.randint(*p["catalyst_excess"]),
                             rng.randint(*p["catalyst_slack"]))


def known_defect_queries() -> list[Query]:
    """Fixed pairs that reproduce known catalyst-construction defects.

    The first needs a catalyst of about 1.08e15 boxes and runs out of memory;
    the next four raise "passes disagree on the last nonzero coefficient": one
    from a random sweep of small power-of-2 pairs, three deep powerq-mix pairs
    under ``check all`` (seeds 1 to 6 and 107).  So do 18 of the 108
    catalyst-family pairs with two top boxes, which follow in full.  They are
    not part of any workload's query stream: a workload's queries must not
    fail, so the defects are measured on their own, every run.
    """
    p = WORKLOADS["powerq-mix"]
    queries = [
        Query("all", {"entries": [4, 4, 4, 4]}, _counts_doc(2, [7, 1, 0, 1])),
        Query("all", {"entries": [16] * 7}, {"entries": [32] * 3 + [8] + [4] * 4 + [2] * 4}),
        Query("all", _counts_doc(2, [0, 0, 1, 1, 1, 5, 0, 3, 6, 6, 0, 3, 5, 3, 0, 5, 4, 1]),
              _counts_doc(2, [5, 1, 2, 5, 6, 0, 1, 5, 5, 5, 4, 6, 2, 3, 4, 0, 6, 1])),
        Query("all", _counts_doc(2, [2, 5, 5, 2, 5, 2, 4, 0, 4, 0, 0, 5, 2]),
              _counts_doc(2, [6, 5, 0, 5, 3, 4, 0, 1, 4, 1, 4, 0, 4])),
        Query("all", _counts_doc(2, [1, 4, 5, 0, 1, 0, 5, 4, 4, 3, 1, 0, 0, 5, 6]),
              _counts_doc(2, [4, 0, 5, 3, 6, 4, 3, 5, 5, 4, 6, 5, 6, 1, 0, 3])),
    ]
    for q in p["bases"]:
        for gap in range(p["catalyst_top_gap"][0], p["catalyst_top_gap"][1] + 1):
            for excess in range(p["catalyst_excess"][0], p["catalyst_excess"][1] + 1):
                for slack in range(p["catalyst_slack"][0], p["catalyst_slack"][1] + 1):
                    queries.append(catalyst_query(q, gap, 2, excess, slack))
    return queries


GENERATORS = {
    "general-mix": general_mix,
    "binpack-hard": binpack_hard,
    "powerq-mix": powerq_mix,
}
