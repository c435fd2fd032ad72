"""Shared fixtures: the worked counterexample partitions and seeded generators."""

import random

from partembed.core import Partition, PowerPartition, from_entries

LAM1 = from_entries([2, 2, 2, 2])
MU1 = from_entries([4] + [1] * 8)
MU2 = from_entries([3, 3, 3])
LAM2 = from_entries([8, 8, 8, 8, 4, 4, 4, 4])
MU3 = from_entries([16] + [2] * 16 + [1] * 16)
LAM3 = from_entries([4, 2, 2])
MU4 = from_entries([5, 3])


def random_partition(rng: random.Random, max_len=6, max_entry=32) -> Partition:
    n = rng.randint(1, max_len)
    return from_entries([rng.randint(1, max_entry) for _ in range(n)])


def random_powerq(rng: random.Random, base=2, levels=5, max_count=6) -> PowerPartition:
    counts = [rng.randint(0, max_count) for _ in range(rng.randint(1, levels))]
    if not any(counts):
        counts[rng.randrange(len(counts))] = 1
    while counts[-1] == 0:
        counts.pop()
    return PowerPartition(base, tuple(counts))


def random_divisible_chain(rng: random.Random, max_len=6, max_entry=64) -> Partition:
    v = rng.randint(1, max_entry)
    entries = []
    for _ in range(rng.randint(1, max_len)):
        entries.append(v)
        v = rng.choice([d for d in range(1, v + 1) if v % d == 0])
    return from_entries(entries)


def random_embeddable_pair(rng: random.Random, max_len=6, max_entry=32, lam=None):
    """A pair (lam, mu) where mu's bins are grouped lam entries plus slack."""
    if lam is None:
        lam = random_partition(rng, max_len, max_entry)
    bins = []
    current = 0
    for e in lam.entries:
        if current and rng.random() < 0.5:
            bins.append(current)
            current = 0
        current += e
    bins.append(current)
    bins = [b + rng.randint(0, 3) for b in bins]
    if rng.random() < 0.3:
        bins.append(rng.randint(1, max_entry))
    return lam, from_entries(bins)


def count_pairs(n: int, seed: int):
    """n same-base count pairs (lam, mu), bases 2, 3 and 5 in turn, up to 12
    levels of 0-6 boxes each, so zero levels fall inside the vectors; every
    fourth mu is lam with one level changed, so that most levels cancel."""
    rng = random.Random(seed)
    for k in range(n):
        q = (2, 3, 5)[k % 3]
        lam = random_powerq(rng, q, levels=12)
        if k % 4 == 3:
            counts = list(lam.counts)
            counts[rng.randrange(len(counts))] = rng.randint(0, 6)
            while counts and counts[-1] == 0:
                counts.pop()
            mu = PowerPartition(q, tuple(counts)) if counts else lam
        else:
            mu = random_powerq(rng, q, levels=12)
        yield lam, mu
