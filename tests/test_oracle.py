import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from oracle import (
    TooLarge,
    _packs,
    brute_embed,
    brute_stable_search,
    brute_supermajorize,
    bulk_sample,
)
from partembed.core import from_entries
from partembed.orders import embeds, supermajorizes
from partembed.stablep import FAILS, Pair
from helpers import LAM1, LAM3, MU1, MU2, MU4, random_partition


def test_oracle_imports_only_core():
    # The references depend on nothing they check: apart from the standard
    # library, the one module the oracle imports is partembed.core.
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, "relative import"
            imported.add(node.module)
    others = {m for m in imported if m.split(".")[0] not in sys.stdlib_module_names}
    assert others == {"partembed.core"}


def test_package_import_leaves_the_oracle_unloaded():
    # The references are for tests; the package holds none of them, and the
    # library and the CLI never load them.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = ("import importlib.util, sys, partembed; "
              "print('partembed.oracle' in sys.modules, importlib.util.find_spec('partembed.oracle'))")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "None"]


class TestBruteEmbed:
    def test_counterexample(self):
        assert not brute_embed(LAM1, MU2)

    def test_derived_case(self):
        assert not brute_embed(from_entries([4, 2, 2]), from_entries([5, 3]))

    def test_trivial(self):
        assert brute_embed(from_entries([1]), from_entries([1]))

    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_embed(from_entries([1] * 10), from_entries([2] * 10))

    def test_agreement_with_search(self):
        rng = random.Random(51)
        for _ in range(60):
            lam = random_partition(rng, 4, 10)
            mu = random_partition(rng, 4, 10)
            assert brute_embed(lam, mu) == (embeds(lam, mu) is not None)


class TestBruteSupermajorize:
    def test_examples(self):
        assert brute_supermajorize(MU4, LAM3)
        assert not brute_supermajorize(MU1, LAM1)
        assert brute_supermajorize(LAM1, LAM1)

    def test_agreement(self):
        rng = random.Random(52)
        for _ in range(80):
            lam = random_partition(rng, 5, 20)
            mu = random_partition(rng, 5, 20)
            assert brute_supermajorize(mu, lam) == supermajorizes(mu, lam).holds


class TestBruteStableSearch:
    def test_finds_counterexample_catalyst(self):
        assert brute_stable_search(LAM1, MU1, 3, 4) == from_entries([2, 1, 1])

    def test_identity_pair(self):
        lam = from_entries([3])
        assert brute_stable_search(lam, lam, 1, 1) == from_entries([1])

    def test_consistent_with_refutation(self):
        assert Pair(LAM3, MU4).stable.status == FAILS
        assert brute_stable_search(LAM3, MU4, 3, 8) is None

    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_stable_search(LAM1, MU1, 8, 64)

    def test_packing_agrees_with_brute_embed(self):
        # The search packs each candidate's products with its own exhaustive
        # packing; check that against the assignment enumeration.
        rng = random.Random(54)
        for _ in range(300):
            lam = random_partition(rng, 6, 12)
            mu = random_partition(rng, 4, 24)
            assert _packs(lam.entries, mu.entries) == brute_embed(lam, mu), (lam, mu)


class TestBulkSample:
    def test_identical_embeds_at_every_power(self):
        rows = bulk_sample(from_entries([2]), from_entries([2]), 2, 0)
        assert [r.embedded for r in rows] == [True, True]

    def test_overhead_makes_room(self):
        rows = bulk_sample(LAM1, MU2, 1, 1)
        assert rows[0].copies == 2 and rows[0].embedded

    def test_no_overhead_fails(self):
        rows = bulk_sample(LAM1, MU2, 1, 0)
        assert rows[0].copies == 1 and not rows[0].embedded

    def test_guard(self):
        with pytest.raises(TooLarge):
            bulk_sample(LAM1, MU2, 3, 0)
