import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import partembed.norms
from partembed import cli
from partembed.core import (
    MAX_BOXES,
    Partition,
    PowerPartition,
    from_base_counts,
    from_entries,
    to_base_counts,
)
from partembed.norms import BulkVerdict, EqualityPoint, dominates_all_s, exact_dominates_powerq
from partembed.orders import EmbeddingWitness
from partembed.stablep import (
    FAILS,
    HOLDS,
    NORM_EQUALITY,
    TIGHT_VALUATION,
    UNKNOWN,
    Pair,
    RelationReport,
    StableRefutation,
    StableVerdict,
    StableWitness,
    StepRecord,
)
from helpers import LAM1, LAM2, LAM3, MU1, MU2, MU3, MU4
from reference import from_doc, to_doc


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheckCommand:
    def test_stable_holds_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", "stable",
                           "--lhs", "[2,2,2,2]",
                           "--rhs", '{"base": 2, "counts": [8, 0, 1]}')
        assert code == 0
        assert "HOLDS" in out and "[2, 1, 1]" in out

    def test_embed_fails_exit_one(self, capsys):
        code, out, _ = run(capsys, "check", "embed",
                           "--lhs", "[2,2,2,2]", "--rhs", "[3,3,3]")
        assert code == 1
        assert "FAILS" in out

    def test_bulk_json_reports_equality_interval(self, capsys):
        lhs = json.dumps(list(LAM2.entries))
        rhs = json.dumps(list(MU3.entries))
        code, out, _ = run(capsys, "check", "bulk", "--lhs", lhs, "--rhs", rhs, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "HOLDS"
        eqs = doc["report"]["interior_equalities"]
        assert len(eqs) == 1 and eqs[0]["exact"]
        assert eqs[0]["x_interval"] is not None

    def test_stable_unknown_exit_two(self, capsys):
        code, out, _ = run(capsys, "check", "stable",
                           "--lhs", "[4,4,4]", "--rhs", "[7,6]")
        assert code == 2
        assert "UNKNOWN" in out

    def test_stable_refuted_on_the_normalized_pair(self, capsys):
        # The shared unit box hides the valuation gap of the normalized pair
        # [2,2,2,2]/[1,1,1,1,4]; the certificate names the base it normalized in.
        lhs, rhs = '{"base":2,"counts":[1,5,1]}', '{"base":2,"counts":[5,1,2]}'
        code, out, _ = run(capsys, "check", "stable", "--lhs", lhs, "--rhs", rhs, "--json")
        assert code == 1
        verdict = from_doc(StableVerdict, json.loads(out)["report"])
        assert verdict.status == "FAILS" and verdict.reason.base == 2
        lam = from_base_counts(PowerPartition(2, (1, 5, 1)))
        mu = from_base_counts(PowerPartition(2, (5, 1, 2)))
        assert verdict.reason.verify(lam, mu)

    @pytest.mark.parametrize("relation", ["embed", "supermajorize", "bulk", "stable", "all"])
    def test_entries_beyond_float_range(self, capsys, relation):
        # The common base is found from an entry too large for a float.
        big = 3**700
        code, out, _ = run(capsys, "check", relation, "--lhs", f"[{big}]",
                           "--rhs", f"[{big}, 1]")
        assert code == 0
        assert "FAILS" not in out

    @pytest.mark.parametrize("relation, lhs, rhs", [
        ("bulk", [2**60], [2**60 + 1]),
        ("stable", [2**60] * 2, [2**60 + 1, 2**60 - 1]),
        ("all", [2**60] * 2, [2**60 + 1, 2**60 - 1]),
        ("bulk", [2**1017] * 2, [2**1017 + 1, 2**1017 - 1]),
    ])
    def test_close_large_entries(self, capsys, relation, lhs, rhs):
        # The logarithms of the two largest values round to the same float;
        # bulk holds, and stable fails by the valuation rule.  At 2**1017 the
        # grid's s_max * ln v_1 passes the float range.
        code, out, _ = run(capsys, "check", relation, "--lhs", json.dumps(lhs),
                           "--rhs", json.dumps(rhs), "--json")
        doc = json.loads(out)
        if relation == "all":
            assert code == 0 and doc["bulk"]["holds"] and doc["stable"]["status"] == "FAILS"
        else:
            assert (code, doc["verdict"]) == ((0, "HOLDS") if relation == "bulk" else (1, "FAILS"))

    def test_check_all_human(self, capsys):
        code, out, _ = run(capsys, "check", "all",
                           "--lhs", "[4,2,2]", "--rhs", "[5,3]")
        assert code == 0
        assert "supermajorize:  HOLDS" in out
        assert "TightValuation" in out

    def test_files(self, capsys, tmp_path):
        lhs = tmp_path / "lhs.json"
        rhs = tmp_path / "rhs.json"
        lhs.write_text(json.dumps({"entries": [2, 2, 2, 2], "name": "lam1"}))
        rhs.write_text(json.dumps({"entries": [3, 3, 3], "name": "mu2"}))
        code, out, _ = run(capsys, "check", "supermajorize", str(lhs), str(rhs))
        assert code == 0 and "HOLDS" in out

    def test_malformed_doc_exit_65(self, capsys):
        code, _, err = run(capsys, "check", "embed",
                           "--lhs", '{"entries": [2], "counts": [1]}', "--rhs", "[2]")
        assert code == 65
        assert "exactly one" in err

    def test_entry_past_the_digit_limit_exit_65(self, capsys, tmp_path):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an
        # integer of more digits than int parses.
        long = "[1" + "0" * sys.get_int_max_str_digits() + "]"
        limit = f"an integer has more digits than the limit of {sys.get_int_max_str_digits()}"
        code, out, err = run(capsys, "check", "embed", "--lhs", long, "--rhs", long)
        assert (code, out, err) == (65, "", f"partembed: --lhs: {limit}\n")
        doc = tmp_path / "long.json"
        doc.write_text(long)
        code, _, err = run(capsys, "check", "embed", str(doc), "--rhs", "[4]")
        assert (code, err) == (65, f"partembed: {doc}: {limit}\n")
        corpus = tmp_path / "corpus.ndjson"
        corpus.write_text(f'{{"lhs": [4], "rhs": [4]}}\n{{"lhs": {long}, "rhs": [4]}}\n')
        code, out, err = run(capsys, "conjecture-scan", str(corpus))
        assert (code, out, err) == (65, "", f"partembed: {corpus}:2: {limit}\n")

    def test_deeply_nested_json_exit_65(self, capsys, tmp_path):
        # json.loads raises RecursionError for nesting past the recursion
        # limit, inline, from a file and on a scan corpus line.
        deep = "[" * 1000 + "2" + "]" * 1000
        limit = f"JSON nested too deeply for the recursion limit of {sys.getrecursionlimit()}"
        code, out, err = run(capsys, "check", "embed", "--lhs", deep, "--rhs", "[4]")
        assert (code, out, err) == (65, "", f"partembed: --lhs: {limit}\n")
        doc = tmp_path / "deep.json"
        doc.write_text(deep)
        code, out, err = run(capsys, "check", "embed", str(doc), "--rhs", "[4]")
        assert (code, out, err) == (65, "", f"partembed: {doc}: {limit}\n")
        corpus = tmp_path / "corpus.ndjson"
        corpus.write_text(f'{{"lhs": [4], "rhs": [4]}}\n{{"lhs": [4], "rhs": {deep}}}\n')
        code, out, err = run(capsys, "conjecture-scan", str(corpus))
        assert (code, out, err) == (65, "", f"partembed: {corpus}:2: {limit}\n")

    @pytest.mark.parametrize("relation", ["bulk", "stable", "all"])
    @pytest.mark.parametrize("e", [1024, 1100])
    def test_close_values_past_the_float_range_exit_65(self, capsys, relation, e):
        # [N,N] / [N+1,N-1] has no common base, and the numeric path's search
        # interval would end past the float range: at N = 2**1024 s_max is
        # inf, and at N = 2**1100 the gap of the top two logarithms is 0.
        n = 2**e
        code, out, err = run(capsys, "check", relation, "--lhs", json.dumps([n, n]),
                             "--rhs", json.dumps([n + 1, n - 1]), "--json")
        assert (code, out) == (65, "")
        assert err == ("partembed: the numeric bulk path cannot decide this pair: its search "
                       "interval would end past s = 1.798e+308, the largest float\n")

    @pytest.mark.parametrize("relation", ["bulk", "all"])
    @pytest.mark.parametrize("lhs, rhs", [([10**4000], [10**4000 + 1]),
                                          ([3**2000, 1], [3**2000 + 1])])
    def test_supermajorized_pairs_past_the_float_range_hold(self, capsys, relation, lhs, rhs):
        # The gap of the top two logarithms underflows to 0, but mu
        # supermajorizes lam, which decides bulk with no interior equality.
        argv = ["check", relation, "--lhs", json.dumps(lhs), "--rhs", json.dumps(rhs)]
        code, out, _ = run(capsys, *argv, "--json")
        bulk = json.loads(out)["report" if relation == "bulk" else "bulk"]
        assert code == 0 and bulk["holds"] and bulk["interior_equalities"] == []
        code, out, _ = run(capsys, *argv)
        assert code == 0 and ("bulk: HOLDS (numeric)" if relation == "bulk"
                              else "bulk:           HOLDS") in out

    @pytest.mark.parametrize("relation, lhs, rhs, extra", [
        # One box of 2**20000, which has 6,021 digits, in a small document.
        ("embed", [0] * 20000 + [1], [0] * 20000 + [1], ("--json",)),
        ("stable", [0] * 20000 + [1], [0] * 20000 + [1], ("--json",)),
        ("all", [0] * 20000 + [1], [0] * 20000 + [1], ("--json",)),
        # The failing threshold 2**20000 + 1; text all prints nothing either.
        ("supermajorize", [0] * 20001 + [1], [0] * 20000 + [3], ("--json",)),
        ("supermajorize", [0] * 20001 + [1], [0] * 20000 + [3], ()),
        ("all", [0] * 20001 + [1], [0] * 20000 + [3], ()),
    ], ids=["embed-json", "stable-json", "all-json", "sup-json", "sup-text", "all-text"])
    def test_answer_past_the_digit_limit_exit_65(self, capsys, relation, lhs, rhs, extra):
        code, out, err = run(capsys, "check", relation,
                             "--lhs", json.dumps({"base": 2, "counts": lhs}),
                             "--rhs", json.dumps({"base": 2, "counts": rhs}), *extra)
        assert (code, out) == (65, "")
        assert err == ("partembed: the answer holds an integer of more digits than the limit "
                       f"of {sys.get_int_max_str_digits()}\n")

    def test_other_value_errors_are_not_caught(self, monkeypatch):
        def fail(obj):
            raise ValueError("not a digit limit")
        monkeypatch.setattr(cli, "_write", fail)
        with pytest.raises(ValueError, match="not a digit limit"):
            cli.main(["check", "embed", "--lhs", "[2]", "--rhs", "[2]", "--json"])

    def test_file_that_is_not_utf8_exit_65(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_bytes(b"\xff[4]")
        code, _, err = run(capsys, "check", "embed", str(doc), "--rhs", "[4]")
        assert code == 65 and err.startswith(f"partembed: cannot read {doc}: 'utf-8' codec")
        code, _, err = run(capsys, "conjecture-scan", str(doc))
        assert code == 65 and err.startswith(f"partembed: cannot read {doc}: 'utf-8' codec")

    def test_bad_base_flag_exit_65(self, capsys):
        code, _, err = run(capsys, "check", "embed",
                           "--lhs", "[5]", "--rhs", "[5]", "--base", "2")
        assert code == 65

    def test_oversized_count_doc_exit_65(self, capsys):
        # One box over the limit, rejected before the counts are expanded.
        half = MAX_BOXES // 2
        rhs = json.dumps({"base": 2, "counts": [half + 1, half]})
        code, out, err = run(capsys, "check", "all", "--lhs", "[1]", "--rhs", rhs)
        assert code == 65 and out == ""
        assert str(MAX_BOXES) in err

    @pytest.mark.parametrize("tol", [()])
    def test_stable_and_bulk_share_one_bulk_verdict(self, capsys, tol):
        # f(s) = 4**s + 2 - 2 * 3**s dips below 0 just above s = 1.
        pair = ("--lhs", "[3,3]", "--rhs", "[4,1,1]", *tol, "--json")
        _, out, _ = run(capsys, "check", "all", *pair)
        report = json.loads(out)
        reason = report["stable"]["reason"]
        assert reason["rule"] == "BulkFails"
        assert reason["bulk"] == report["bulk"]
        _, out, _ = run(capsys, "check", "stable", *pair)
        assert json.loads(out)["report"] == report["stable"]

    def test_numeric_failure_between_coarse_samples(self, capsys):
        # f dips below 0 only near s = 3.83, between the samples of a coarse
        # grid; the sample count and the band are fixed, not options.
        pair = ["check", "bulk", "--lhs", "[30,25]", "--rhs", "[31,22,13,9,1]"]
        code, out, _ = run(capsys, *pair)
        assert code == 1 and "FAILS" in out and "s=3.82" in out
        for extra in (["--grid", "32"], ["--tol", "1e6"]):
            with pytest.raises(SystemExit) as e:
                cli.main(pair + extra)
            assert e.value.code == 64
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exit_64(self, capsys, tol):
        with pytest.raises(SystemExit) as e:
            cli.main(["check", "bulk", "--lhs", "[4,4,1]", "--rhs", "[5,3,1]", "--tol", tol])
        assert e.value.code == 64
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("check", "embed", "--budget", "-1"),
        ("check", "stable", "--max-steps", "-3"),
        ("check", "embed", "--base", "1"),
        ("check", "bulk", "--grid", "-5"),
        ("check", "bulk", "--grid", "1"),
        ("conjecture-scan", "corpus.ndjson", "--max-steps", "-1"),
    ], ids="_".join)
    def test_bad_options_exit_64(self, capsys, argv):
        pair = ["--lhs", "[5,4,3,3,2]", "--rhs", "[9,8]"] if argv[0] == "check" else []
        with pytest.raises(SystemExit) as e:
            cli.main([*argv, *pair])
        assert e.value.code == 64
        assert argv[2] in capsys.readouterr().err

    def test_usage_error_exit_64(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["check", "nonsense", "--lhs", "[1]", "--rhs", "[1]"])
        assert e.value.code == 64


class TestReproBattery:
    def test_exit_zero_and_eight_claims(self, capsys):
        code, out, _ = run(capsys, "repro-example24")
        assert code == 0
        assert "8/8 claims reproduced" in out

    def test_json_claim_list(self, capsys):
        code, out, _ = run(capsys, "repro-example24", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and len(doc["claims"]) == 8
        assert all(c["ok"] for c in doc["claims"])


class TestGen:
    def test_deterministic_under_seed(self, capsys):
        _, out1, _ = run(capsys, "gen", "powerq", "--base", "2", "--levels", "4",
                         "--seed", "7", "--count", "3")
        _, out2, _ = run(capsys, "gen", "powerq", "--base", "2", "--levels", "4",
                         "--seed", "7", "--count", "3")
        assert out1 == out2
        docs = [json.loads(line) for line in out1.splitlines()]
        assert all(d["base"] == 2 for d in docs)
        assert all("s7" in d["name"] for d in docs)

    def test_divisible_chain_invariant(self, capsys):
        _, out, _ = run(capsys, "gen", "divisible", "--len", "5", "--seed", "1",
                        "--count", "10")
        for line in out.splitlines():
            entries = json.loads(line)["entries"]
            assert all(entries[i] % entries[i + 1] == 0 for i in range(len(entries) - 1))

    def test_divisible_output_is_pinned(self, capsys):
        _, out, _ = run(capsys, "gen", "divisible", "--max", "1000000", "--seed", "3",
                        "--count", "5")
        assert out == (
            '{"entries": [249524, 4708, 4, 2, 2], "name": "divisible-s3-0"}\n'
            '{"entries": [635018], "name": "divisible-s3-1"}\n'
            '{"entries": [271953, 99, 3, 3, 3], "name": "divisible-s3-2"}\n'
            '{"entries": [670112, 86], "name": "divisible-s3-3"}\n'
            '{"entries": [910212, 1212, 1212, 1, 1], "name": "divisible-s3-4"}\n')

    def test_divisible_with_large_entries(self, capsys):
        # Divisors come from trial division up to sqrt(v), not up to v.
        start = time.monotonic()
        _, out, _ = run(capsys, "gen", "divisible", "--max", str(10**12), "--count", "5")
        assert time.monotonic() - start < 5
        docs = [json.loads(line)["entries"] for line in out.splitlines()]
        assert len(docs) == 5
        for entries in docs:
            assert all(a % b == 0 for a, b in zip(entries, entries[1:]))

    def test_random_docs_parse(self, capsys):
        _, out, _ = run(capsys, "gen", "random", "--max", "32", "--len", "6",
                        "--seed", "3", "--count", "5")
        for line in out.splitlines():
            part, name = cli.parse_partition_doc(json.loads(line))
            assert part.max_entry <= 32 and len(part) <= 6 and name

    @pytest.mark.parametrize("argv", [
        ("powerq", "--levels", "0"),
        ("powerq", "--base", "1"),
        ("powerq", "--max-count", "-1"),
        ("random", "--len", "0"),
        ("random", "--max", "0"),
        ("divisible", "--max", "0"),
        ("random", "--count", "-3"),
    ], ids="_".join)
    def test_bad_options_exit_64(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            cli.main(["gen", *argv])
        assert e.value.code == 64
        assert argv[1] in capsys.readouterr().err


class TestConjectureScan:
    def test_empty_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.ndjson"
        corpus.write_text("")
        code, out, _ = run(capsys, "conjecture-scan", str(corpus))
        assert code == 0
        assert "empty corpus" in out

    def test_rows(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.ndjson"
        lines = [
            # lam1/mu1 is not tight at s=1 (8 < 12): excluded
            {"name": "lam1-mu1", "lhs": [2, 2, 2, 2], "rhs": [4, 1, 1, 1, 1, 1, 1, 1, 1]},
            # tight at both ends with strict interior dominance: a real row
            {"name": "tight", "lhs": [4, 1, 1, 1, 1], "rhs": [4, 2, 2]},
            # no common power base: excluded
            {"name": "mixed", "lhs": [5], "rhs": [3]},
        ]
        corpus.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        code, out, _ = run(capsys, "conjecture-scan", str(corpus), "--json")
        assert code == 0
        doc = json.loads(out)
        by_name = {r["name"]: r for r in doc["rows"]}
        assert by_name["lam1-mu1"]["status"] == "excluded"
        assert "tight at s=1" in by_name["lam1-mu1"]["detail"]
        assert by_name["tight"]["status"] == "holds"
        assert by_name["mixed"]["status"] == "excluded"

    def test_names_that_are_not_strings(self, capsys, tmp_path):
        # A name is printed as str() of its JSON value, the line's own or
        # else its lhs document's.
        corpus = tmp_path / "corpus.ndjson"
        lines = [
            {"name": ["a", 1], "lhs": [2, 2, 2, 2], "rhs": [4, 1, 1, 1, 1, 1, 1, 1, 1]},
            {"lhs": {"entries": [4, 1, 1, 1, 1], "name": {"k": 2}}, "rhs": [4, 2, 2]},
        ]
        corpus.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        code, out, _ = run(capsys, "conjecture-scan", str(corpus))
        assert code == 0
        rows = out.splitlines()
        assert rows[0].startswith("['a', 1]  ") and "excluded" in rows[0]
        assert rows[1].startswith("{'k': 2}  ") and "holds" in rows[1]


GOLDEN = Path(__file__).parent / "golden"
TOUCH_PAIRS = (
    ("4_20", [0, 3200, 240, 0, 24, 8], [6400, 0, 0, 320, 0, 0, 1]),
    ("10by3_8", [0, 5440, 0, 204], [6400, 0, 1636, 0, 9]),
)
GOLDEN_QUERIES = {
    "all-2222-4_1x8": ("all", "[2,2,2,2]", "[4,1,1,1,1,1,1,1,1]"),
    "all-8x4_4x4-16_2x16_1x16": ("all", "[8,8,8,8,4,4,4,4]",
                                 json.dumps([16] + [2] * 16 + [1] * 16)),
    "all-422-53": ("all", "[4,2,2]", "[5,3]"),
    "all-4-22": ("all", "[4]", "[2,2]"),
    "all-33-411": ("all", "[3,3]", "[4,1,1]"),
    "embed-332-62": ("embed", "[3,3,2]", "[6,2]"),
    "bulk-332-62": ("bulk", "[3,3,2]", "[6,2]"),
    # LAM2/MU3 scaled by 3: no common power base, so the numeric path answers
    # and the printed hint pins the bits of its samples.
    "bulk-24x4_12x4-48_6x16_3x16": ("bulk", "[24,24,24,24,12,12,12,12]",
                                    json.dumps([48] + [6] * 16 + [3] * 16)),
    # Base-2 count pairs whose P(x) has two double roots past x = 2, so bulk
    # holds with two exact equalities and the printed x_interval bounds pin
    # the root refinement: P = (x-4)^2 (x^2-20)^2 and P = (3x-10)^2 (x-8)^2.
    **{f"{relation}-touch-{name}": (relation, json.dumps({"base": 2, "counts": lhs}),
                                     json.dumps({"base": 2, "counts": rhs}))
       for relation in ("bulk", "all")
       for name, lhs, rhs in TOUCH_PAIRS},
}


class TestJsonLayout:
    # The round trips below pass whatever the keys and their order are; the
    # printed documents are a public format, so pin them byte for byte.
    @pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
    def test_json_stdout_is_unchanged(self, capsys, name):
        relation, lhs, rhs = GOLDEN_QUERIES[name]
        code, out, _ = run(capsys, "check", relation, "--lhs", lhs, "--rhs", rhs, "--json")
        assert code == 0
        assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def _golden_pair(name):
    _, lhs, rhs = GOLDEN_QUERIES[name]
    return Pair(cli.parse_partition_doc(json.loads(lhs))[0],
                cli.parse_partition_doc(json.loads(rhs))[0])


class TestNormEqualityOracle:
    """``StableRefutation.verify`` checks a NormEquality certificate with its
    own rational square-free part, sharing no code with the exact path."""

    @pytest.mark.parametrize("name", ["all-8x4_4x4-16_2x16_1x16", "all-touch-4_20",
                                      "all-touch-10by3_8"])
    def test_pinned_certificates_verify_without_the_exact_path(self, monkeypatch, name):
        def forbidden(*args):
            raise AssertionError("verify called the exact path's square-free chain")

        monkeypatch.setattr(partembed.norms, "_squarefree_chain", forbidden)
        doc = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        ref = from_doc(RelationReport, doc).stable.reason
        xa, xb = ref.equality.x_interval
        assert ref.rule == NORM_EQUALITY and xa < xb
        lam, mu = _golden_pair(name).partitions
        assert ref.verify(lam, mu)
        # The same interval moved just past the root isolates nothing.
        moved = replace(ref, equality=replace(ref.equality, x_interval=(xb, 2 * xb - xa)))
        assert not moved.verify(lam, mu)


class TestJsonWriter:
    """``cli._write`` against its oracle, the standard library's
    ``json.dumps(to_doc(x), indent=2)``."""

    @staticmethod
    def written(capsys, obj):
        cli._write(obj)
        return capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
    def test_every_report_of_the_golden_pairs(self, capsys, name):
        pair = _golden_pair(name)
        witness, _ = pair.embedding
        for obj in (pair.report(), pair.stable, pair.catalyst, pair.bulk, pair.refutation,
                    witness, pair.sup, pair.lam, pair.mu):
            assert self.written(capsys, obj) == json.dumps(to_doc(obj), indent=2) + "\n"

    EDGE_REPORTS = (
        BulkVerdict(holds=True),  # None fields and an empty tuple
        BulkVerdict(False, failure_exponent=1e-07, failure_x=Fraction(-7, 3), interior_equalities=(
            EqualityPoint(1e16, True, (Fraction(5), Fraction(2**70, 3)), 2),
            EqualityPoint(math.inf, False),
            EqualityPoint(-math.inf, False),
            EqualityPoint(math.nan, False),
        )),
        StableVerdict(UNKNOWN, detail='budget \u2014 \u00fcber \u2603 "quoted" \\ \n\t\x00 \U0001d11e'),
        StableVerdict(HOLDS, StableWitness(Partition((2**70, 2**64 + 1, 1)),
                                           EmbeddingWitness((0, 1, 1), (5, 2**65)),
                                           (StepRecord(1, 0, 2**64, 0, 3, 0),)),
                      budget_spent=2**65),
        StableRefutation(TIGHT_VALUATION, prime=2**61 - 1, lam_valuation=0, mu_valuation=0),
        EmbeddingWitness((), ()),
        RelationReport(None, None, False, 2**64, StableVerdict(FAILS), BulkVerdict(True), None),
        Partition((2**64,)),
        Fraction(3),
        (),
        ((), ((),)),
        (True, False, 1, None, 0),  # bools among ints are not ints
        1e-07, 1e16, 1.5, -0.0, math.inf, 2**64 + 1, -3, "\u00e9", "", None, True, False,
    )

    @pytest.mark.parametrize("obj", EDGE_REPORTS)
    def test_edge_cases(self, capsys, obj):
        assert self.written(capsys, obj) == json.dumps(to_doc(obj), indent=2) + "\n"

    def test_literal_documents(self, capsys):
        # Dicts and lists as cmd_check and the other commands build them,
        # with report objects as values.
        for doc in (
            {}, [], {"a": [], "b": {}, "c": [[], {}, [[]], [{}]]},
            {"relation": "bulk", "verdict": "HOLDS", "base": None, "report": BulkVerdict(True)},
            {"claims": [{"claim": "\u00fc", "ok": True, "detail": ""}], "ok": False},
            {"rows": [{"name": "n", "nu": [2, 1, 1], "steps": 2**64}], "counts": {"holds": 1}},
            [1.5, [True, 1], [2**64, 3], {"x": Fraction(1, 3)}],
        ):
            want = json.dumps(doc, indent=2, default=to_doc) + "\n"
            assert self.written(capsys, doc) == want


def test_json_answers_leave_no_cyclic_garbage():
    # Twenty ``check bulk --json`` answers, exact (with root refinement) and
    # numeric, and twenty of ``check embed``, ``stable`` and ``all`` on a pair
    # the branch-and-bound search decides, free everything they allocate by
    # reference counting alone.
    argvs = [["check", "bulk", "--json", "--lhs", GOLDEN_QUERIES[name][1],
              "--rhs", GOLDEN_QUERIES[name][2]]
             for name in ("bulk-touch-4_20", "bulk-24x4_12x4-48_6x16_3x16")]
    argvs += [["check", relation, "--json", "--lhs", "[3,3,2]", "--rhs", "[6,2]"]
              for relation in ("embed", "stable", "all")]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)  # the parser, lazy imports and caches
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                before = len(gc.garbage)
                for _ in range(20):
                    cli.main(argv)
                gc.collect()
                left = len(gc.garbage) - before
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
        assert left == 0, argv


class TestJsonRoundTrips:
    def test_bulk_verdicts(self):
        for verdict in (
            exact_dominates_powerq(to_base_counts(LAM2, 2), to_base_counts(MU3, 2)),
            exact_dominates_powerq(to_base_counts(from_entries([4]), 2),
                                   to_base_counts(from_entries([2, 2]), 2)),
            dominates_all_s(LAM2, MU3),
            dominates_all_s(from_entries([2]), from_entries([1, 1, 1])),
        ):
            doc = json.loads(json.dumps(to_doc(verdict)))
            assert from_doc(BulkVerdict, doc) == verdict

    def test_stable_verdicts(self):
        for verdict in (
            Pair(LAM1, MU1).stable,
            Pair(LAM2, MU3).stable,
            Pair(LAM3, MU4).stable,
            Pair(from_entries([4, 4, 4]), from_entries([7, 6])).stable,
        ):
            doc = json.loads(json.dumps(to_doc(verdict)))
            assert from_doc(StableVerdict, doc) == verdict

    def test_relation_reports(self):
        for lam, mu in ((LAM1, MU1), (LAM3, MU4), (LAM1, MU2)):
            report = Pair(lam, mu).report()
            doc = json.loads(json.dumps(to_doc(report)))
            assert from_doc(RelationReport, doc) == report

    def test_partition_docs(self):
        doc = json.loads(json.dumps(to_doc(MU3)))
        assert from_doc(Partition, doc) == MU3
        assert cli.parse_partition_doc(doc)[0] == MU3
        # A counts document parses to its trimmed count vector, unexpanded.
        counts = {"base": 4, "counts": [1, 0, 2, 0, 0], "name": "c"}
        assert cli.parse_partition_doc(counts) == (PowerPartition(4, (1, 0, 2)), "c")


LAZY_MPMATH_SCRIPT = """
import contextlib, io, sys
import partembed, partembed.cli
with contextlib.redirect_stdout(io.StringIO()):
    partembed.cli.main(["check", "embed", "--json", "--lhs", "[3,2,2]", "--rhs", "[4,3]"])
print("mpmath" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    partembed.cli.main(["check", "bulk", "--json", "--lhs", "[3,2,2]", "--rhs", "[5,3]"])
print("mpmath" in sys.modules)
"""


def test_mpmath_loaded_only_on_the_numeric_path():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", LAZY_MPMATH_SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True"]


# [5]/[4,1,1] fails at s = 2 and [5,5]/[4] at s = 1, both found exactly;
# [3,2,2]/[5,3] holds, which takes the sampled path.
EXACT_BULK_FAILS_SCRIPT = """
import contextlib, io, sys
import partembed.cli
for lhs, rhs in (("[5]", "[4,1,1]"), ("[5,5]", "[4]"), ("[3,2,2]", "[5,3]")):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = partembed.cli.main(["check", "bulk", "--json", "--lhs", lhs, "--rhs", rhs])
    print(rc, "mpmath" in sys.modules)
"""


def test_exact_bulk_failures_leave_mpmath_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", EXACT_BULK_FAILS_SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["1 False", "1 False", "0 True"]
