"""Compare the end-to-end bench metrics of a parent checkout and this one.

    python tools/ab_bench.py --parent DIR --workload W --pairs N [--seed S]

runs the bench command of ``BENCHMARK.json`` (``bench/run.py``) with
``--workload W --trace 0`` and the run length of ``BENCHMARK.json`` N times
in DIR and N times in this checkout, each run in its own tree as the working
directory.  Pair i runs the parent first when i is even and the change first
when it is odd, so that a drift of the machine's speed hits both sides alike.

For every end-to-end metric that ``BENCHMARK.json`` names it prints each
side's median with its quartiles, in how many pairs the change was strictly
better, the gap between the medians as a multiple of the parent's
interquartile range, and the ratio change/parent of the medians against the
metric's bound: ``over`` marks a change that is worse than the parent by more
than the bound.  Each run's ``correct`` and ``failed`` counts are printed as
it ends, with its ``attempted`` query count next to ``queries_per_s``, and
the table ends with an ``attempted`` row of medians, quartiles and their
ratio: the bench keeps a little memory per query, so a ``peak_rss_mb`` move
is read against the number of queries each run held.  The script only reads
``bench/`` and ``BENCHMARK.json``; the bench itself writes its traces under
``bench/out/`` of the tree it runs in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_bench(tree: Path, command: list[str], args: list[str]) -> dict:
    done = subprocess.run(command + args, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench failed in {tree} (exit {done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def worse_by(parent: float, change: float, better: str) -> float:
    """The fraction by which the change is worse than the parent (< 0: better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    ratio = change / parent
    return ratio - 1 if better == "lower" else 1 - ratio


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True, help="bench workload name")
    parser.add_argument("--pairs", type=int, required=True, help="number of parent/change pairs")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the bench's)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bench_args = ["--workload", args.workload, "--trace", "0", "--seconds", str(seconds)]
    if args.seed is not None:
        bench_args += ["--seed", str(args.seed)]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    attempted: dict[str, list[int]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_bench(trees[side], spec["command"], bench_args)
            runs[side].append(result["metrics"])
            attempted[side].append(result["attempted"])
            print(f"pair {i + 1}/{args.pairs} {side:<6} correct={result['correct']} "
                  f"failed={result['failed']} attempted={result['attempted']} queries_per_s="
                  f"{result['metrics']['queries_per_s']['value']:.1f}", flush=True)

    seed = "default" if args.seed is None else args.seed
    print(f"\n{args.workload}, seed {seed}, {args.pairs} pairs of {seconds:g} s runs")
    print(f"{'metric':<15}{'parent median (q1, q3)':>32}{'change median (q1, q3)':>32}"
          f"{'wins':>7}{'gap/IQR':>9}{'ratio':>8}{'bound':>7}")
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        parent = [m[name]["value"] for m in runs["parent"]]
        change = [m[name]["value"] for m in runs["change"]]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        if p3 > p1:
            gap = abs(cm - pm) / (p3 - p1)
        else:
            gap = 0.0 if cm == pm else float("inf")
        ratio = cm / pm if pm else float("nan")
        over = worse_by(pm, cm, better) > metric["bound"]
        print(f"{name:<15}{f'{pm:.4g} ({p1:.4g}, {p3:.4g})':>32}"
              f"{f'{cm:.4g} ({c1:.4g}, {c3:.4g})':>32}{f'{wins}/{args.pairs}':>7}"
              f"{gap:>9.2f}{ratio:>8.3f}{metric['bound']:>7.2f}{'  over' if over else ''}")
    (p1, pm, p3), (c1, cm, c3) = quartiles(attempted["parent"]), quartiles(attempted["change"])
    print(f"{'attempted':<15}{f'{pm:.0f} ({p1:.0f}, {p3:.0f})':>32}"
          f"{f'{cm:.0f} ({c1:.0f}, {c3:.0f})':>32}{'':>16}{cm / pm if pm else float('nan'):>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
