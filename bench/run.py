"""Closed-loop query benchmark for partembed.

One client, one process, one thread: each query is an in-process
``partembed.cli.main(["check", <relation>, "--json", ...])`` with stdout
captured, and the next query is sent only after the last one returned.
Every answer is re-checked outside the timed region.  The last line of
standard output is one JSON object with the run's result.

    python3 bench/run.py --workload powerq-mix --seed 3 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, untraced and traced

See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, SpeedTrack

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden"

# Address-space cap of the workload and known-defect processes.  Without it one
# known-defect pair (a catalyst of ~1e15 boxes) keeps allocating until the
# machine runs out.
MEMORY_CAP_BYTES = 256 << 20
# A query still running after this long is stopped and counted as failed.
QUERY_TIME_LIMIT_S = 20
# The known-defect probe is stopped after this long; pairs it has not reached
# count as failing.
PROBE_TIME_LIMIT_S = 90
# The tail percentile: at the speeds seen when the benchmark was written, a
# 30 s run of any workload has at least 10 latencies beyond it.
TAIL_PERCENTILE = 99
SETUP_REPEATS = 11
# The reference loop runs after the timed import: its imports (fractions,
# statistics) would otherwise be preloaded for the package.
SETUP_CODE = ("import time; t = time.perf_counter(); import partembed; "
              "t = time.perf_counter() - t; from speed import reference_seconds; "
              "print(t, sorted(reference_seconds() for _ in range(5))[2])")

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "decided_frac": "fraction",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


class QueryTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so no handler in the program swallows it."""


def _alarm(signum, frame):
    raise QueryTimeout


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to ``import partembed`` in fresh interpreters, after one warm-up import.

    Returns the raw and the host-speed-adjusted times; each interpreter times
    the reference loop just after the import.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    raw, adjusted = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            seconds, reference = map(float, done.stdout.split())
            raw.append(seconds)
            adjusted.append(seconds * REFERENCE_S / reference)
    return raw, adjusted


def execute(cli, argv):
    """Run one query: (exit code, stdout, error name or None, seconds)."""
    out = io.StringIO()
    rc = error = None
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, QUERY_TIME_LIMIT_S)
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except MemoryError:
        error = "MemoryError"  # allocates nothing while the failed query's memory is still held
    except QueryTimeout:
        error = "QueryTimeout"
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # the program's own internal errors are measured, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), error, perf_counter() - start


def golden_key(query) -> str:
    return hashlib.sha256(query.key().encode()).hexdigest()[:20]


def load_golden(workload: str, seed: int) -> dict:
    path = GOLDEN / f"{workload}.json"
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc["verdicts"] if doc["seed"] == seed else {}


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    k = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return sorted_values[k]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import partembed.cli as cli
    import verify
    from tracing import COUNTERS, Tracer
    from workloads import GENERATORS

    golden = load_golden(workload, seed)
    tracer = Tracer() if trace else None
    stream = GENERATORS[workload](seed)
    speed = SpeedTrack()
    latencies, traced_latencies, speed_index, misses = [], [], [], []
    decided = wrong = 0
    timed = 0.0
    while timed < seconds:
        query = next(stream)
        argv = query.argv()
        speed_index.append(speed.tick())
        rc, out, error, elapsed = execute(cli, argv)
        timed += elapsed
        latencies.append(elapsed)
        if tracer is not None:
            tracer.install(len(latencies) - 1)
            try:
                rc, out, error, traced = execute(cli, argv)
            finally:
                tracer.remove()
            timed += traced
            traced_latencies.append(traced)
            tracer.counters["cli.main.output_bytes"] = (
                tracer.counters.get("cli.main.output_bytes", 0) + len(out))

        if error is None and rc in (64, 65):
            error = f"exit code {rc}"
        if error is not None:
            misses.append((query, error))
            continue
        try:
            letters, problems = verify.check(query, rc, out)
        except (ValueError, KeyError, TypeError, MemoryError) as exc:
            letters, problems = "", [f"unreadable answer: {type(exc).__name__}: {exc}"]
        expected = golden.get(golden_key(query))
        if expected and verify.golden_flips(expected, letters):
            problems.append(f"verdict {letters} contradicts golden {expected}")
        if letters and "U" not in letters:
            decided += 1
        if problems:
            wrong += 1
            misses.append((query, "; ".join(problems)))

    n = len(latencies)
    factors = speed.factors()
    factor = [factors[j] for j in speed_index]
    adjusted = [t * f for t, f in zip(latencies, factor)]
    result = {
        "workload": workload, "seed": seed, "trace": trace, "queries": n,
        "failed": len(misses), "wrong": wrong, "misses": misses,
        "beyond_tail": n - math.ceil(TAIL_PERCENTILE / 100 * n),
    }
    result["raw"] = {
        "queries_per_s": n / sum(latencies),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_tail_ms": percentile(sorted(latencies), TAIL_PERCENTILE) * 1e3,
    }
    result["speed_factor"] = statistics.median(factor)
    e2e = {
        "queries_per_s": n / sum(adjusted),
        "query_p50_ms": statistics.median(adjusted) * 1e3,
        "query_tail_ms": percentile(sorted(adjusted), TAIL_PERCENTILE) * 1e3,
        "decided_frac": decided / n,
        "ok_frac": 1 - len(misses) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result["end_to_end"] = e2e
    OUT.mkdir(exist_ok=True)
    failed_path = OUT / f"failed-{workload}-s{seed}{'-traced' if trace else ''}.ndjson"
    with open(failed_path, "w", encoding="utf-8") as fh:
        for query, reason in misses:
            fh.write(json.dumps({"argv": query.argv(), "reason": reason}) + "\n")
    result["failed_file"] = str(failed_path.relative_to(ROOT))
    if tracer is not None:
        trace_path = OUT / f"trace-{workload}-s{seed}.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
        result["missing_functions"] = tracer.missing
        calls, self_ns = tracer.per_function(factor)
        layer = {}
        for name, c, ns in zip(tracer.names, calls, self_ns):
            layer[f"{name}.calls"] = (c / n, "calls/query")
            layer[f"{name}.self_ms"] = (ns / 1e6 / n, "ms/query")
        for name in COUNTERS:
            layer[name] = (tracer.counters.get(name, 0) / n, "1/query")
        traced_adjusted = [t * f for t, f in zip(traced_latencies, factor)]
        layer["trace.overhead_pct"] = ((sum(traced_adjusted) / sum(adjusted) - 1) * 100, "%")
        layer["trace.queries"] = (n, "count")
        result["per_layer"] = layer
        result["self_share"] = {name: ns / max(1, sum(self_ns))
                                for name, ns in zip(tracer.names, self_ns)}
    return result


def probe_known_defects() -> dict:
    """Run ``defects.py`` in a child process and sum up its per-pair lines."""
    from workloads import known_defect_queries

    total = len(known_defect_queries())
    try:
        done = subprocess.run([sys.executable, str(BENCH / "defects.py")], cwd=ROOT,
                              capture_output=True, timeout=PROBE_TIME_LIMIT_S)
        stdout = done.stdout
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        stdout = exc.stdout or b""
    lines = []
    for line in stdout.decode(errors="replace").splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:  # the last line of a child stopped mid-write
            pass
    missing = total - len(lines)
    failing = [d for d in lines if d["failure"]]
    OUT.mkdir(exist_ok=True)
    path = OUT / "known-defects.ndjson"
    with open(path, "w", encoding="utf-8") as fh:
        for d in failing:
            fh.write(json.dumps(d) + "\n")
    reasons = {}
    for d in failing:
        reason = d["failure"].split(":")[0]
        reasons[reason] = reasons.get(reason, 0) + 1
    if missing:
        reasons["not reached"] = missing
    return {"pairs": total, "failing": len(failing) + missing, "reasons": reasons,
            "wrong": sum(d["wrong"] for d in lines), "file": str(path.relative_to(ROOT))}


def print_tables(result: dict, setup: tuple[list[float], list[float]] | None):
    r = result
    print(f"== {r['workload']}  seed {r['seed']}  tracing {'on' if r['trace'] else 'off'}  "
          f"queries {r['queries']}  failed {r['failed']} (wrong answers {r['wrong']})")
    print(f"   tail = p{TAIL_PERCENTILE} of {r['queries']} latencies, "
          f"{r['beyond_tail']} samples beyond it")
    print(f"   times are adjusted to the reference host speed; median factor "
          f"{r['speed_factor']:.3f} (raw times in the last column)")
    rows = [("setup_s", statistics.median(setup[1]), len(setup[1]),
             statistics.median(setup[0]))] if setup else []
    rows += [(k, v, r["queries"], r["raw"].get(k)) for k, v in r["end_to_end"].items()]
    print(f"   {'end-to-end metric':<22}{'value':>14}  {'unit':<10}{'samples':>8}{'raw':>14}")
    for name, value, samples, raw in rows:
        raw = "" if raw is None else f"{raw:.6g}"
        print(f"   {name:<22}{value:>14.6g}  {END_TO_END_UNITS[name]:<10}{samples:>8}{raw:>14}")
    if "per_layer" in r:
        print(f"   {'layer function':<34}{'calls/query':>12}{'self ms/query':>15}{'self share':>12}")
        layer = r["per_layer"]
        for name, share in r["self_share"].items():
            print(f"   {name:<34}{layer[name + '.calls'][0]:>12.4g}"
                  f"{layer[name + '.self_ms'][0]:>15.4g}{share:>12.1%}")
        print(f"   {'layer counter':<54}{'per query':>12}")
        for name, (value, unit) in layer.items():
            if not name.endswith((".calls", ".self_ms")):
                print(f"   {name:<54}{value:>12.6g}  {unit}")
        print(f"   spans and counters written to {r['trace_file']}")
        if r["missing_functions"]:
            print(f"   not found in the package, so not traced: {', '.join(r['missing_functions'])}")
    for query, reason in r["misses"][:20]:
        print(f"   FAILED {' '.join(query.argv()[1:])}: {reason[:300]}")
    if len(r["misses"]) > 20:
        print(f"   ... and {len(r['misses']) - 20} more failed queries")
    if r["misses"]:
        print(f"   every failed query is listed in {r['failed_file']}")


def print_probe(probe: dict):
    reasons = ", ".join(f"{k} {v}" for k, v in sorted(probe["reasons"].items())) or "none"
    print(f"== known-defect probe (not part of any workload): {probe['failing']} of "
          f"{probe['pairs']} pairs fail ({reasons}); wrong answers {probe['wrong']}")
    print(f"   every failing pair is listed in {probe['file']}")


def write_golden(workload: str, count: int):
    """Record the verdicts of the first ``count`` queries of the default seed."""
    import partembed.cli as cli
    import verify
    from workloads import GENERATORS, WORKLOADS

    seed = WORKLOADS[workload]["default_seed"]
    stream = GENERATORS[workload](seed)
    verdicts = {}
    for _ in range(count):
        query = next(stream)
        rc, out, error, _ = execute(cli, query.argv())
        if error is None and rc not in (64, 65):
            letters, problems = verify.check(query, rc, out)
            if not problems:
                verdicts[golden_key(query)] = letters
    path = GOLDEN / f"{workload}.json"
    path.write_text(json.dumps({"seed": seed, "queries": count, "verdicts": verdicts},
                               indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(verdicts)} verdicts of {count} queries to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's default seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="query time to measure per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="1: per-layer metrics from a traced run; "
                             "default for --workload all: both")
    parser.add_argument("--write-golden", type=int, metavar="N", default=0,
                        help="record the verdicts of the first N queries of the default seed")
    args = parser.parse_args(argv)

    if not (SRC / "partembed" / "__init__.py").is_file():
        print(f"bench: no partembed package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else ([0, 1] if args.workload == "all" else [0])
    setup = measure_setup() if 0 in traces and not args.write_golden else None
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_CAP_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, hard))
    if args.write_golden:
        for workload in workloads:
            write_golden(workload, args.write_golden)
        return 0

    metrics, attempted, failed, correct = {}, 0, 0, True
    traced_prefixes = []
    for workload in workloads:
        seed = args.seed if args.seed is not None else WORKLOADS[workload]["default_seed"]
        for trace in traces:
            result = run_workload(workload, seed, args.seconds, bool(trace))
            print_tables(result, setup if not trace else None)
            attempted += result["queries"]
            failed += result["failed"]
            correct = correct and result["wrong"] == 0
            prefix = f"{workload}/" if len(workloads) > 1 else ""
            if trace:
                found = result["per_layer"]
                traced_prefixes.append(prefix)
            else:
                found = {k: (v, END_TO_END_UNITS[k]) for k, v in result["end_to_end"].items()}
                found["setup_s"] = (statistics.median(setup[1]), "s")
            for name, (value, unit) in found.items():
                metrics[prefix + name] = {"value": value, "unit": unit}
    probe = probe_known_defects()
    print_probe(probe)
    correct = correct and probe["wrong"] == 0
    for prefix in traced_prefixes:
        metrics[prefix + "known_defects.failing"] = {"value": probe["failing"], "unit": "count"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
