"""Known-defect probe: runs the fixed pairs of ``workloads.known_defect_queries``.

The runner starts this script in a process of its own, under the same
address-space cap as the workloads, so that the out-of-memory reproducer does
not set the workload process's peak RSS.  Each pair is run like a workload
query and its answer, if it gives one, is re-checked.  One JSON line is printed
per pair: ``{"argv": [...], "failure": null | "<reason>", "wrong": bool}``.

    python3 bench/defects.py
"""

from __future__ import annotations

import json
import resource
import signal
import sys

from run import MEMORY_CAP_BYTES, SRC, _alarm, execute


def main() -> int:
    sys.path.insert(0, str(SRC))
    import partembed.cli as cli
    import verify
    from workloads import known_defect_queries

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_CAP_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, hard))
    signal.signal(signal.SIGALRM, _alarm)
    for query in known_defect_queries():
        rc, out, error, _ = execute(cli, query.argv())
        problems = []
        if error is None and rc in (64, 65):
            error = f"exit code {rc}"
        if error is None:
            try:
                problems = verify.check(query, rc, out)[1]
            except (ValueError, KeyError, TypeError, MemoryError) as exc:
                problems = [f"unreadable answer: {type(exc).__name__}: {exc}"]
        failure = error or ("; ".join(problems) if problems else None)
        print(json.dumps({"argv": query.argv(), "failure": failure, "wrong": bool(problems)}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
