"""List the statements of ``partembed`` that the golden corpus never runs.

    python tools/corpus_coverage.py [--tree DIR]

runs every query of ``tools/cli_corpus.py`` through ``partembed.cli.main``
in-process, as that script does, with a ``sys.settrace`` hook on the modules
of ``DIR/src/partembed`` (default: this checkout), imported after the hook is
set so that their module-level code counts.  A statement is a source line
that some code object compiled from the module maps bytecode to
(``co_lines``), so docstrings, comments and ``else:`` lines never count.  It
prints one line per statement that no query reached, as ``module.py:LINE
function  source``, then the count per module.  It needs no coverage package;
tracing makes the corpus run about three times slower.
"""

from __future__ import annotations

import argparse
import os
import sys
import types
from pathlib import Path

import cli_corpus


def statements(path: Path) -> dict[int, str]:
    """Each statement line of a module, with the qualified name of the
    innermost function that holds it."""
    where: dict[int, str] = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        for _, _, line in code.co_lines():
            if line is not None:
                where[line] = code.co_qualname
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return where


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=cli_corpus.ROOT,
                        help="checkout whose src/ holds the partembed to run")
    args = parser.parse_args(argv)
    todo = cli_corpus.queries()
    src = args.tree.resolve() / "src"
    files = sorted((src / "partembed").glob("*.py"))
    hit: dict[str, set[int]] = {str(path): set() for path in files}

    def local(frame, event, arg):
        hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local(frame, event, arg) if frame.f_code.co_filename in hit else None

    sys.path.insert(0, str(src))
    os.chdir(cli_corpus.ROOT)
    sys.settrace(on_call)
    try:
        import partembed.cli as cli

        for query in todo:
            cli_corpus.record(cli, query)
    finally:
        sys.settrace(None)

    totals = []
    for path in files:
        where = statements(path)
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(set(where) - hit[str(path)])
        for line in missed:
            print(f"{path.name}:{line}  {where[line]}  {source[line - 1].strip()}")
        totals.append(f"{path.name} {len(missed)}/{len(where)}")
    print(f"{len(todo)} queries; statements never run, per module: {', '.join(totals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
