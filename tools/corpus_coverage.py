"""List the statements of ``partembed`` that the golden corpus never runs.

    python tools/corpus_coverage.py [--tree DIR]

runs every query of ``tools/cli_corpus.py`` through ``partembed.cli.main``
in-process, as that script does, with a ``sys.settrace`` hook on the modules
of ``DIR/src/partembed`` (default: this checkout), imported after the hook is
set so that their module-level code counts.  A statement is a source line
that some code object compiled from the module maps bytecode to
(``co_lines``), so docstrings, comments and ``else:`` lines never count.  It
prints one line per statement that no query reached, as ``module.py:LINE
function  source``, then one ``never entered: module.py:LINE function`` line
per function, lambda or module body that no query ran, leaving out those
nested in one already listed (a comprehension is not listed: its lines are
among the statements), then the count per module.  It needs no coverage package; tracing makes the corpus run about
three times slower.
"""

from __future__ import annotations

import argparse
import os
import sys
import types
from pathlib import Path

import cli_corpus

_COMPREHENSIONS = ("<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>")


def _key(code: types.CodeType) -> tuple[int, str]:
    return code.co_firstlineno, code.co_qualname


def statements(path: Path, entered: set[tuple[int, str]]
               ) -> tuple[dict[int, str], list[tuple[int, str]]]:
    """Each statement line of a module, with the qualified name of the
    innermost function that holds it, and the (first line, qualified name)
    of each outermost function, lambda or module body not in ``entered``."""
    where: dict[int, str] = {}
    never: list[tuple[int, str]] = []
    todo = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), True)]
    while todo:
        code, outer_entered = todo.pop()
        for _, _, line in code.co_lines():
            if line is not None:
                where[line] = code.co_qualname
        is_entered = _key(code) in entered
        if outer_entered and not is_entered and code.co_name not in _COMPREHENSIONS:
            never.append(_key(code))
        todo += [(c, is_entered) for c in code.co_consts if isinstance(c, types.CodeType)]
    return where, never


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=cli_corpus.ROOT,
                        help="checkout whose src/ holds the partembed to run")
    args = parser.parse_args(argv)
    todo = cli_corpus.queries()
    src = args.tree.resolve() / "src"
    files = sorted((src / "partembed").glob("*.py"))
    hit: dict[str, set[int]] = {str(path): set() for path in files}
    entered: dict[str, set[tuple[int, str]]] = {str(path): set() for path in files}

    def local(frame, event, arg):
        hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename not in hit:
            return None
        entered[frame.f_code.co_filename].add(_key(frame.f_code))
        return local(frame, event, arg)

    sys.path.insert(0, str(src))
    os.chdir(cli_corpus.ROOT)
    sys.settrace(on_call)
    try:
        import partembed.cli as cli

        for query in todo:
            cli_corpus.record(cli, query)
    finally:
        sys.settrace(None)

    totals, never_entered = [], []
    for path in files:
        where, never = statements(path, entered[str(path)])
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(set(where) - hit[str(path)])
        for line in missed:
            print(f"{path.name}:{line}  {where[line]}  {source[line - 1].strip()}")
        never_entered += [f"never entered: {path.name}:{line}  {name}" for line, name in sorted(never)]
        totals.append(f"{path.name} {len(missed)}/{len(where)}")
    for line in never_entered:
        print(line)
    print(f"{len(todo)} queries; statements never run, per module: {', '.join(totals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
