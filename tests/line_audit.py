"""List the `raise` statements in src/grasskit that the test suite never reaches.

Runs the tier-1 suite in this process under sys.settrace, records every
line executed in src/grasskit, and prints each `raise` statement none of
whose lines ran, as file:line.  Code run only in child processes (the
hostile-size CLI checks) is not seen, so its raises are listed too.

    PYTHONPATH=src python tests/line_audit.py [extra pytest args]

Uses the standard library plus the suite's own pytest.  Tracing makes the
suite several times slower than an untraced run.  The name does not
match test_*, so pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "grasskit"


def raise_spans(path: Path) -> list[tuple[int, int]]:
    """(first line, last line) of every raise statement in a source file."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted(
        (node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
    )


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in process; return its exit code and the lines run per file."""
    import pytest

    prefix = str(SRC) + "/"
    seen: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen[filename].add(frame.f_lineno)
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main(argv: list[str]) -> int:
    code, seen = run_traced(argv)
    unreached = 0
    total = 0
    for path in sorted(SRC.glob("*.py")):
        ran = seen.get(str(path), set())
        for first, last in raise_spans(path):
            total += 1
            if not ran.intersection(range(first, last + 1)):
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{first}")
    print(f"{unreached} of {total} raise statements unreached (pytest exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
