"""Runs the benchmark's timed CLI requests in a process of their own.

Usage: python3 worker.py SRC_DIR

Imports grasskit.cli from SRC_DIR.  Reads one JSON list of argv lists
per line on stdin, runs each through cli.main with stdout and stderr
captured, and answers with one JSON line holding [exit code, stdout,
stderr, seconds, calibration seconds] per request; the calibration is
timed right after the request.  At the end of its input it prints
{"peak_rss_mb": ...} and exits.  Requests are made and checked by the
parent, so the peak resident set size of this process is that of the
program, not of the benchmark.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction

_OPERANDS = [Fraction(i, 7 + i % 5) for i in range(1, 31)]


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the kind
    the program does, exact rational arithmetic in a dict.  It uses no
    grasskit code, so it moves with the speed the machine gives this
    process and not with the program's."""
    start = time.perf_counter()
    acc: dict = {}
    for i, a in enumerate(_OPERANDS):
        for b in _OPERANDS[i:i + 4]:
            key = (i + b.denominator) & 7
            acc[key] = acc.get(key, 0) + a * b
    return time.perf_counter() - start


def call(cli, argv: list) -> list:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash is a failed request, not a failed benchmark
        code = -1
        err.write(traceback.format_exc())
    return [code, out.getvalue(), err.getvalue(), time.perf_counter() - start]


def call_and_calibrate(cli, argv: list) -> list:
    return call(cli, argv) + [calibrate()]


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from grasskit import cli

    for line in sys.stdin:
        replies = [call_and_calibrate(cli, argv) for argv in json.loads(line)]
        sys.stdout.write(json.dumps(replies) + "\n")
        sys.stdout.flush()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps({"peak_rss_mb": peak}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
