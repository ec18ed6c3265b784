"""One set-up of the benchmark in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR < warmups.json

Imports grasskit.cli from SRC_DIR, then runs each argv of the JSON list
on stdin once through cli.main with its output discarded.  Prints one
JSON line with the seconds spent importing and in the whole set-up.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    warmups = json.load(sys.stdin)
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from grasskit import cli

    imported = time.perf_counter()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in warmups:
            cli.main(argv)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
