"""Write tests/golden/corpus.json.gz, the same-bytes corpus.

The corpus is a fixed set of CLI requests drawn from the benchmark's
seeded streams (seed 1): each workload's warm-ups plus 2, 4 and 40
cycles of algebra-dense, derham-window and cli-mix.  For each request
it stores the argv and a short sha256 of (exit code, stdout, stderr)
from this checkout.  tests/test_cli.py replays it and never rewrites
it, so run this only when output is meant to change, and list each
changed request in CHANGES.md:

    PYTHONPATH=src python tests/make_corpus.py
"""

import gzip
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "bench"))

import workloads  # noqa: E402
from cli_cases import CORPUS, corpus_digest, run_cli  # noqa: E402

CYCLES = {"algebra-dense": 2, "derham-window": 4, "cli-mix": 40}
SEED = 1


def requests():
    for name, cycles in CYCLES.items():
        workload = workloads.WORKLOADS[name](SEED)
        yield from workload.warmups()
        stream = workload.cycles()
        for _ in range(cycles):
            yield from next(stream)


def main():
    corpus = [[req.argv, corpus_digest(*run_cli(req.argv))] for req in requests()]
    text = json.dumps(corpus, separators=(",", ":")).encode()
    CORPUS.write_bytes(gzip.compress(text, mtime=0))
    print(f"{len(corpus)} requests, {CORPUS.stat().st_size} bytes")


if __name__ == "__main__":
    main()
