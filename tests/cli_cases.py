"""Golden CLI invocations shared by the CLI and acceptance tests.

Each case is (name, argv).  Cases run in process through cli.main with
captured streams, and the whole observable behavior is rendered into
one text blob so a golden file pins exit code, stdout, and stderr at
once.
"""

import contextlib
import hashlib
import io
import pathlib

from grasskit import cli

CASES = [
    ("mul", ["mul", "-q", "3", "xi1 + xi2", "xi2*xi3"]),
    ("mul_json", ["mul", "--json", "-q", "2", "1 + xi1", "1/2*xi2"]),
    ("body", ["body", "-q", "2", "3/2 + xi1*xi2"]),
    ("invert", ["invert", "-q", "2", "1 + xi1"]),
    ("invert_fails", ["invert", "-q", "2", "xi1"]),
    (
        "hom_apply",
        ["hom-apply", "-q", "2", "--map", "xi1=xi2; xi2=xi1", "xi1*xi2"],
    ),
    (
        "hom_compose",
        [
            "hom-compose", "-q", "1", "--via", "2", "--target-rank", "3",
            "--inner", "xi1=xi1 + xi2", "--outer", "xi1=xi3; xi2=xi1",
        ],
    ),
    ("lemma1", ["lemma1", "-q", "1", "--gens", "zeta"]),
    (
        "lemma1_json",
        ["lemma1", "--json", "-q", "3", "--gens", "xi1; xi2*xi3"],
    ),
    (
        "jfamily",
        ["jfamily", "-q", "1", "--gens", "zeta", "--lambda", "3/2"],
    ),
    (
        "point_eval",
        [
            "point-eval", "--dims", "1,1", "-q", "2",
            "x1*th1", "2 + xi1*xi2; xi1",
        ],
    ),
    (
        "point_map",
        [
            "point-map", "--dims", "0,1", "-q", "1", "--target-rank", "2",
            "--map", "xi1=xi2", "xi1",
        ],
    ),
    (
        "eact",
        ["eact", "--dims", "0,2", "-q", "2", "--map", "xi2=xi1", "xi1; xi2"],
    ),
    (
        "class_eq",
        ["class-eq", "--dims", "0,1", "-q", "3", "xi1", "q=2: xi1"],
    ),
    (
        "class_eq_json",
        ["class-eq", "--json", "--dims", "0,1", "-q", "2", "xi1", "xi2"],
    ),
    ("derham_d", ["derham-d", "--dims", "1,0", "x1^2"]),
    ("derham_antider", ["derham-antider", "--dims", "1,0", "2*x1*dx1"]),
    (
        "derham_cohomology",
        [
            "derham-cohomology", "--dims", "1,1",
            "--max-degree", "3", "--max-weight", "5",
        ],
    ),
    ("parse_check_element", ["parse-check", "element", "q=3: xi2*xi1"]),
    (
        "parse_check_endo_json",
        ["parse-check", "endo", "xi2=xi1; xi1=xi2", "--json"],
    ),
]


def run_cli(argv):
    """Run one invocation in process; returns (exit code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def render_blob(code, out, err):
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


def run_case(argv):
    return render_blob(*run_cli(argv))


CORPUS = pathlib.Path(__file__).parent / "golden" / "corpus.json.gz"


def corpus_digest(code, out, err):
    """Short sha256 of one invocation's whole observable behavior."""
    return hashlib.sha256(repr((code, out, err)).encode()).hexdigest()[:16]
