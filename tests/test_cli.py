"""End-to-end checks of the command line front end."""

import argparse
import gzip
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

import cli_cases
from cli_cases import run_cli
from grasskit import cli, derham, grassmann, homs, syntax

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


# ------------------------------------------------- verbs

def test_mul():
    code, out, err = run_cli(["mul", "-q", "3", "xi1 + xi2", "xi2*xi3"])
    assert (code, out, err) == (0, "xi1*xi2*xi3\n", "")


def test_mul_json():
    code, out, _ = run_cli(["mul", "--json", "-q", "2", "xi1", "xi2"])
    assert code == 0
    assert json.loads(out) == {
        "rank": 2,
        "terms": [{"indices": [1, 2], "coeff": "1"}],
    }


def test_body():
    code, out, _ = run_cli(["body", "-q", "2", "3/2 + xi1*xi2"])
    assert (code, out) == (0, "3/2\n")


def test_invert():
    code, out, _ = run_cli(["invert", "-q", "2", "1 + xi1"])
    assert (code, out) == (0, "1 - xi1\n")


def test_hom_apply():
    code, out, _ = run_cli(
        ["hom-apply", "-q", "2", "--map", "xi1=xi2; xi2=xi1", "xi1*xi2"]
    )
    assert (code, out) == (0, "-xi1*xi2\n")


def test_hom_apply_into_a_different_rank():
    code, out, _ = run_cli(
        ["hom-apply", "-q", "1", "--target-rank", "3",
         "--map", "xi1=xi2*xi3*xi1", "xi1"]
    )
    assert (code, out) == (0, "xi1*xi2*xi3\n")


def test_hom_compose():
    code, out, _ = run_cli(
        ["hom-compose", "-q", "1", "--via", "2", "--target-rank", "3",
         "--inner", "xi1=xi1 + xi2", "--outer", "xi1=xi3; xi2=xi1"]
    )
    assert (code, out) == (0, "xi1=xi1 + xi3\n")


def test_lemma1_report():
    code, out, _ = run_cli(["lemma1", "-q", "1", "--gens", "zeta"])
    assert code == 0
    assert out == (
        "m = 1\n"
        "beta = xi1\n"
        "scale = 1\n"
        "dimension = 2\n"
        "verified = true\n"
    )


def test_lemma1_json():
    code, out, _ = run_cli(
        ["lemma1", "--json", "-q", "3", "--gens", "xi1; xi2*xi3"]
    )
    assert code == 0
    assert json.loads(out) == {
        "m": 1,
        "beta": [1],
        "scale": "1",
        "dimension": 4,
        "verified": True,
    }


def test_jfamily_rescales_the_readout():
    code, out, _ = run_cli(
        ["jfamily", "-q", "1", "--gens", "zeta", "--lambda", "3/2"]
    )
    assert code == 0
    assert "scale = 3/2" in out
    assert "verified = true" in out


def test_readouts_are_verified_once(monkeypatch):
    # odd_line_epi verifies the readout it builds; only a rescaled one
    # needs a second check
    calls = []
    verify = homs.verify_hom

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(homs, "verify_hom", counted)
    assert run_cli(["lemma1", "-q", "2", "--gens", "xi1; xi2"])[0] == 0
    assert len(calls) == 1
    assert run_cli(["jfamily", "-q", "2", "--gens", "xi1; xi2", "--lambda", "2"])[0] == 0
    assert len(calls) == 3


def test_point_eval():
    code, out, _ = run_cli(
        ["point-eval", "--dims", "1,1", "-q", "2",
         "x1*th1", "2 + xi1*xi2; xi1"]
    )
    assert (code, out) == (0, "2*xi1\n")


def test_point_map():
    code, out, _ = run_cli(
        ["point-map", "--dims", "0,1", "-q", "1", "--target-rank", "2",
         "--map", "xi1=xi2", "xi1"]
    )
    assert (code, out) == (0, "q=2: xi2\n")


def test_eact_drops_to_the_minimal_rank():
    code, out, _ = run_cli(
        ["eact", "--dims", "0,2", "-q", "2", "--map", "xi2=xi1", "xi1; xi2"]
    )
    assert (code, out) == (0, "q=1: 0; xi1\n")


def test_class_eq():
    code, out, _ = run_cli(
        ["class-eq", "--dims", "0,1", "-q", "3", "xi1", "q=2: xi1"]
    )
    assert (code, out) == (0, "equal\n")
    code, out, _ = run_cli(
        ["class-eq", "--dims", "0,1", "-q", "2", "xi1", "xi2"]
    )
    assert (code, out) == (0, "not equal\n")


def test_derham_d():
    code, out, _ = run_cli(["derham-d", "--dims", "1,0", "x1^2"])
    assert (code, out) == (0, "2*x1*dx1\n")


def test_derham_antider():
    code, out, _ = run_cli(["derham-antider", "--dims", "1,0", "2*x1*dx1"])
    assert (code, out) == (0, "x1^2\n")


def test_derham_cohomology():
    code, out, _ = run_cli(
        ["derham-cohomology", "--dims", "1,1",
         "--max-degree", "3", "--max-weight", "5"]
    )
    assert code == 0
    assert out == "H^0 = 1\nH^1 = 0\nH^2 = 0\nH^3 = 0\ncross-check = agree\n"


def test_parse_check_canonicalizes():
    code, out, _ = run_cli(["parse-check", "element", "q=3: xi2*xi1"])
    assert (code, out) == (0, "-xi1*xi2\n")
    code, out, _ = run_cli(
        ["parse-check", "point", "q=2: 1 + xi1*xi2; xi2", "--dims", "1,1"]
    )
    assert (code, out) == (0, "1 + xi1*xi2; xi2\n")
    code, out, _ = run_cli(
        ["parse-check", "form", "dx1*xi1", "--dims", "1,1"]
    )
    assert (code, out) == (0, "-xi1*dx1\n")


# ------------------------------------------------- exit codes

# (argv, expected exit code, error name on stderr)
ERROR_CASES = [
    # parse phase: 2
    (["mul", "-q", "2", "xi1 +", "xi2"], 2, "ParseError"),
    (["mul", "-q", "-1", "xi1", "xi1"], 2, "NonCanonicalRank"),
    (["parse-check", "form", "dx2", "--dims", "1,0"], 2, "IndexOutOfRange"),
    (["hom-apply", "-q", "2", "--map", "xi1=1 + xi1", "xi1"], 2, "NotOdd"),
    (
        ["point-eval", "--dims", "1,1", "-q", "2", "x1", "xi1; xi1"],
        2,
        "ParityViolation",
    ),
    (["parse-check", "hom", "xi1=xi1"], 2, "ParseError"),
    (["parse-check", "point", "xi1", "--dims", "0,1"], 2, "ParseError"),
    (["parse-check", "form", "dx1"], 2, "ParseError"),
    # operation phase: 1
    (["invert", "-q", "2", "xi1"], 1, "NotInvertible"),
    (["mul", "-q", "2", "q=2: xi1", "q=3: xi2"], 1, "RankMismatch"),
    (["lemma1", "-q", "2", "--gens", "1 + xi1*xi2"], 1, "NoOddSector"),
    (["lemma1", "-q", "2", "--gens", "1 + xi1"], 1, "NotHomogeneous"),
    (["derham-antider", "--dims", "0,1", "xi1*dxi1"], 1, "NotClosed"),
    (
        ["derham-cohomology", "--dims", "2,2", "--max-degree", "3",
         "--max-weight", "5", "--budget", "10"],
        1,
        "BudgetExceeded",
    ),
]


@pytest.mark.parametrize(
    "argv,expected_code,error_name",
    ERROR_CASES,
    ids=[case[2] + "_" + case[0][0] for case in ERROR_CASES],
)
def test_error_exit_codes(argv, expected_code, error_name):
    code, out, err = run_cli(argv)
    assert code == expected_code
    assert out == ""
    assert err.startswith(f"{error_name}: ")


def test_overlong_literal_is_a_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter does not cap int() digit strings")
    code, out, err = run_cli(["mul", "-q", "1", "1" * (limit + 1), "1"])
    assert (code, out) == (2, "")
    assert err.startswith("ParseError: ") and "(at position 0)" in err


def test_overlong_result_is_a_budget_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or limit >= 5999:
        pytest.skip("this interpreter prints a 6000-digit integer")
    sevens = "7" * 3000
    code, out, err = run_cli(["mul", "-q", "1", sevens, sevens])
    assert (code, out) == (1, "")
    assert err == (
        "BudgetExceeded: coefficient of about 6000 digits is over the "
        f"{limit}-digit print limit\n"
    )


def test_huge_power_at_a_point_is_quick():
    start = time.perf_counter()
    code, out, err = run_cli(
        ["point-eval", "--dims", "1,0", "-q", "2", "x1^200000", "1 + xi1*xi2"]
    )
    assert (code, out, err) == (0, "1 + 200000*xi1*xi2\n", "")
    assert time.perf_counter() - start < 5


def test_huge_power_with_a_long_result_is_a_quick_budget_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or limit >= 60206:
        pytest.skip("this interpreter prints a 60206-digit integer")
    # the second exponent would build a 30-million-digit body if the
    # power were not refused before it is computed
    for exponent, seconds in (("200000", 5), ("100000000", 0.5)):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["point-eval", "--dims", "1,0", "-q", "2", f"x1^{exponent}", "2 + xi1*xi2"]
        )
        assert (code, out) == (1, "")
        assert err.startswith("BudgetExceeded: ")
        assert time.perf_counter() - start < seconds


@pytest.mark.parametrize("argv, expected", [
    (["mul", "-q", "40000000000", "xi1", "xi2"], "xi1*xi2\n"),
    (["invert", "-q", "40000000000", "1 + xi1"], "1 - xi1\n"),
    (["lemma1", "-q", "40000000000", "--gens", "xi1;xi2"],
     "m = 1\nbeta = xi1\nscale = 1\ndimension = 4\nverified = true\n"),
])
def test_huge_rank_with_few_terms_is_quick(argv, expected):
    # a rank-wide mask alone would be 5 GB at this rank
    start = time.perf_counter()
    assert run_cli(argv) == (0, expected, "")
    assert time.perf_counter() - start < 2


def test_mul_whose_partial_sums_cancel_is_not_refused():
    # an odd linear element squares to 0, though its 79,800 cross terms
    # pass the term cap before they cancel
    odd = " + ".join(f"xi{i}" for i in range(1, 401))
    assert run_cli(["mul", "-q", "400", odd, odd]) == (0, "0\n", "")


def test_huge_endo_support_is_a_quick_budget_error():
    start = time.perf_counter()
    code, out, err = run_cli(
        ["eact", "--dims", "1,0", "-q", "1", "--map", "xi1" + "0" * 24 + "=0", "1"]
    )
    assert (code, out) == (2, "")
    assert err.startswith("BudgetExceeded: endomorphism support 1000")
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("dims, degree, weight, expected", [
    ("3000,0", 0, 0, (0, "H^0 = 1\ncross-check = agree\n", "")),
    ("0,16", 1, 0, (0, "H^0 = 1\nH^1 = 0\ncross-check = agree\n", "")),
    ("0,18", 1, 0, (0, "H^0 = 1\nH^1 = 0\ncross-check = agree\n", "")),
    ("0,22", 1, 0, (0, "H^0 = 1\nH^1 = 0\ncross-check = agree\n", "")),
    ("40,0", 1, 0, (0, "H^0 = 1\nH^1 = 0\ncross-check = agree\n", "")),
    ("3000,0", 0, 1, (1, "", "BudgetExceeded: more than 2133 monomials of 3000 "
                      "coordinates in the requested degree/weight window\n")),
    ("1000000000,0", 0, 0, (1, "", "BudgetExceeded: more than 0 monomials of "
                            "1000000000 coordinates in the requested "
                            "degree/weight window\n")),
])
def test_wide_de_rham_windows_are_quick(dims, degree, weight, expected):
    # the window walk visits only masks within the bounds, and a wide
    # window is capped by its exponents before memory fills up
    start = time.perf_counter()
    assert run_cli(
        ["derham-cohomology", "--dims", dims, "--max-degree", str(degree),
         "--max-weight", str(weight)]
    ) == expected
    assert time.perf_counter() - start < 1


_BIG = "100000000000"
_H0 = "H^0 = 1\ncross-check = agree\n"


def _window(dims, degree, weight):
    return ["derham-cohomology", "--dims", dims, "--max-degree", degree, "--max-weight", weight]


def _pairs(first, count):
    """1 + xi_f*xi_f+1 + ...: count commuting pairs, so 2^count terms in
    its inverse or in its count-th power."""
    return "1 + " + " + ".join(f"xi{i}*xi{i + 1}" for i in range(first, first + 2 * count, 2))


# (argv, exit code, stdout, error name): sizes a short text can ask for
# that would take gigabytes or hours unless refused or walked lazily
HOSTILE_CASES = [
    (["mul", "-q", "40000000000", "xi39999999999", "xi1"], 2, "", "BudgetExceeded"),
    (["parse-check", "element", f"q={_BIG}: xi99999999999"], 2, "", "BudgetExceeded"),
    (["lemma1", "-q", _BIG, "--gens", "xi99999999999"], 2, "", "BudgetExceeded"),
    (["point-eval", "--dims", "0,1", "-q", _BIG, "th1", "xi99999999999"],
     2, "", "BudgetExceeded"),
    (["eact", "--dims", "1,0", "-q", "1", "--map", f"xi1=xi{_BIG}", "1"],
     2, "", "BudgetExceeded"),
    (["derham-d", "--dims", f"{_BIG},0", "x1"], 2, "", "BudgetExceeded"),
    (["derham-antider", "--dims", f"0,{_BIG}", "dxi1"], 2, "", "BudgetExceeded"),
    (["point-eval", "--dims", f"{_BIG},0", "-q", "1", "x1", "1"], 2, "", "BudgetExceeded"),
    (["parse-check", "form", "x1", "--dims", f"{_BIG},0"], 2, "", "BudgetExceeded"),
    (["parse-check", "superfunction", "x1", "--dims", f"{_BIG},0"], 2, "", "BudgetExceeded"),
    (["parse-check", "hom", "-q", "30000000", "--target-rank", "1", "xi1=xi1"],
     2, "", "BudgetExceeded"),
    (["hom-apply", "-q", _BIG, "--target-rank", "1", "--map", "xi1=xi1", "xi1"],
     2, "", "BudgetExceeded"),
    (["point-map", "--dims", "0,1", "-q", _BIG, "--target-rank", "1", "--map", "xi1=xi1",
      "xi1"], 2, "", "BudgetExceeded"),
    (["hom-compose", "-q", "1", "--via", _BIG, "--target-rank", "1", "--inner", "xi1=xi1",
      "--outer", "xi1=xi1"], 2, "", "BudgetExceeded"),
    (_window("2,2", _BIG, "0"), 1, "", "BudgetExceeded"),
    (_window("1,0", "0", "100000"), 1, "", "BudgetExceeded"),
    (_window("1000000,0", "0", "1"), 1, "", "BudgetExceeded"),
    (_window("0,1000000", "0", "1"), 1, "", "BudgetExceeded"),
    (_window("1000000,0", "0", "0"), 0, _H0, None),
    (_window("0,1", "0", _BIG), 0, _H0, None),
    (_window("0,0", "0", _BIG), 0, _H0, None),
    (["invert", "-q", "60", _pairs(1, 30)], 1, "", "BudgetExceeded"),
    (["point-eval", "--dims", "1,0", "-q", "60", "x1^30", _pairs(1, 30)],
     1, "", "BudgetExceeded"),
    # two powers of 2^15 terms each, then one product of 2^30 pairs
    (["point-eval", "--dims", "2,0", "-q", "60", "x1^15*x2^15",
      f"{_pairs(1, 15)}; {_pairs(31, 15)}"], 1, "", "BudgetExceeded"),
    # a 2^18-term power, refused once its running sum passes the cap
    (["point-eval", "--dims", "1,0", "-q", "36", "x1^18", _pairs(1, 18)],
     1, "", "BudgetExceeded"),
]


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "argv, expected_code, expected_out, error_name",
    HOSTILE_CASES,
    ids=[f"{i}-{case[0][0]}" for i, case in enumerate(HOSTILE_CASES)],
)
def test_hostile_sizes_are_quick(argv, expected_code, expected_out, error_name):
    # a fresh process under a 2 GB address-space limit, so that a
    # regression fails as a MemoryError instead of filling memory
    pytest.importorskip("resource")
    src = pathlib.Path(grassmann.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "grasskit.cli", *argv], capture_output=True, text=True,
        env=env, preexec_fn=_limit_memory, timeout=30,
    )
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (expected_code, expected_out)
    if error_name is None:
        assert proc.stderr == ""
    else:
        assert proc.stderr.startswith(f"{error_name}: ") and "Traceback" not in proc.stderr


_SMALL_WINDOW = ["derham-cohomology", "--dims", "1,0", "--max-degree", "1", "--max-weight", "1"]


def _fail_homotopy_route(monkeypatch):
    monkeypatch.setattr(derham, "_euler_rule", lambda mono: [])
    return _SMALL_WINDOW, "internal check failed: Euler homotopy identity broke on "


def _fail_cross_check(monkeypatch):
    monkeypatch.setattr(derham, "cohomology_dims_by_homotopy", lambda *args: [1, 1])
    return _SMALL_WINDOW, "elimination [1, 0] disagrees with homotopy [1, 1]"


def _fail_readout(monkeypatch):
    failed = homs.HomReport(False, (), (), None)
    monkeypatch.setattr(homs, "verify_hom", lambda *args: failed)
    return ["lemma1", "-q", "1", "--gens", "zeta"], "internal check failed: readout map "


def _fail_closure_parity(monkeypatch):
    mixed = grassmann.generator(2, 1) + grassmann.monomial_element(2, [1, 2])
    monkeypatch.setattr(homs, "mul", lambda a, b: mixed)
    return ["lemma1", "-q", "2", "--gens", "xi2"], "internal check failed: echelon basis "


def _fail_round_trip(monkeypatch):
    monkeypatch.setattr(syntax, "print_canonical", lambda value: "xi2")
    return ["parse-check", "element", "q=3: xi1"], "canonical text did not round-trip"


@pytest.mark.parametrize(
    "break_check",
    [
        _fail_homotopy_route,
        _fail_cross_check,
        _fail_readout,
        _fail_closure_parity,
        _fail_round_trip,
    ],
)
def test_failed_self_check_is_an_internal_error(monkeypatch, break_check):
    argv, message = break_check(monkeypatch)
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"InternalCheckFailed: {message}")


def test_parser_reuse_keeps_every_golden_byte_identical():
    # the parser is built once per process; interleaving every golden case
    # with a usage error must leave each call's output as a lone call's
    blobs = [(GOLDEN_DIR / f"{name}.txt").read_text() for name, _ in cli_cases.CASES]
    cli._parser.cache_clear()
    for _ in range(2):
        for (_, argv), blob in zip(cli_cases.CASES, blobs):
            code, out, err = run_cli(["mul", "-q", "2"])
            assert code == 2 and out == "" and err.startswith("usage: grasskit mul")
            assert cli_cases.run_case(argv) == blob
    assert cli._parser.cache_info().misses == 1


def _verb_parsers():
    parser = cli.build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser, verbs.choices


def test_usage_lines_match_golden(monkeypatch):
    # usage lines, unlike full --help bodies, read the same on Python
    # 3.10 to 3.12 (3.13 wraps four of them differently); COLUMNS fixes
    # where they wrap
    monkeypatch.setenv("COLUMNS", "80")
    parser, verbs = _verb_parsers()
    blob = parser.format_usage() + "".join(p.format_usage() for p in verbs.values())
    path = GOLDEN_DIR / "usage.txt"
    if os.environ.get("GRASSKIT_REGEN_GOLDEN"):
        path.write_text(blob)
    assert blob == path.read_text()


def test_every_verb_has_a_golden_case():
    _, verbs = _verb_parsers()
    cased = {argv[0] for _, argv in cli_cases.CASES}
    assert sorted(set(verbs) - cased) == []


def test_usage_errors_exit_2():
    code, _, err = run_cli(["mul", "-q", "2", "xi1"])  # missing operand
    assert code == 2 and "usage" in err
    code, _, err = run_cli(["frobnicate"])
    assert code == 2 and "usage" in err
    code, _, err = run_cli([])
    assert code == 2


def test_negative_dims_need_the_equals_form():
    # as with --lambda, a bare -1,0 reads as an option to argparse
    code, out, err = run_cli(["derham-d", "--dims", "-1,0", "x1"])
    assert (code, out) == (2, "") and "--dims: expected one argument" in err
    code, out, err = run_cli(["derham-d", "--dims=-1,0", "x1"])
    assert (code, out) == (2, "") and "dims must be nonnegative" in err


@pytest.mark.parametrize("dims,message", [
    ("1", "dims must look like M,N"),
    ("1,0,0", "dims must look like M,N"),
    ("a,0", "dims must be integers"),
])
def test_dims_must_be_two_integers(dims, message):
    code, out, err = run_cli(["derham-d", "--dims", dims, "x1"])
    assert (code, out) == (2, "") and f"--dims: {message}" in err


# ------------------------------------------------- fuzzed contract

# payloads alternate the grammar's operand and operator tokens, so that
# many of them parse; ranks, dims and window bounds are small or past 64
_OPERANDS = st.sampled_from(["xi1", "xi2", "xi3", "xi65", "x1", "x2", "th1", "th2", "dx1",
                             "dxi1", "zeta", "q", "0", "1", "2", "65", "70"])
_OPERATORS = st.sampled_from(["+", "-", "*", "/", "^", "=", ";", ":"])
_PAYLOADS = st.builds(
    lambda sep, first, rest: sep.join([first, *(token for pair in rest for token in pair)]),
    st.sampled_from([" ", ""]), _OPERANDS, st.lists(st.tuples(_OPERATORS, _OPERANDS), max_size=6),
)
_INTS = st.sampled_from([str(i) for i in range(-1, 5)] + ["65", "70"])


@st.composite
def _argv(draw):
    """A random argv for a random verb, shaped by that verb's table row."""
    verb = draw(st.sampled_from(sorted(cli._VERBS)))
    argv = [verb, "--json"] if draw(st.booleans()) else [verb]
    for spec in cli._VERBS[verb].arguments:
        (flag, *_), options = ((spec,), {}) if isinstance(spec, str) else spec
        if "choices" in options:
            value = draw(st.sampled_from(options["choices"]))
        elif options.get("type") is int:
            value = draw(_INTS)
        elif options.get("type") is cli._dims:
            value = f"{draw(_INTS)},{draw(_INTS)}"
        else:
            value = draw(_PAYLOADS)
        if not flag.startswith("-"):
            argv.append(value)
        elif options.get("required") or draw(st.booleans()):
            argv += [flag, value]
    return argv


@given(_argv())
def test_fuzzed_argv_keeps_the_cli_contract(argv):
    # hostile sizes stay in the subprocess table above; these run in process
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert re.match(r"[A-Z]\w*: |usage: grasskit", err), err
    assert "Traceback" not in err


# ------------------------------------------------- console script

@pytest.mark.skipif(
    shutil.which("grasskit") is None, reason="console script not installed"
)
def test_console_script():
    proc = subprocess.run(
        ["grasskit", "mul", "-q", "2", "1 + xi1", "1 - xi1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
    proc = subprocess.run(
        ["grasskit", "invert", "-q", "1", "xi1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("NotInvertible: ")


# ------------------------------------------------- goldens

def test_corpus_replays_byte_identical():
    # 781 benchmark requests over all 15 verbs, each pinned by a digest of
    # its exit code, stdout and stderr; tests/make_corpus.py wrote the
    # file once, and this test only reads it
    corpus = json.loads(gzip.decompress(cli_cases.CORPUS.read_bytes()))
    differ = [argv for argv, digest in corpus
              if cli_cases.corpus_digest(*run_cli(argv)) != digest]
    assert not differ, f"{len(differ)} of {len(corpus)} requests differ, first {differ[0]}"


@pytest.mark.parametrize(
    "name,argv", cli_cases.CASES, ids=[case[0] for case in cli_cases.CASES]
)
def test_golden(name, argv):
    path = GOLDEN_DIR / f"{name}.txt"
    blob = cli_cases.run_case(argv)
    if os.environ.get("GRASSKIT_REGEN_GOLDEN"):
        path.write_text(blob)
    assert blob == path.read_text()
    # identical bytes on a second run of the same invocation
    assert cli_cases.run_case(argv) == blob
