"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench/tests -q
The module-scoped runs call bench/run.py through its command line, with
short runs, so the whole file takes a minute or two.
"""

import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import cli_cases
import spans
import workloads
from run import BLOCKS, CALIBRATION_S, Outcome, check, machine_speed

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name,argv", cli_cases.CASES, ids=[c[0] for c in cli_cases.CASES])
def test_traced_golden_case_is_byte_identical(name, argv):
    golden = (ROOT / "tests" / "golden" / f"{name}.txt").read_text()
    assert cli_cases.run_case(argv) == golden
    tracer = spans.Tracer()
    with tracer:
        traced = cli_cases.run_case(argv)
    assert traced == golden
    assert tracer.calls[tracer.names.index("cli.main")] == 1
    assert cli_cases.run_case(argv) == golden  # the originals are back


def test_tracer_sees_calls_through_every_import_path():
    from grasskit import cli, homs

    tracer = spans.Tracer()
    with tracer:
        cli.main(["hom-apply", "-q", "2", "--map", "xi1=xi2; xi2=xi1", "xi1*xi2"])
        homs.apply_hom(homs.identity_hom(2), homs.identity_hom(2).images[0])
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["homs.apply_hom.calls"] == 2
    assert metrics["grassmann.mul.calls"] >= 2  # homs holds its own reference to mul
    assert metrics["syntax.parse_hom.bytes_in"] == len("xi1=xi2; xi2=xi1")
    assert sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) > 0


def test_streams_are_seeded_and_distinct():
    for cls in workloads.WORKLOADS.values():
        first = [r.argv for _, c in zip(range(3), cls(7).cycles()) for r in c]
        again = [r.argv for _, c in zip(range(3), cls(7).cycles()) for r in c]
        other = [r.argv for _, c in zip(range(3), cls(8).cycles()) for r in c]
        assert first == again
        assert first != other
        assert len({tuple(a) for a in first}) == len(first)


def test_window_stream_does_not_run_dry_or_repeat_work():
    """Each cohomology window of a run is new work, however many cycles
    a fast program gets through."""
    stream = workloads.DerhamWindow(3).cycles()
    windows = []
    for _ in range(400):
        for req in next(stream):
            if req.verb == "derham-cohomology":
                argv = [a for a in req.argv if a != "--json"]
                flags = dict(zip(argv[1::2], argv[2::2]))
                windows.append((flags["--dims"], flags["--max-degree"], flags["--max-weight"]))
    assert len(windows) == 800
    assert len(set(windows)) == len(windows)


def test_window_size_counts_the_blocks():
    from grasskit import derham

    for window in [(2, 2, 3, 4), (0, 3, 5, 6), (3, 0, 2, 5), (1, 3, 3, 5)]:
        blocks = derham.form_blocks(*window, 10**6)
        assert workloads.window_size(*window) == sum(len(b) for b in blocks.values())


def test_machine_speed_is_calibration_of_each_stretch():
    # two cycles per stretch; the machine ran at half speed in the second
    # stretch, and one calibration outlier does not move the median
    cal = CALIBRATION_S
    cycles = [[cal, cal, cal] for _ in range(2 * BLOCKS)]
    cycles[2] = cycles[3] = [2 * cal, 2 * cal, 2 * cal]
    cycles[5] = [cal, 9 * cal, cal]
    speed = machine_speed(cycles)
    assert speed == pytest.approx([1, 1, 0.5, 0.5] + [1] * (2 * BLOCKS - 4))


def test_calibration_matches_its_nominal_time():
    import statistics
    import worker

    times = [worker.calibrate() for _ in range(200)]
    assert statistics.median(times) < 5 * CALIBRATION_S


def test_check_rejects_wrong_output():
    one = Fraction(1)
    req = workloads.mul_req(random.Random(1), 3, {0b001: one, 0b100: one}, {0b010: one})
    right = "xi1*xi2 - xi2*xi3\n"
    assert check(Outcome(req, 0, right, "", 0.0)) is None
    assert check(Outcome(req, 0, "xi1*xi2 + xi2*xi3\n", "", 0.0)) is not None
    assert check(Outcome(req, 1, "", "NotInvertible: no\n", 0.0)) is not None
    assert check(Outcome(req, 0, right, "warning\n", 0.0)) is not None


def test_check_accepts_only_the_expected_refusal():
    req = workloads.failure_req(random.Random(1), "zero-body")
    assert check(Outcome(req, 1, "", "NotInvertible: zero body\n", 0.0)) is None
    assert check(Outcome(req, 2, "", "NotInvertible: zero body\n", 0.0)) is not None
    assert check(Outcome(req, 1, "", "ParseError: oops\n", 0.0)) is not None
    assert check(Outcome(req, 1, "", "Traceback (most recent call last):\n", 0.0)) is not None


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    names = [w["name"] for w in SPEC["workloads"]]
    return {(w, t): _run(w, t) for w in names for t in (0, 1)}


def test_every_declared_metric_is_emitted(results):
    for (workload, trace), result in results.items():
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in declared}, (workload, trace)
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["correct"] and result["failed"] == 0, (workload, trace)


def test_end_to_end_metrics_are_never_zero(results):
    for (workload, trace), result in results.items():
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_bypass_workloads_bypass(results):
    derham = results[("derham-window", 1)]["metrics"]
    dense = results[("algebra-dense", 1)]["metrics"]
    assert derham["grassmann.mul.calls"]["value"] == 0
    assert derham["linalg.rref.calls"]["value"] > 0
    assert dense["grassmann.mul.calls"]["value"] > 0
    for key, metric in dense.items():
        if key.startswith("derham.") and key.endswith(".calls"):
            assert metric["value"] == 0, key


def test_declared_workloads_match_the_streams():
    declared = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert declared == {name: cls.why for name, cls in workloads.WORKLOADS.items()}


def test_declared_per_layer_metrics_match_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == spans.metric_names()


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
