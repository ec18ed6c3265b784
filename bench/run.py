"""Benchmark of the grasskit command line, end to end and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload algebra-dense --seed 1 --seconds 25 --trace 0
    python3 bench/run.py            # every workload, default seed and length

One client sends seeded requests through grasskit.cli.main, one at a
time: a closed loop, the next request leaves when the previous one has
returned, as when a user or script calls one verb after another.  The
requests run in a worker process (worker.py) that does nothing else, so
its peak memory is the program's; this process makes the requests and,
after each cycle and outside the timing, checks every stdout, stderr
and exit code against what the request's inputs determine (see
workloads.py).

Every time in the end-to-end metrics is scaled by the machine's speed
while it was taken, measured with a fixed calibration the worker runs
after each request (see machine_speed): times read as on a machine
where the calibration takes CALIBRATION_S.  On a shared machine that
varies far less from run to run than raw wall time does; the line
"uncalibrated:" gives the raw figures.  All processes of a run share
one CPU, so the calibration measures the CPU that runs the requests.

--trace 0 prints the end-to-end metrics.  --trace 1 runs requests for a
third of the time, replays each of them once untraced and once with the
tracer of spans.py installed, and prints the per-layer metrics; the
difference between the two replays is the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give every metric by
name and unit, and the Python version, CPU count and source revision.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 9
COLD_CALLS = 45
MIN_REQUESTS = 100
BLOCKS = 12  # stretches of the timed phase, of whole cycles each
CALIBRATION_S = 0.0004  # about worker.calibrate on an idle 2-vCPU x86-64 VM, Python 3.11
ERROR_LINE = re.compile(r"^\w+: ")

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "cold_ms_p50": "ms",
    "setup_s": "s",
}


@dataclass(slots=True)
class Outcome:
    request: object  # workloads.Request
    code: int
    out: str
    err: str
    seconds: float
    calibration: float = 0.0  # seconds of worker.calibrate right after the request


class Worker:
    """The process of worker.py, which runs the requests of end_to_end."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), SRC],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def send(self, requests) -> list[Outcome]:
        self.proc.stdin.write(json.dumps([r.argv for r in requests]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the worker process ended early")
        return [Outcome(r, *reply) for r, reply in zip(requests, json.loads(line))]

    def close(self) -> float:
        """Let the worker end; returns its peak resident set size in MB."""
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        self.proc.wait(timeout=60)
        return json.loads(line)["peak_rss_mb"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_closed_loop(send, cycles, seconds: float, side=(), on_cycle=None) -> list[Outcome]:
    """Send requests one after another, whole cycles of the workload,
    until seconds of busy time have passed.  send runs one cycle and
    returns its outcomes.

    The side tasks (fresh-process calls) run between cycles, spread
    evenly over the busy time, so that they sample the same stretch of
    machine time as the requests do; they are not part of busy time.
    on_cycle, when given, receives the outcomes of each cycle instead of
    the returned list, so that memory does not grow with the run.
    """
    side = list(side)
    outcomes = []
    busy = 0.0
    done = 0
    for cycle in cycles:
        finished = send(cycle)
        busy += sum(o.seconds for o in finished)
        if on_cycle is None:
            outcomes.extend(finished)
        else:
            on_cycle(finished)
        while done < len(side) and busy >= done * seconds / len(side):
            side[done]()
            done += 1
        if busy >= seconds:
            break
    for task in side[done:]:
        task()
    return outcomes


def machine_speed(cycles: list[list[float]]) -> list[float]:
    """The speed of the machine during each cycle: CALIBRATION_S over
    the median calibration time of the cycle's stretch, below 1 on a
    machine slower than the nominal one.

    Other tenants of a shared machine slow it, by up to half, for
    stretches of seconds to minutes, and pure-Python work slows roughly
    alike whatever it computes.  The timed phase is cut into BLOCKS
    stretches of consecutive cycles, and the worker times a fixed
    calibration after every request.  A time multiplied by the speed of
    its stretch is the time on a machine where the calibration takes
    CALIBRATION_S: the program's own speed shows in full, the machine's
    much less.
    """
    n = min(BLOCKS, len(cycles))
    cuts = [round(i * len(cycles) / n) for i in range(n + 1)]
    speed = []
    for i in range(n):
        block = cycles[cuts[i]:cuts[i + 1]]
        typical = statistics.median(cal for cycle in block for cal in cycle)
        speed += [CALIBRATION_S / typical] * len(block)
    return speed


def check(outcome: Outcome) -> str | None:
    """Why the outcome is wrong, or None when it is right."""
    req = outcome.request
    if outcome.code != req.code:
        return f"exit {outcome.code}, expected {req.code}: {outcome.err[-300:]}"
    if req.code != 0:
        if outcome.out:
            return "stdout written by a refused request"
        if not ERROR_LINE.match(outcome.err) or not outcome.err.startswith(f"{req.error}: "):
            return f"stderr {outcome.err!r}, expected a {req.error} line"
        return None
    if outcome.err:
        return f"stderr written by a successful request: {outcome.err[:300]!r}"
    if not outcome.out.endswith("\n"):
        return "stdout does not end in a newline"
    text = outcome.out[:-1]
    try:
        if req.expect is not None and text != req.expect():
            return "stdout differs from the expected value"
        if req.oracle is not None:
            return req.oracle(text)
    except Exception as exc:  # an output the oracle cannot read is wrong
        return f"oracle failed on the output: {type(exc).__name__}: {exc}"
    return None


def failures(outcomes, label: str) -> list[str]:
    """One line per wrong outcome, naming the request and the reason."""
    lines = []
    for outcome in outcomes:
        reason = check(outcome)
        if reason is not None:
            argv = " ".join(a if len(a) <= 40 else a[:37] + "..." for a in outcome.request.argv)
            lines.append(f"FAILED {label} {argv}: {reason[:300]}")
    return lines


def report_failures(lines: list[str]) -> int:
    for line in lines[:5]:
        print(line)
    if len(lines) > 5:
        print(f"... and {len(lines) - 5} more failures")
    return len(lines)


def set_up_probe(warmups: str) -> dict:
    """One set-up in a fresh interpreter: import plus the warm-ups."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC],
        input=warmups, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def cold_call(request) -> Outcome:
    """One fresh-process python -m grasskit.cli call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "grasskit.cli", *request.argv],
                          env=env, capture_output=True, text=True, timeout=120)
    return Outcome(request, proc.returncode, proc.stdout, proc.stderr,
                   time.perf_counter() - start)


def side_tasks(workload, on_setup, on_cold, n_setups: int, n_cold: int) -> list:
    """Set-up probes and cold calls, interleaved; each passes its result
    to on_setup or on_cold."""
    warmups = json.dumps([req.argv for req in workload.warmups()])
    tasks = [lambda r=r: on_cold(cold_call(r)) for r in workload.small(n_cold)]
    step = max(1, len(tasks) // max(1, n_setups))
    for i in range(n_setups):
        tasks.insert(i * (step + 1), lambda: on_setup(set_up_probe(warmups)))
    return tasks


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def revision() -> str:
    """The git commit when there is one, and a digest of src/ always."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or "none"
    return f"commit {commit}, src sha256 {digest.hexdigest()[:12]}"


def end_to_end(workload, seconds: float) -> tuple[dict, int, int]:
    # outcomes are checked and dropped cycle by cycle, outside the timing
    timed: list[tuple[str, int, float]] = []  # verb, expected exit code, seconds
    calibrations: list[list[float]] = []  # per cycle
    setups, cold = [], []  # (cycles done before it, result)
    with Worker() as worker:
        warmups = workload.warmups()
        wrong = failures(worker.send(warmups), "warm-up")

        def on_cycle(finished):
            wrong.extend(failures(finished, "request"))
            timed.extend((o.request.verb, o.request.code, o.seconds) for o in finished)
            calibrations.append([o.calibration for o in finished])

        side = side_tasks(workload, lambda r: setups.append((len(calibrations), r)),
                          lambda o: cold.append((len(calibrations), o)),
                          SETUP_SAMPLES, COLD_CALLS)
        run_closed_loop(worker.send, workload.cycles(), seconds, side, on_cycle)
        peak_rss_mb = worker.close()

    failed = report_failures(wrong + failures([o for _, o in cold], "cold call"))
    attempted = len(warmups) + len(timed) + len(cold)
    speed = machine_speed(calibrations)
    cycle_of = [c for c, cycle in enumerate(calibrations) for _ in cycle]
    # a side task made after cycle c ran in the machine state of cycle c
    steady = [sec * speed[c] for c, (_, _, sec) in zip(cycle_of, timed)]
    steady_cold = [o.seconds * speed[after - 1] for after, o in cold]
    steady_setup = [r["setup_s"] * speed[after - 1] for after, r in setups]
    latencies_ms = [sec * 1000 for sec in steady]
    busy = sum(sec for _, _, sec in timed)
    if len(timed) < MIN_REQUESTS:
        print(f"note: only {len(timed)} requests, fewer than {MIN_REQUESTS}; p90 is coarse")
    print(f"requests {len(timed)} in {busy:.2f} s busy, {sum(steady):.2f} s at the "
          f"calibrated speed (machine speed {min(speed):.2f}-{max(speed):.2f}); "
          f"{sum(code != 0 for _, code, _ in timed)} refused on purpose; "
          f"cold calls {len(cold)}; set-up samples {len(setups)}")
    print(f"uncalibrated: ops_per_s {len(timed) / busy:.6g}, op_ms_p50 "
          f"{statistics.median(sec * 1000 for _, _, sec in timed):.6g}, cold_ms_p50 "
          f"{statistics.median(o.seconds * 1000 for _, o in cold):.6g}, setup_s "
          f"{statistics.median(r['setup_s'] for _, r in setups):.6g}")
    by_verb: dict[str, list[float]] = {}
    for verb, _, sec in timed:
        by_verb.setdefault(verb, []).append(sec * 1000)
    print("median ms by verb: " + ", ".join(
        f"{verb} {statistics.median(v):.1f} (n={len(v)})" for verb, v in sorted(by_verb.items())))
    metrics = {
        "ops_per_s": len(steady) / sum(steady),
        "op_ms_p50": statistics.median(latencies_ms),
        "op_ms_p90": statistics.quantiles(latencies_ms, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
        "cold_ms_p50": statistics.median(sec * 1000 for sec in steady_cold),
        "setup_s": statistics.median(steady_setup),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, attempted, failed


def per_layer(workload, seconds: float, seed: int) -> tuple[dict, int, int]:
    """Run a third of the time untraced to fix the requests, then replay
    each request once untraced and once traced, alternating which goes
    first, so that both replays see the same warm state.  All of it runs
    in this process, where the tracer can rebind grasskit's functions."""
    import spans
    import worker
    from grasskit import cli

    def call(request) -> Outcome:
        return Outcome(request, *worker.call(cli, request.argv))

    def send(requests):
        return [call(request) for request in requests]

    send(workload.warmups())
    setups: list = []
    first = run_closed_loop(send, workload.cycles(), seconds / 3,
                            side_tasks(workload, setups.append, None, 3, 0))
    tracer = spans.Tracer()
    untraced, traced = [], []
    for op, outcome in enumerate(first):
        tracer.op = op
        for traced_now in ((False, True) if op % 2 else (True, False)):
            if traced_now:
                with tracer:
                    traced.append(call(outcome.request))
            else:
                untraced.append(call(outcome.request))

    wrong = failures(first, "request")
    for before, *again in zip(first, untraced, traced):
        if any((o.code, o.out, o.err) != (before.code, before.out, before.err) for o in again):
            wrong.append(f"FAILED replay of {before.request.argv[0]}: output differs")
    failed = report_failures(wrong)
    busy_untraced = sum(o.seconds for o in untraced)
    busy_traced = sum(o.seconds for o in traced)

    metrics = tracer.metrics()
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    metrics["trace.overhead_frac"] = busy_traced / busy_untraced - 1
    metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["src.lines"] = src_lines()
    print(f"traced {len(traced)} requests: {busy_untraced:.3f} s untraced, "
          f"{busy_traced:.3f} s traced, layer self time {layer_self:.3f} s "
          f"({layer_self / busy_untraced - 1:+.1%} of untraced)")
    for layer in spans.LAYERS:
        share = metrics[f"{layer}.self_s"] / layer_self if layer_self else 0.0
        print(f"layer {layer:9s} {share:6.1%} of self time; a saving should move "
              f"{spans.PREDICTED[layer]}")
    path = os.path.join(ROOT, ".bench_out", f"spans-{workload.name}-{seed}.tsv.gz")
    tracer.dump(path)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return ({k: {"value": v, "unit": spans.unit(k)} for k, v in metrics.items()},
            len(first) * 3, failed)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    if hasattr(os, "sched_setaffinity"):
        # this process, the worker and every fresh process share one CPU, so
        # that the calibration measures the CPU that runs the requests
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print(f"workload {name} seed {seed}: {workload.why}")
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, {revision()}")
    if trace:
        metrics, attempted, failed = per_layer(workload, seconds, seed)
    else:
        metrics, attempted, failed = end_to_end(workload, seconds)
    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"fail_frac {failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so set-up and memory are its own."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="algebra-dense, derham-window, cli-mix or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "grasskit", "cli.py")):
        print("bench/run.py: src/grasskit not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
