"""Self-test of the decgauge benchmark at minimal run length.

    python3 bench/selftest.py

For every workload in BENCHMARK.json, a ``--trace 0`` run must emit exactly
the end-to-end metrics and a ``--trace 1`` run exactly the per-layer metrics,
each with its unit, and both must be correct.  A deliberately wrong topology
expectation must make ``fail_rate`` nonzero, and the benchmark must refuse
to run without the program's sources.  Prints the tracing overhead per workload
(traced ``pass_s`` minus untraced ``pass_s``, one pass each, so within the
run-to-run noise) next to an estimate from the spans per pass times the
measured cost of one wrapped call, and exits 1 if any check failed.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd, "bench", "run.py")), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(spec, errors):
    """Every named metric is emitted with its unit; returns per workload the
    untraced and traced pass times and the spans per pass."""
    overhead = {}
    for workload in (w["name"] for w in spec["workloads"]):
        pass_s = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(workload, trace)
            if proc.returncode != 0:
                errors.append(f"{workload} trace={trace}: exit {proc.returncode}: "
                              f"{proc.stderr[-1000:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {name: m["unit"] for name, m in metrics.items()}
            if set(result) != RESULT_KEYS:
                errors.append(f"{workload} trace={trace}: result keys {sorted(result)}")
            if emitted != expected:
                errors.append(f"{workload} trace={trace}: metrics differ from "
                              f"BENCHMARK.json: missing "
                              f"{sorted(set(expected) - set(emitted))}, extra "
                              f"{sorted(set(emitted) - set(expected))}, units "
                              f"{ {n: u for n, u in emitted.items() if expected.get(n, u) != u} }")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{workload} trace={trace}: not correct: {result}")
            pass_s[trace] = metrics.get("pass_s", metrics.get("traced.pass_s"))["value"]
            if trace:
                spans = json.loads(proc.stdout.splitlines()[-2])["bench"]["spans_per_pass"]
        if len(pass_s) == 2:
            overhead[workload] = (pass_s[0], pass_s[1], spans)
    return overhead


def wrapped_call_cost(calls=200_000):
    """Seconds a tracing wrapper adds to one call of a trivial function."""
    def bare():
        return None

    wrapped = Tracer()._wrap("cli.main", bare)
    cost = []
    for fn in (bare, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        cost.append((time.perf_counter() - t0) / calls)
    return cost[1] - cost[0]


def check_wrong_expectation(errors):
    """A wrong Betti number in the expectations must count as a failed op."""
    sys.path.insert(0, str(run.SRC))
    from decgauge import cli

    ops = (workloads.Op("harmonic", "annulus:N=16", ("--degree", "1")),)
    wrong = dict(workloads.TOPOLOGY, annulus=((1, 2, 0), (0, 1, 1)))
    tracer = Tracer()
    tracer.install()
    try:
        passes, summaries = run.run_passes(cli, ops, [0], 0.0, tracer, topology=wrong)
    finally:
        tracer.uninstall()
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for _, _, problems in p if problems)
    metrics, _ = run.per_layer(passes, summaries, attempted, failed)
    if not metrics["fail_rate"][0] > 0:
        errors.append("a wrong expectation left fail_rate at 0")
    import decgauge.dynamics
    import decgauge.subspaces
    if decgauge.dynamics.null_space is not decgauge.subspaces.null_space:
        errors.append("uninstall did not restore dynamics.null_space")
    return metrics["fail_rate"][0]


def check_refuses_without_program(errors):
    """Run from a directory holding only BENCHMARK.json and bench/."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("axioms-glue", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    return proc.returncode


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    overhead = check_metrics(spec, errors)
    fail_rate = check_wrong_expectation(errors)
    bare_exit = check_refuses_without_program(errors)
    per_call = wrapped_call_cost()
    for workload, (untraced, traced, spans) in overhead.items():
        print(f"tracing overhead {workload}: traced pass_s {traced:.4f} s - "
              f"untraced pass_s {untraced:.4f} s = {traced - untraced:+.4f} s; "
              f"{spans:.0f} spans/pass x {per_call * 1e6:.2f} us = "
              f"{spans * per_call:.4f} s")
    print(f"wrong expectation: fail_rate {fail_rate} (its FAIL line on stderr "
          f"is expected)")
    print(f"without sources: exit {bare_exit}")
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
