"""decgauge benchmark: time to verdict of CLI commands on fixed workloads.

Usage (from the repository root):

    python3 bench/run.py --workload bulk-lagrangian --seed 1 --seconds 24 --trace 0

One process, one client, closed loop: the workload's op list (a pass, see
``workloads.py``) runs through ``decgauge.cli.main`` in this process, op
after op, pass after pass, until ``--seconds`` have elapsed; only whole
passes are measured.  BLAS and OpenMP are pinned to one thread.  Every op
builds its mesh from its spec, so no per-mesh cache carries over between
ops, and every verdict is checked against values derived from topology and
against the byte-exact report of the op's first pass.  The warm-up ops run
once before the passes; ``setup_s`` times them, with the imports, in fresh
interpreters, because a CLI user pays that cost on every invocation.

Times are reported at a reference host speed.  On a shared virtual machine
the speed of the host drifts by up to half over tens of seconds, and an op's
CPU time drifts with its wall time, so raw times of the same code spread past
any useful bound from run to run.  A fixed probe (``host_probe``: a dense
SVD and an interpreted loop, the two kinds of work the ops do) is timed around
each op and each set-up interpreter, and each time is reported as
``wall * PROBE_REF_S / probe``, with ``probe`` the mean of the probe times
just before and just after: the seconds it would take on a host where the
probe takes ``PROBE_REF_S``.  A change to decgauge leaves the probe alone, so
it moves these times as it moves wall times.  The raw wall times and the
probe times are in the record line.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the functions listed in ``tracing.py`` are wrapped and the per-layer metrics
are reported instead, and the spans are written to ``.bench_out/``.  The
last line of standard output is the result object; the line before it
records the environment, the run's sample counts, the tail definition and
the raw wall and probe times.
"""

import os

# Pin native thread pools before numpy is imported, here and in children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# The CLI writes reports into this directory when it is set.
os.environ.pop("DECGAUGE_OUTDIR", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracing import COUNTED_CALLS, COUNTERS, SPAN_NAMES, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Fresh interpreters timed per run for setup_s, half before and half after
# the passes so that the median spans the run; the median is reported.
SETUP_RUNS = 4
SETUP_TIMEOUT_S = 120

# Probe time of the reference host: the median ``host_probe`` time on the
# 2-vCPU virtual machine (numpy with OpenBLAS, one thread) on which the
# benchmark was defined.  It fixes the scale of the reported times only.
PROBE_REF_S = 0.016
_PROBE_MATRIX = None

SETUP_CODE = ("import sys\nfrom decgauge.cli import main\n"
              "sys.exit(max(main(argv) for argv in {argvs!r}))\n")


class BenchError(Exception):
    """The benchmark cannot run: no program, or a set-up step failed."""


def _problems(op, code, text, topology=workloads.TOPOLOGY):
    """Reasons one op's outcome is wrong; empty when it is right."""
    if code is None:
        return ["raised an exception"]
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    return workloads.check(op, code, report, topology)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def host_probe():
    """Seconds this host takes now for a fixed dense SVD and Python loop."""
    global _PROBE_MATRIX
    import numpy

    if _PROBE_MATRIX is None:
        _PROBE_MATRIX = numpy.random.default_rng(0).standard_normal((200, 200))
    t0 = time.perf_counter()
    numpy.linalg.svd(_PROBE_MATRIX)
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - t0


def at_reference_speed(wall, probe):
    return wall * PROBE_REF_S / probe


def measure_setup(warm, seed, runs):
    """(wall, probe) times of fresh interpreters that import the CLI and run
    the warm-up ops: the set-up and first-call cost that a CLI user pays on
    every invocation and that the measured passes leave out."""
    code = SETUP_CODE.format(argvs=[op.argv(seed) for op in warm])
    times = []
    for _ in range(runs):
        before = host_probe()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        times.append((wall, (before + host_probe()) / 2))
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter exited {proc.returncode}; "
                             f"stderr: {proc.stderr.strip()[-2000:]}")
    return times


def run_op(cli, op, seed):
    """Time one op through the CLI entry point; returns (seconds, exit code,
    report text).  The exit code is None when the CLI raised."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(op.argv(seed))
    except Exception:
        elapsed = time.perf_counter() - t0
        sys.stderr.write(f"op {op.label()} raised:\n{traceback.format_exc()}")
        return elapsed, None, buf.getvalue()
    return time.perf_counter() - t0, code, buf.getvalue()


def run_passes(cli, ops, seeds, seconds, tracer=None, topology=workloads.TOPOLOGY):
    """Whole passes over ``ops`` until ``seconds`` have elapsed (at least one).

    Returns one list of (wall seconds, probe seconds, problems) per pass, the
    probe being the mean of ``host_probe`` just before and just after the op,
    and with a tracer the per-pass trace summaries.
    """
    passes, summaries, first_digest = [], [], {}
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        mark = tracer.mark() if tracer else None
        records = []
        for i, (op, seed) in enumerate(zip(ops, seeds)):
            gc.collect()
            before = host_probe()
            if tracer:
                tracer.op_id += 1
            elapsed, code, text = run_op(cli, op, seed)
            probe = (before + host_probe()) / 2
            problems = _problems(op, code, text, topology)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if first_digest.setdefault(i, digest) != digest:
                problems.append("report differs from the first pass's "
                                "(same op, same seed)")
            for problem in problems:
                sys.stderr.write(f"FAIL {op.label()} --seed {seed}: {problem}\n")
            records.append((elapsed, probe, problems))
        passes.append(records)
        if tracer:
            summaries.append(tracer.summary(mark))
    return passes, summaries


def warm_up(cli, warm, seed):
    """Run the warm-up ops once, untimed, so first-call costs stay out of
    the measured verdicts (``setup_s`` measures them)."""
    host_probe()
    for op in warm:
        _, code, text = run_op(cli, op, seed)
        problems = _problems(op, code, text)
        if problems:
            raise BenchError(f"warm-up command {op.label()} failed: {problems}")


def _percentile_with_ten_beyond(samples):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
            return {"percentile": q, "value": cut}
    return None


def _times(passes):
    """Per pass, each op's seconds at the reference host speed."""
    return [[at_reference_speed(wall, probe) for wall, probe, _ in p] for p in passes]


def _timing(times):
    # Each pass holds every op of the ladder once, so per-pass statistics
    # weigh the ops equally whatever the number of passes; the median over
    # passes then damps a slow pass.
    return {
        "pass_s": statistics.median(sum(t) for t in times),
        "verdict_s.p50": statistics.median(statistics.median(t) for t in times),
        "verdict_s.tail": statistics.median(max(t) for t in times),
    }


def end_to_end(passes, setup_times):
    times = _times(passes)
    samples = [e for t in times for e in t]
    metrics = {
        "setup_s": (statistics.median(
            at_reference_speed(wall, probe) for wall, probe in setup_times), "s"),
        **{name: (value, "s") for name, value in _timing(times).items()},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    probes = [probe for p in passes for _, probe, _ in p]
    detail = {
        "verdict_samples": len(samples),
        "p50": "median over passes of each pass's median verdict",
        "tail": "median over passes of each pass's slowest verdict",
        "percentile_with_ten_beyond": _percentile_with_ten_beyond(samples),
        "wall": {**_timing([[wall for wall, _, _ in p] for p in passes]),
                 "setup_s": statistics.median(wall for wall, _ in setup_times)},
        "probe_s": {"reference": PROBE_REF_S, "median": statistics.median(probes),
                    "min": min(probes), "max": max(probes)},
        "setup_s_samples": setup_times,
    }
    return metrics, detail


def per_layer(passes, summaries, attempted, failed):
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (
            statistics.median(s["self_s"][name] for s in summaries), "s")
    for name in COUNTED_CALLS:
        metrics[f"{name}.calls"] = (
            statistics.median_low(s["calls"][name] for s in summaries), "count")
    for name in COUNTERS:
        metrics[name] = (
            statistics.median_low(s["counts"][name] for s in summaries), "count")
    metrics["fail_rate"] = (failed / attempted, "ratio")
    metrics["traced.pass_s"] = (_timing(_times(passes))["pass_s"], "s")
    pass_s = statistics.median(sum(wall for wall, _, _ in p) for p in passes)
    self_s = {n: metrics[f"{n}.self_s"][0] for n in SPAN_NAMES}
    by_module = Counter()
    for name, value in self_s.items():
        by_module[name.partition(".")[0]] += value
    detail = {
        "top_self_time": [
            {"span": n, "self_s": self_s[n], "share_of_pass": self_s[n] / pass_s}
            for n in sorted(self_s, key=self_s.get, reverse=True)[:5]
        ],
        "self_s_by_module": dict(by_module.most_common()),
        "calls_repeat_exactly": all(s["calls"] == summaries[0]["calls"] for s in summaries),
    }
    return metrics, detail


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _os_threads():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy
    import sympy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "decgauge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "os_threads": _os_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": blas,
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "decgauge" / "cli.py").is_file():
        raise BenchError(f"no decgauge sources under {SRC}")
    ops = workloads.WORKLOADS[args.workload]
    seeds = workloads.op_seeds(args.seed, ops)

    warm = workloads.warm_up_ops(ops)
    setup_runs = 0 if args.trace else SETUP_RUNS // 2
    setup_times = measure_setup(warm, args.seed, setup_runs)
    sys.path.insert(0, str(SRC))
    from decgauge import cli

    warm_up(cli, warm, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        passes, summaries = run_passes(cli, ops, seeds, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    setup_times += measure_setup(warm, args.seed, setup_runs)
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for _, _, problems in p if problems)
    if tracer:
        metrics, detail = per_layer(passes, summaries, attempted, failed)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["spans_per_pass"] = len(tracer.spans) / len(passes)
    else:
        metrics, detail = end_to_end(passes, setup_times)
    record = {
        "workload": args.workload, "seed": args.seed, "op_seeds": seeds,
        "seconds": args.seconds, "trace": args.trace, "passes": len(passes),
        "ops": [op.label() for op in ops], **detail, "environment": environment(),
    }
    print(json.dumps({"bench": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, ImportError, OSError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        sys.exit(2)
