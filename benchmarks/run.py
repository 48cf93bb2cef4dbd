"""End-to-end benchmark of the skewdisc command line.

Run from the repository root:

    python3 benchmarks/run.py --workload chat-p3 --seed 1 --seconds 30 --trace 0

Each workload (see workloads.py) calls skewdisc.cli.main in this process,
with OPENBLAS_NUM_THREADS=1 set in this process's environment. A run

1. runs the workload once on its reference input and checks the output
   against the copy recorded under reference/; the quality metrics come
   from this pass;
2. runs passes on inputs made from --seed until --seconds have passed,
   checking every output; the time of a pass is the time spent in
   skewdisc.cli.main. A simulate workload gives each pass its own master
   seed, so a run's median spans many configurations;
3. measures set-up between the passes: the median time for a fresh
   interpreter to import skewdisc.cli (--trace 0 only).

The shared host this was tuned on slows a process by up to half again
for tens of seconds at a time. So every timed call is bracketed by a
fixed calibration kernel that does not use skewdisc, run on as many
threads as the call uses, and the reported wall_s and setup_s are the
measured times scaled to a machine on which the kernel takes
CALIBRATION_REF_S. The unscaled times are kept in the --results file.

With --trace 1 the passes are split: half untraced, half with every
public function of the layer modules wrapped in a span (spans.py). The
traced outputs must equal the untraced ones and every layer the workload
exercises must have a span; the per-layer metrics are medians over the
traced passes.

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it records the environment. --results FILE appends the
run as one JSON line, which compare.py reads. --record-reference writes
the reference output of the workload under reference/ and exits.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer, layer_metrics
from workloads import COMMON_SPANS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
    if (ROOT / "BENCHMARK.json").is_file() else None
SETUP_REPEATS = 11
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
#: Calibration kernel time by thread count on the machine the bounds were
#: set on (2 cores shared, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31),
#: when it ran fast.
CALIBRATION_REF_S = {1: 0.013, 2: 0.026}
CALIBRATION_X = np.random.default_rng(0).standard_normal((2000, 3))


def setup_sample():
    """Wall time of a fresh interpreter importing skewdisc.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import skewdisc.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def environment():
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
        "platform": platform.platform(),
    }


def calibration_s(threads):
    """Median time of three runs of a fixed kernel that does not use
    skewdisc, run at once on as many threads as the pass uses: small
    matrix products and symmetric eigensolves like a replicate's, then
    an interpreter-bound loop. It tracks the speed the machine gives
    this process, which on a shared host drifts by half again over tens
    of seconds."""
    def kernel():
        for _ in range(100):
            c = CALIBRATION_X.T @ CALIBRATION_X / len(CALIBRATION_X)
            _, v = np.linalg.eigh((c + c.T) / 2)
            (CALIBRATION_X - CALIBRATION_X.mean(axis=0)) @ v
        sum(i * i for i in range(100_000))

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        if threads == 1:
            kernel()
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for future in [pool.submit(kernel) for _ in range(threads)]:
                    future.result()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class CallTimer:
    """Times calls into the program and sums them per pass. With
    calibrate, each call is bracketed by calibration runs, and its time
    is also summed scaled by their mean to a machine on which the kernel
    takes CALIBRATION_REF_S."""

    def __init__(self, threads, calibrate):
        self.threads = threads
        self.cal = calibration_s(threads) if calibrate else None
        self.wall = self.scaled = 0.0

    def __call__(self, fn):
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        self.wall += wall
        if self.cal is not None:
            after = calibration_s(self.threads)
            self.scaled += wall * CALIBRATION_REF_S[self.threads] / ((self.cal + after) / 2)
            self.cal = after


def timed_passes(workload, cli, inputs, seconds, min_passes, outputs, timer,
                 after_pass=None):
    """Run pass i on inputs(i) until seconds have passed and at least
    min_passes ran. Returns each pass's wall time and scaled time (see
    CallTimer). outputs maps an input's key to its output: a new input's
    output is checked and stored, and a repeated input must give the
    stored output again. after_pass(elapsed) runs after each pass."""
    walls, scaled = [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        inp = inputs(len(walls))
        timer.wall = timer.scaled = 0.0
        output = workload.run_pass(cli, inp, timer)
        if inp["key"] not in outputs:
            workload.check(inp, output)
            outputs[inp["key"]] = output
        elif output != outputs[inp["key"]]:
            raise CheckFailed(f"{workload.name}: pass {len(walls)} output differs from "
                              f"an earlier pass on the same input")
        walls.append(timer.wall)
        scaled.append(timer.scaled)
        if after_pass is not None:
            after_pass(time.perf_counter() - start)
    return walls, scaled


def untraced(workload, cli, inputs, seconds):
    """End-to-end metrics; times are scaled by the calibration kernel.
    Set-up samples are spread evenly over the passes, each followed by
    a one-thread calibration. Peak memory is read after the first pass,
    so it does not depend on how many passes fit in the run."""
    setup, peak_rss = [], []

    def after_pass(elapsed):
        if not peak_rss:
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        while len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append((setup_sample(), calibration_s(1)))

    timer = CallTimer(workload.workers, calibrate=True)
    walls, scaled = timed_passes(workload, cli, inputs, seconds, MIN_PASSES, {}, timer,
                                 after_pass)
    after_pass(float("inf"))
    values = {
        "wall_s": statistics.median(scaled),
        "setup_s": statistics.median(s * CALIBRATION_REF_S[1] / c for s, c in setup),
        "peak_rss_mb": peak_rss[0],
    }
    return values, {"pass_wall_s": walls, "pass_scaled_s": scaled,
                    "setup_s_and_calibration_s": setup}


def traced(workload, cli, inputs, seconds):
    """Per-layer metrics: half the time untraced, then the same inputs
    traced, whose outputs must match; medians over the traced passes.
    Times here are not scaled."""
    outputs = {}
    timer = CallTimer(workload.workers, calibrate=False)
    plain, _ = timed_passes(workload, cli, inputs, seconds / 2, MIN_TRACE_PASSES,
                            outputs, timer)
    tracer = Tracer()
    per_pass, names = [], set()

    def collect(elapsed):
        spans = tracer.take()
        names.update(s.name for s in spans)
        per_pass.append(spans)

    with tracer.installed():
        walls, _ = timed_passes(workload, cli, inputs, seconds / 2, MIN_TRACE_PASSES,
                                outputs, timer, collect)
    missing = [n for n in workload.spans + COMMON_SPANS if n not in names]
    if missing:
        raise CheckFailed(f"{workload.name}: no spans recorded for {', '.join(missing)}")
    per_pass = [layer_metrics(spans, wall) for spans, wall in zip(per_pass, walls)]
    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    values["trace.wall_s"] = statistics.median(walls)
    values["trace.untraced_wall_s"] = statistics.median(plain)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values, {"pass_wall_s": plain, "traced_pass_wall_s": walls}


def reference_pass(workload, cli, workdir):
    reference = workload.inputs(workdir, workloads.REFERENCE_SEED)(0)
    output = workload.run_pass(cli, reference, CallTimer(workload.workers, calibrate=False))
    workload.check(reference, output)
    return reference, output, workloads.REFERENCE_DIR / f"{workload.name}.ref"


def measure(workload, cli, seed, seconds, trace, workdir):
    reference, output, path = reference_pass(workload, cli, workdir)
    workload.check_reference(output, path.read_text(encoding="utf-8"))
    converged_share, accuracy_err = workload.quality(reference, output)
    inputs = workload.inputs(workdir, seed)
    if trace:
        return traced(workload, cli, inputs, seconds)
    values, details = untraced(workload, cli, inputs, seconds)
    values["converged_share"] = converged_share
    values["accuracy_err"] = accuracy_err
    return values, details


def record_reference(workload, cli, workdir):
    _, output, path = reference_pass(workload, cli, workdir)
    path.write_text(workload.reference_text(output), encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append this run as one JSON line to this file")
    parser.add_argument("--record-reference", action="store_true",
                        help="write the workload's reference output and exit")
    args = parser.parse_args(argv)

    if not (SRC / "skewdisc" / "cli.py").is_file() or BENCHMARK is None:
        print(f"benchmark: no skewdisc sources under {SRC} or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import skewdisc.cli

    if Path(skewdisc.cli.__file__).resolve().parent != SRC / "skewdisc":
        print(f"benchmark: imported skewdisc from {skewdisc.cli.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    cli = workloads.Cli(skewdisc.cli)
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        if args.record_reference:
            record_reference(workload, cli, workdir)
            return 0
        env = environment()
        print(json.dumps({"environment": env}))
        correct, details = True, {}
        try:
            values, details = measure(workload, cli, args.seed % 2 ** 32, args.seconds,
                                      args.trace, workdir)
        except CheckFailed as exc:
            correct, values = False, {}
            print(f"benchmark: check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    result = {
        "correct": correct,
        "attempted": cli.attempted,
        "failed": cli.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    if args.results:
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": workload.name, "seed": args.seed,
                                 "trace": args.trace, "environment": env,
                                 "details": details, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
