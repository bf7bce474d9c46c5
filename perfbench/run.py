"""Benchmark of the palindromics package.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

With --trace 0 the run reports the end-to-end metrics (setup_s, pass_s,
peak_rss_mb); with --trace 1 it alternates untraced passes with passes
that record spans around each module, reports the per-layer metrics and
writes the spans of its last pass to perfbench/out/. Every operation's output is
checked. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The measured passes run in this process, on one thread. Set-up time is the
median over fresh interpreters started between the passes.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "palindromics" / "__init__.py"
NAMES = ("verify-suite", "deep-returns", "long-words", "pal-report")
MIN_SETUP_RUNS = 9
MAX_SETUP_RUNS = 15
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter (import plus input build)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_time.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def tail_note(times: list[float]) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(times)
    if n <= 10:
        return f"n={n} passes; no percentile has 10 samples beyond it"
    pct = math.floor(100 * (1 - 10 / n))
    value = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    return f"p{pct} {value:.4f} s over n={n} passes"


def measure(workload, rng, seconds, tracer=None, setups=None):
    """Run passes while the next one is due to end less than half a pass
    after the window, so the passes fill the window on average.

    With a tracer, each step is an untraced and a traced pass, in turns
    first, so that their difference is paired against the drift of a
    shared machine. When setups is a list, one set-up sample is taken before each
    step, so the samples spread over the run like the passes; their time
    does not count against the window.
    """
    import tracing
    import workloads

    plain, traced, outputs, per_pass = [], [], [], []
    spent = 0.0
    while True:
        if setups is not None and len(setups) < MAX_SETUP_RUNS:
            setups.append(setup_sample(workload.name, workload.seed))
        start = time.perf_counter()
        order = [False]
        if tracer is not None:  # the traced pass goes first on every other step
            order = [False, True] if len(plain) % 2 == 0 else [True, False]
        for traced_pass in order:
            if traced_pass:
                tracer.reset()
                with tracing.installed(tracer):
                    elapsed, out = workloads.run_pass(workload, rng, tracer)
                traced.append(elapsed)
                per_pass.append(workloads.layer_metrics(tracer))
            else:
                elapsed, out = workloads.run_pass(workload, rng)
                plain.append(elapsed)
            outputs.append(out)
        step = time.perf_counter() - start
        spent += step
        if spent + step / 2 >= seconds:
            return plain, traced, outputs, per_pass


def run_workload(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    workload = workloads.build(args.workload, args.seed)
    rng = random.Random(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    setups = None if args.trace else []
    times, traced, outputs, per_pass = measure(
        workload, rng, args.seconds, tracer, setups
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_s = statistics.median(times)
    print(f"{args.workload}: pass_s median {pass_s:.4f} s; tail: {tail_note(times)}")

    if args.trace:
        metrics = {
            name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
        }
        metrics["trace.overhead_s"] = statistics.median(
            t - p for t, p in zip(traced, times)
        )
        units = {name: unit for name, unit, _ in workloads.PER_LAYER}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}.json").write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "rows": workloads.layer_rows(tracer, peak_rss_mb),
            "spans": tracer.spans,
        }))
    else:
        while len(setups) < MIN_SETUP_RUNS:
            setups.append(setup_sample(args.workload, args.seed))
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": pass_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    expected = workloads.expected_outputs(workload)
    attempted = failed = 0
    for out in outputs:
        for key, value in out.items():
            attempted += 1
            if value is None or value != expected.get(key):
                failed += 1
                print(f"FAILED {args.workload}/{key}: {value!r}", file=sys.stderr)
    shown = [f"{k} {v:.4f} {units[k]}" for k, v in metrics.items()
             if k in END_TO_END_UNITS]
    shown.append(f"failed_share {failed / attempted:g} ({failed}/{attempted})")
    print(f"{args.workload}: " + " | ".join(shown))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so their peak RSS stay apart."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        result["correct"] &= part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = value
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not SOURCE.is_file():
        print(f"error: no palindromics source at {SOURCE.relative_to(ROOT)}",
              file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
