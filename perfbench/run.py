#!/usr/bin/env python3
"""exitlab benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval_slc --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all            # all three, one after another

``--trace 0`` times the workload untraced and prints every end-to-end
metric; ``--trace 1`` swaps in the span tracer (perfbench/spantrace.py) and
prints every per-layer metric plus the tracing overhead. The last line of
standard output is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
The exit code is 0 when every correctness check passed, 1 when one failed
and 2 when the checkout holds no exitlab source.

The default seed is 1; seed 2 is held out for confirming a claimed gain.
``--smoke`` swaps in a tiny model so that a run takes seconds.
"""

from __future__ import annotations

import os

# one compute thread: BLAS pools are sized before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
NAMES = ("train_slc", "eval_slc", "sweep_mlc")
DEFAULT_SEED = 1  # seed 2 is held out, see the module docstring


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12.0)  # BENCHMARK.json run_seconds
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny model; for checking the harness")
    return ap.parse_args(argv)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": _git_commit(),
        "seed": seed,
    }


def _pct(values, q):
    if len(values) < 2:  # a traced half may hold a single sweep-and-compare round
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import spantrace as tracing
    import workloads as wl

    sizes = wl.TINY if args.smoke else wl.FULL
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    info = machine(args.seed)
    print("machine " + json.dumps(info, sort_keys=True))
    tracer = tracing.Tracer() if args.trace else None
    with tracing.Probe() as probe:
        work = wl.WORKLOADS[args.workload](args.seed, sizes, probe, tracer)
        setup_s, prints = [], set()
        for _ in range(1 if tracer else sizes.setup_repeats):
            if tracer:
                tracer.install()
            t0 = tracing.clock()
            prints.add(work.setup())
            setup_s.append(tracing.clock() - t0)
            if tracer:
                tracer.uninstall()
        failed = len(prints) - 1
        wall0, cpu0 = time.perf_counter(), tracing.clock()
        if tracer:
            untraced = work.loop(args.seconds / 2)
            with tracer:
                stats = work.loop(args.seconds / 2)
        else:
            stats = work.loop(args.seconds)
        wall, cpu = time.perf_counter() - wall0, tracing.clock() - cpu0
        fin = work.finish(OUT_DIR)
    failed += fin.failed
    attempted = len(stats.latencies_ms) + (len(untraced.latencies_ms) if tracer else 0)

    lat = stats.latencies_ms
    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "items_per_s": (stats.items_per_s, "1/s"),
        "latency_ms_p50": (statistics.median(lat), "ms"),
        "latency_ms_p90": (_pct(lat, 90), "ms"),
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  set-ups {len(setup_s)}: "
          + " ".join(f"{s:.3f}" for s in setup_s) + " s")
    if len(prints) > 1:
        print(f"FAIL repeated set-ups built {len(prints)} different fingerprints")
    print(f"timed loop: {wall:.3f} s wall, {cpu:.3f} s CPU; operations are timed in CPU "
          f"seconds, the difference is time the process did not run")
    for line in fin.report:
        print(line)
    named = {
        "train_slc": {"train_examples_per_s": (stats.items_per_s, "1/s")},
        "eval_slc": {
            "eval_latency_ms_p50": (statistics.median(lat), "ms"),
            f"eval_latency_ms_p99 (n={len(lat)})": (_pct(lat, 99), "ms"),
            "eval_samples_per_s": (stats.items_per_s, "1/s"),
            "accuracy": (fin.score, "share"),
        },
        "sweep_mlc": {
            "sweep_compare_items_per_s": (stats.items_per_s, "1/s"),
            "sweep_evals_per_s": (fin.counts.get("sweep_evals_per_s", 0.0), "1/s"),
            "compare_s": (fin.counts.get("compare_s", 0.0), "s"),
            "frontier_auc": (fin.counts.get("frontier_auc", 0.0), "share"),
        },
    }[args.workload]
    named.update({
        "score": (fin.score, "share"),
        "layer_speedup": (fin.layer_speedup, "share"),
        "wall_speedup": (fin.wall_speedup, "share"),
        "failed_share": (failed / attempted, "share"),
    })
    phase = "traced" if tracer else "untraced"
    for name, (value, unit) in {**e2e, **named}.items():
        print(f"  {phase} {name:<34}{value:>14.6g} {unit}")

    if tracer:
        layer = tracer.per_layer()
        layer["trace.overhead_share"] = (1.0 - stats.items_per_s / untraced.items_per_s, "share")
        layer["harness.compare_knob_at_bound"] = (
            float(fin.counts.get("compare_knob_at_bound", 0)), "count")
        layer["exit.score"] = (fin.score, "share")
        layer["exit.layer_speedup"] = (fin.layer_speedup, "share")
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.csv.gz"
        tracer.write(spans)
        print(f"tracing overhead: items_per_s untraced {untraced.items_per_s:.6g}, traced "
              f"{stats.items_per_s:.6g}; {len(tracer.spans)} spans written to "
              f"{spans.relative_to(ROOT)}")
        for name, (value, unit) in layer.items():
            print(f"  {name:<38}{value:>14.6g} {unit}")
        metrics = layer
    else:
        metrics = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "exitlab" / "__init__.py").is_file():
        print(f"error: no exitlab source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
