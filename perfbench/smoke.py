#!/usr/bin/env python3
"""Smoke run of the benchmark on a tiny model; takes well under a minute.

    python3 perfbench/smoke.py

Runs every workload with ``--smoke`` once untraced and once traced and
checks that the last output line names exactly the metrics of
``BENCHMARK.json`` (``end_to_end`` untraced, ``per_layer`` traced), each
with its unit. It also checks that the benchmark refuses to run, without
printing a result, from a directory holding only ``BENCHMARK.json`` and
``perfbench/``. Exit code 0 when every check passes. It is not part of the
test suite, so the default test run does not pay for it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300,
                                  check=False)
            result = last_json(proc.stdout)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                problems.append(f"{tag}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{tag}: a metric value is not a number")
            print(f"ok {tag}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}")

    bare = ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(RUN.parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval_slc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    else:
        print(f"ok bare directory: exit {proc.returncode} without a result")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
