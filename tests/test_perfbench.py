"""The benchmark against the exitlab names and results it relies on.

``perfbench/spantrace.py`` wraps exitlab functions and methods by name. A
rename or removal of one of them breaks ``perfbench/run.py --trace 1``;
installing the tracer here makes it fail this suite instead. The smoke runs
run each workload's own correctness checks on a tiny model.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_swapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spantrace

    tracer = spantrace.Tracer()
    try:
        tracer.install()
        swapped = list(tracer._patches._saved)
        assert swapped
        for owner, attr, original in swapped:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in swapped:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, (owner, attr)
    assert not tracer.installed


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep_mlc", "eval_slc"])
def test_smoke_run_passes_its_checks(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--smoke", "--seconds", "1",
         "--workload", workload, "--trace", str(trace)],
        cwd=PERFBENCH.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
