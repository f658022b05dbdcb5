"""The benchmark's tracer against the names it swaps in exitlab.

``perfbench/spantrace.py`` wraps exitlab functions and methods by name. A
rename or removal of one of them breaks ``perfbench/run.py --trace 1``;
installing the tracer here makes it fail this suite instead. No model runs.
"""

from pathlib import Path

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
