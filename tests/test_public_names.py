"""Names that other code reaches by attribute: every export of the package,
and the callables the benchmark's tracer (``perfbench/tracer.py``) wraps.
Both are looked up with getattr, so a removed or renamed name would only
show when they are used; here it fails the test suite."""

import importlib
import sys
from pathlib import Path

import numpy as np

import lutshrink
from lutshrink import train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_export_resolves():
    for name in lutshrink.__all__:
        assert getattr(lutshrink, name) is not None, name


def test_benchmark_tracer_installs_and_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    fresh = [m for m in ("tracer", "metrics") if m not in sys.modules]
    try:
        tracer = importlib.import_module("tracer").Tracer()
        with tracer.installed():
            scores = np.array([[0.5, 0.1], [0.2, 0.9]])
            mask = train.build_prune_mask(scores, 0.5, None)
    finally:
        for m in fresh:
            sys.modules.pop(m, None)
    assert mask.count == 2
    assert tracer.counts["shrink.inputs_severed"] == 2
    assert [span[0] for span in tracer.spans] == ["shrink.build_prune_mask"]
