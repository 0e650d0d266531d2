"""Names that other code reaches by attribute: every export of the package,
and the callables the benchmark's tracer (``perfbench/tracer.py``) wraps.
Both are looked up with getattr, so a removed or renamed name would only
show when they are used; here it fails the test suite. The tracer also
reads arguments and attributes of the calls it wraps (the ``training`` flag
of ``Network.forward``, the ``mode`` of ``LutLayer.forward`` and
``LutLayer._cache_mode``); a change to those shows in the span names."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import lutshrink
from lutshrink import train
from lutshrink.data import Dataset
from lutshrink.model import BatchNorm, DenseLayer, LutLayer, Network, softmax_xent

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_export_resolves():
    for name in lutshrink.__all__:
        assert getattr(lutshrink, name) is not None, name


@pytest.fixture
def tracer(monkeypatch):
    """A fresh ``perfbench`` Tracer; its modules leave with the test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    fresh = [m for m in ("tracer", "metrics") if m not in sys.modules]
    try:
        yield importlib.import_module("tracer").Tracer()
    finally:
        for m in fresh:
            sys.modules.pop(m, None)


def test_benchmark_tracer_installs_and_counts(tracer):
    with tracer.installed():
        scores = np.array([[0.5, 0.1], [0.2, 0.9]])
        mask = train.build_prune_mask(scores, 0.5, None)
    assert mask.count == 2
    assert tracer.counts["shrink.inputs_severed"] == 2
    assert [span[0] for span in tracer.spans] == ["shrink.build_prune_mask"]


def _layer_spans(top: str, lut_fwd: str) -> list[tuple[str, str]]:
    """(span, parent) of a dense -> LUT -> dense forward under ``top``."""
    return [("model.dense.fwd", top), (lut_fwd, top),
            ("model.lut.effective_masks", lut_fwd), ("model.dense.fwd", top)]


def test_benchmark_tracer_spans_a_training_step(tracer):
    rng = np.random.default_rng(0)
    net = Network([
        DenseLayer(6, 4, rng, "fc1"),
        LutLayer(4, 4, 2, rng.integers(0, 4, size=(8, 2)), rng.integers(0, 4, size=8),
                 rng.uniform(-1, 1, size=(8, 4)), "fc2", bn=BatchNorm(4)),
        DenseLayer(4, 2, rng, "fc3", is_output=True),
    ])
    ds = Dataset(rng.uniform(-1, 1, size=(5, 6)), rng.integers(0, 2, size=5), 2)
    with tracer.installed():
        for mode in ("hp", "bin"):  # one training step each, as train_phase runs it
            logits = net.forward(ds.features, mode, training=True)
            net.backward(softmax_xent(logits, ds.labels)[1])
            net.step(0.1, 0.9)
        train.evaluate(net, ds, "hp")
        net.recalibrate(ds.features)
    got = [(name, tracer.spans[parent][0] if parent >= 0 else None)
           for name, _, _, parent in tracer.spans]
    step = "train.step"
    want = []
    for mode in ("hp", "bin"):
        want += [(step, None), *_layer_spans(step, f"model.lut.fwd_{mode}"),
                 ("model.dense.bwd", step), (f"model.lut.bwd_{mode}", step),
                 ("model.dense.bwd", step), ("model.optimizer", step)]
    want += [("train.eval", None), *_layer_spans("train.eval", "model.lut.fwd_hp"),
             ("train.recalibrate", None),
             *_layer_spans("train.recalibrate", "model.lut.fwd_bin")]
    assert got == want
    # the step span opens once per training step, never at evaluation
    assert [name for name, _ in got].count(step) == 2
    assert tracer.counts["train.samples"] == 2 * len(ds)
