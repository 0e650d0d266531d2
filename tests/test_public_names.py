"""Names that other code reaches by attribute: the callables the benchmark's
tracer (``perfbench/tracer.py``) wraps. It looks them up with getattr, so a
removed or renamed name would only show when it runs; here it fails the
test suite. The tracer also reads arguments and attributes of the calls it
wraps (the ``training`` flag of ``Network.forward``, the ``mode`` of
``LutLayer.forward`` and ``LutLayer._cache_mode``); a change to those shows
in the span names."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from lutshrink import checkpoint, netlist, pipeline, train
from lutshrink.cli import main
from lutshrink.config import preset_path
from lutshrink.data import Dataset
from lutshrink.model import BatchNorm, DenseLayer, LutLayer, Network, softmax_xent

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
        DenseLayer(6, 4, BatchNorm(4), "fc1", shadow=rng.uniform(-0.1, 0.1, size=(4, 6)),
                   alive=np.ones((4, 6), dtype=bool)),
        LutLayer(4, 4, BatchNorm(4), "fc2", inputs=rng.integers(0, 4, size=(8, 2)),
                 channel=rng.integers(0, 4, size=8), masks=rng.uniform(-1, 1, size=(8, 4)),
                 pruned=np.zeros((8, 2), dtype=bool)),
        DenseLayer(4, 2, None, "fc3", shadow=rng.uniform(-0.1, 0.1, size=(2, 4)),
                   alive=np.ones((2, 4), dtype=bool)),
    ])
    ds = Dataset(rng.uniform(-1, 1, size=(5, 6)), rng.integers(0, 2, size=5), 2)
    with tracer.installed():
        for mode in ("hp", "bin"):  # one training step each, as train_phase runs it
            logits = net.forward(ds.features, mode, training=True)
            net.backward(softmax_xent(logits, ds.labels)[1])
            net.step(0.1)
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


def test_benchmark_tracer_sees_every_driver_call(tracer, tmp_path, capsys):
    """xor-smoke through ``pipeline.run_stage`` and ``run_export``: the
    driver reaches the traced callables through their module attributes,
    so each opens its span. The ``area_terms`` that ``export`` prints is the
    benchmark's count: LUT fan-ins plus adder terms after simplify."""
    out = str(tmp_path)
    with tracer.installed():
        ckpt = pipeline.run_stage("train", preset_path("xor-smoke"), out)
        for command in train.STAGES:
            assert pipeline.run_stage(command, ckpt) == ckpt
        res = pipeline.run_export(ckpt, out)
    assert {name for name, *_ in tracer.spans} >= {
        "checkpoint.load", "checkpoint.save", "netlist.extract", "netlist.simplify",
        "netlist.simulate", "verilog.emit", "verilog.parse"}
    assert res.mismatches == 0

    assert main(["export", ckpt, "--out", str(tmp_path / "x")]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("area_terms: ")]
    assert len(printed) == 1
    post = netlist.simplify(netlist.extract_netlist(checkpoint.load(ckpt)[0]))
    adder_terms = sum(len(n.terms) for n in post.nodes.values() if n.kind == "sum")
    lut_inputs = sum(n.k for n in post.nodes.values() if n.kind == "lut")
    assert lut_inputs + adder_terms > 0
    assert printed[0].split()[1] == str(res.area_terms)
    assert res.area_terms == lut_inputs + adder_terms
