import json

import numpy as np
import pytest

from lutshrink import checkpoint
from lutshrink.checkpoint import CheckpointError
from lutshrink.data import synth_boolean
from lutshrink.train import (
    MetricLog,
    ShrinkPlan,
    TrainConfig,
    build_network,
    logic_expand,
    prune_nodes,
    train_bnn,
)


def small_cfg():
    return TrainConfig(hidden=[8], shrink_layers=["fc2"], theta=0.25, k=3,
                       epochs_bnn=20, epochs_post_prune=2, epochs_post_expand=2,
                       batch_size=8, lr=0.05, seed=0,
                       synth_function="parity", synth_inputs=4, synth_samples=16)


def expanded_net():
    cfg = small_cfg()
    ds = synth_boolean("parity", 4, 16)
    rng = np.random.default_rng(cfg.seed)
    net = build_network(cfg, 4, 2, rng)
    log = MetricLog()
    train_bnn(net, ds, ds, cfg, rng, log)
    prune_nodes(net, cfg.theta, ds, ds, cfg, rng, log)
    logic_expand(net, cfg.k, ds, ds, cfg, rng, log)
    return net, cfg, rng, ds


def test_save_load_save_is_byte_identical(tmp_path):
    net, cfg, rng, _ = expanded_net()
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    plan = ShrinkPlan(deltas=[0.25], pruned_counts=[3],
                      saliences=[np.arange(6.0).reshape(2, 3)],
                      masks=[np.zeros((2, 3), dtype=bool)])
    checkpoint.save(p1, net, cfg, "expanded", rng, plan)
    net2, cfg2, phase2, rng2, plan2 = checkpoint.load(p1)
    checkpoint.save(p2, net2, cfg2, phase2, rng2, plan2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_loaded_model_predicts_identically(tmp_path):
    net, cfg, rng, ds = expanded_net()
    p = str(tmp_path / "c.json")
    checkpoint.save(p, net, cfg, "expanded", rng)
    net2, _, _, _, _ = checkpoint.load(p)
    np.testing.assert_array_equal(net.predict_bin(ds.features),
                                  net2.predict_bin(ds.features))


def test_rng_state_round_trip(tmp_path):
    net, cfg, rng, _ = expanded_net()
    p = str(tmp_path / "r.json")
    checkpoint.save(p, net, cfg, "expanded", rng)
    _, _, _, rng2, _ = checkpoint.load(p)
    np.testing.assert_array_equal(rng.integers(0, 1 << 30, size=10),
                                  rng2.integers(0, 1 << 30, size=10))


def test_plan_round_trip(tmp_path):
    net, cfg, rng, _ = expanded_net()
    plan = ShrinkPlan(deltas=[0.25, 0.5], pruned_counts=[2, 5],
                      saliences=[np.random.default_rng(0).uniform(size=(3, 3))] * 2,
                      masks=[np.eye(3, dtype=bool)] * 2, random_mode=True)
    p = str(tmp_path / "p.json")
    checkpoint.save(p, net, cfg, "shrunk", rng, plan)
    _, _, _, _, plan2 = checkpoint.load(p)
    assert plan2.random_mode and plan2.pruned_counts == [2, 5]
    np.testing.assert_array_equal(plan2.deltas, plan.deltas)
    for a, b in zip(plan.saliences, plan2.saliences):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(plan.masks, plan2.masks):
        np.testing.assert_array_equal(a, b)


def test_unknown_phase_rejected(tmp_path):
    net, cfg, rng, _ = expanded_net()
    with pytest.raises(CheckpointError, match="unknown phase"):
        checkpoint.save(str(tmp_path / "x.json"), net, cfg, "warmup", rng)


def test_unsupported_version_rejected(tmp_path):
    net, cfg, rng, _ = expanded_net()
    p = str(tmp_path / "v.json")
    checkpoint.save(p, net, cfg, "expanded", rng)
    doc = json.load(open(p))
    doc["format_version"] = 99
    json.dump(doc, open(p, "w"))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        checkpoint.load(p)


def _legacy(path, binarize_inputs):
    """Rewrite a checkpoint as the earlier format that stored the removed
    binarize_inputs knob at the top level and in the config."""
    with open(path) as f:
        doc = json.load(f)
    doc["binarize_inputs"] = binarize_inputs
    doc["config"]["binarize_inputs"] = binarize_inputs
    with open(path, "w") as f:
        json.dump(doc, f)


def test_legacy_binarized_checkpoint_loads(tmp_path):
    net, cfg, rng, ds = expanded_net()
    p = str(tmp_path / "old.json")
    checkpoint.save(p, net, cfg, "expanded", rng)
    _legacy(p, True)
    net2, cfg2, _, _, _ = checkpoint.load(p)
    assert cfg2 == cfg
    np.testing.assert_array_equal(net.predict_bin(ds.features),
                                  net2.predict_bin(ds.features))


def test_legacy_real_input_checkpoint_rejected(tmp_path):
    net, cfg, rng, _ = expanded_net()
    p = str(tmp_path / "old.json")
    checkpoint.save(p, net, cfg, "expanded", rng)
    _legacy(p, False)
    with pytest.raises(CheckpointError, match="binarize_inputs = false.*retrain"):
        checkpoint.load(p)
