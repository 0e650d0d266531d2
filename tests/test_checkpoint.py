import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lutshrink import checkpoint
from lutshrink.checkpoint import CheckpointError
from lutshrink.cli import main
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
    plan = ShrinkPlan(deltas=[0.25], pruned_counts=[3])
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
    cfg.random_prune = True
    plan = ShrinkPlan(deltas=[0.25, 0.5], pruned_counts=[2, 5])
    p = str(tmp_path / "p.json")
    checkpoint.save(p, net, cfg, "shrunk", rng, plan)
    _, cfg2, _, _, plan2 = checkpoint.load(p)
    assert cfg2.random_prune and plan2.pruned_counts == [2, 5]
    np.testing.assert_array_equal(plan2.deltas, plan.deltas)


def test_unknown_phase_rejected(tmp_path):
    net, cfg, rng, _ = expanded_net()
    with pytest.raises(CheckpointError, match="unknown phase"):
        checkpoint.save(str(tmp_path / "x.json"), net, cfg, "warmup", rng)


@pytest.mark.parametrize("version", [1, 2, 99])
def test_unsupported_version_rejected(tmp_path, capsys, version):
    net, cfg, rng, _ = expanded_net()
    p = str(tmp_path / "v.json")
    checkpoint.save(p, net, cfg, "expanded", rng)
    doc = json.load(open(p))
    doc["format_version"] = version
    json.dump(doc, open(p, "w"))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        checkpoint.load(p)
    # the CLI prints one line that names the file and the remedy
    assert main(["report", p]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and p in err
    assert f"version {version}" in err and "re-run from `lutshrink train`" in err


def test_truncated_checkpoint_names_the_file(tmp_path):
    net, cfg, rng, _ = expanded_net()
    p = str(tmp_path / "t.json")
    checkpoint.save(p, net, cfg, "expanded", rng)
    with open(p, "r+") as f:
        f.truncate(6)
    with pytest.raises(CheckpointError, match=f"{re.escape(p)} is not a checkpoint"):
        checkpoint.load(p)


def edit_layer(i, edit):
    """A checkpoint edit that replaces layer i by edit(layer i)."""
    return lambda doc: {**doc, "layers": [edit(d) if n == i else d
                                          for n, d in enumerate(doc["layers"])]}


def with_shadow(value):
    """A dense-layer edit that stores ``value`` as one of its shadows."""
    def edit(d):
        shadow = checkpoint._dec(d["shadow"])
        shadow[1, 2] = value
        return {**d, "shadow": checkpoint._enc(shadow, "<f8")}
    return edit


def with_array(key, edit):
    """An edit of a layer (or of its ``bn``) that stores edit(array) as its
    array ``key``, in the same dtype."""
    return lambda d: {**d, key: checkpoint._enc(edit(checkpoint._dec(d[key])),
                                                d[key]["dtype"])}


def with_bn_array(key, edit):
    return lambda d: {**d, "bn": with_array(key, edit)(d["bn"])}


def with_first(value):
    """An array edit that sets its first entry to ``value``."""
    def edit(a):
        a.flat[0] = value
        return a
    return edit


def edit_section(key, edit):
    """A checkpoint edit that replaces doc[key] by edit(doc[key])."""
    return lambda doc: {**doc, key: edit(doc[key])}


def without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def cut_inputs(n):
    """A LUT-layer edit that keeps inputs below n: n_in n, and the LUTs
    whose inputs all lie below it."""
    def edit(d):
        inputs = checkpoint._dec(d["inputs"])
        keep = np.all(inputs < n, axis=1)
        return {**d, "n_in": n, **{key: checkpoint._enc(checkpoint._dec(d[key])[keep],
                                                         d[key]["dtype"])
                                   for key in ("inputs", "channel", "masks", "pruned")}}
    return edit


def cut_outputs(n):
    """A dense-layer edit that keeps its first n units, with their arrays."""
    def edit(d):
        d = {**d, "n_out": n}
        for key in ("shadow", "alive"):
            d = with_array(key, lambda a: a[:n])(d)
        for key in ("gamma", "beta", "running_mean", "running_var"):
            d = with_bn_array(key, lambda a: a[:n])(d)
        return d
    return edit


_SHADOW_RANGE = "not a finite value in [-1, 1]; re-run from `lutshrink train`"
_PLAN = {"deltas": [0.5], "pruned_counts": [3]}


@pytest.mark.parametrize("edit, field", [
    (lambda doc: [], "its top level has type list, not dict"),
    (lambda doc: {k: v for k, v in doc.items() if k != "layers"}, "no field 'layers'"),
    (lambda doc: {**doc, "layers": 5}, "field 'layers' has type int"),
    (lambda doc: {**doc, "config": None}, "field 'config' has type NoneType"),
    (edit_layer(0, lambda d: {k: v for k, v in d.items() if k != "kind"}),
     "layer 0 has no field 'kind'"),
    (edit_layer(0, lambda d: []), "layer 0 has type list, not dict"),
    (edit_layer(1, lambda d: {k: v for k, v in d.items() if k != "masks"}),
     "layer 1 has no field 'masks'"),
    (edit_layer(0, lambda d: {**d, "shadow": {**d["shadow"], "dtype": "<f4"}}),
     "layer 0: field 'shadow' is not a <f8 array: it has dtype '<f4'"),
    (edit_layer(0, lambda d: {**d, "n_out": "8"}),
     "layer 0: field 'n_out' has type str"),
    (edit_layer(1, lambda d: {**d, "k": "2"}), "layer 1: field 'k' has type str"),
    (edit_layer(0, lambda d: {**d, "bn": []}), "layer 0: field 'bn' has type list"),
    (edit_layer(0, lambda d: {**d, "bn": None}),
     "layer 0: field 'bn' of 'fc1' is null, but the last layer, and only it, has no "
     "batch norm"),
    (edit_layer(1, lambda d: {**d, "bn": {}}),
     "layer 1: field 'bn' of 'fc2' is not null, but the last layer, and only it, "
     "has no batch norm"),
    (edit_layer(0, lambda d: {**d, "bn": {**d["bn"], "eps": 1e-5}}),
     "layer 0: field 'bn' has an unknown field 'eps'"),
    (edit_layer(0, lambda d: {**d, "bn": without("gamma")(d["bn"])}),
     "layer 0: field 'bn' has no field 'gamma'"),
    (edit_layer(0, lambda d: {**d, "alpha": 0.5}), "layer 0 has an unknown field 'alpha'"),
    (edit_layer(1, lambda d: {**d, "alpha": float("nan")}),
     "layer 1 has an unknown field 'alpha'"),
    (edit_layer(0, lambda d: {**d, "is_output": "no"}),
     "layer 0 has an unknown field 'is_output'"),
    (edit_layer(0, lambda d: {**d, "shrinkable": True}),
     "layer 0 has an unknown field 'shrinkable'"),
    (edit_layer(1, lambda d: {**d, "shadow": d["masks"]}),
     "layer 1 has an unknown field 'shadow'"),
    (lambda doc: {**doc, "num_classes": 2}, "its top level has an unknown field 'num_classes'"),
    (lambda doc: {**doc, "layers": []}, "field 'layers' is empty"),
    (edit_layer(1, cut_inputs(7)),
     "layer 1: field 'n_in' of 'fc2' is 7, not 8, the n_out of 'fc1'"),
    (edit_layer(0, cut_outputs(7)),
     "layer 1: field 'n_in' of 'fc2' is 8, not 7, the n_out of 'fc1'"),
    (edit_layer(0, lambda d: {**d, "n_in": 0}),
     "layer 0: field 'n_in' of 'fc1' is 0, not >= 1"),
    (edit_layer(1, lambda d: {**d, "n_out": 0}),
     "layer 1: field 'n_out' of 'fc2' is 0, not >= 1"),
    (edit_layer(0, lambda d: {**d, "kind": "conv"}),
     "layer 0: field 'kind' is 'conv', not 'dense' or 'lut'"),
    (edit_layer(0, with_shadow(np.nan)),
     f"layer 0: field 'shadow' of 'fc1' holds nan, {_SHADOW_RANGE}"),
    (edit_layer(0, with_shadow(-np.inf)),
     f"layer 0: field 'shadow' of 'fc1' holds -inf, {_SHADOW_RANGE}"),
    (edit_layer(0, with_shadow(np.nextafter(1.0, 2.0))),
     f"layer 0: field 'shadow' of 'fc1' holds 1.0000000000000002, {_SHADOW_RANGE}"),
    (edit_section("config", without("delta")), "field 'config' has no field 'delta'"),
    (edit_section("config", lambda c: {**c, "extra": 1}),
     "field 'config' has an unknown field 'extra'"),
    (edit_section("config", lambda c: {**c, "hidden": "abc"}),
     "[model] hidden must be a list of integers, got 'abc'"),
    (edit_section("config", lambda c: {**c, "delta": "0.5"}),
     "[shrink] delta (--delta) must be a number, got '0.5'"),
    (edit_section("config", lambda c: {**c, "k": 9}),
     "[expand] k (--k) must be in [1, 6], got 9"),
    (edit_section("config", lambda c: {**c, "delta": [0.5]}),
     "[shrink] delta (--delta) must be a number, got [0.5]"),
    (edit_section("config", lambda c: {**c, "shrink_iters": 1.5}),
     "[shrink] iterations (--iterations) must be an integer, got 1.5"),
    (edit_section("config", lambda c: {**c, "k": 2.5}),
     "[expand] k (--k) must be an integer, got 2.5"),
    (edit_section("config", lambda c: {**c, "seed": "x"}),
     "[train] seed must be an integer, got 'x'"),
    (edit_section("config", lambda c: {**c, "random_prune": "yes"}),
     "[shrink] random_prune (--random-prune) must be true or false, got 'yes'"),
    (edit_section("config", lambda c: {**c, "batch_size": True}),
     "[train] batch_size must be an integer, got True"),
    (edit_section("config", lambda c: {**c, "hidden": 5}),
     "[model] hidden must be a list of integers, got 5"),
    (edit_section("config", lambda c: {**c, "lr_schedule": [[0.1, 2.5]]}),
     "[train] lr_schedule must be rate:epochs with a rate finite and > 0 and "
     "whole epochs >= 0, got 0.1:2.5"),
    (lambda doc: {**doc, "shrink_plan": without("deltas")(_PLAN)},
     "field 'shrink_plan' has no field 'deltas'"),
    (lambda doc: {**doc, "shrink_plan": {**_PLAN, "seed": 1}},
     "field 'shrink_plan' has an unknown field 'seed'"),
    (edit_layer(1, with_array("masks", lambda a: a[:3, :2])),
     "layer 1: field 'masks' has shape (3, 2), not (N, 8)"),
    (edit_layer(1, with_array("masks", lambda a: a[0])),
     "layer 1: field 'masks' has shape (8,), not (N, 8)"),
    (edit_layer(1, with_array("inputs", lambda a: a[:, :2])),
     "layer 1: field 'inputs' has shape ({n}, 2), not ({n}, 3)"),
    (edit_layer(1, with_array("channel", lambda a: a[:-1])),
     "layer 1: field 'channel' has shape ({n_less},), not ({n},)"),
    (edit_layer(1, with_array("pruned", lambda a: a.T)),
     "layer 1: field 'pruned' has shape (3, {n}), not ({n}, 3)"),
    (edit_layer(1, with_array("channel", with_first(999))),
     "layer 1: field 'channel' holds 999, not in [0, 2)"),
    (edit_layer(1, with_array("inputs", with_first(-1))),
     "layer 1: field 'inputs' holds -1, not in [0, 8)"),
    (edit_layer(1, with_array("inputs", with_first(8))),
     "layer 1: field 'inputs' holds 8, not in [0, 8)"),
    (edit_layer(1, lambda d: {**d, "k": 7}), "layer 1: field 'k' is 7, not in [1, 6]"),
    (edit_layer(1, lambda d: {**d, "k": 0}), "layer 1: field 'k' is 0, not in [1, 6]"),
    (edit_layer(0, with_array("shadow", lambda a: a[:, :1])),
     "layer 0: field 'shadow' has shape (8, 1), not (8, 4)"),
    (edit_layer(0, with_array("alive", lambda a: a.T)),
     "layer 0: field 'alive' has shape (4, 8), not (8, 4)"),
    (edit_layer(0, with_bn_array("gamma", lambda a: a[:3])),
     "layer 0: field 'gamma' has shape (3,), not (8,)"),
    (edit_layer(0, with_bn_array("running_var", lambda a: a[:, None])),
     "layer 0: field 'running_var' has shape (8, 1), not (8,)"),
], ids=["list", "no-layers", "int-layers", "null-config", "layer-no-kind",
        "layer-list", "lut-no-masks", "shadow-f4", "n_out-str", "k-str", "bn-list",
        "bn-null-hidden", "bn-on-output", "bn-extra-key", "bn-no-gamma", "alpha", "alpha-nan", "is_output-str",
        "shrinkable", "lut-with-shadow", "num_classes", "layers-empty",
        "n_in-below-chain", "n_out-below-chain", "n_in-zero", "n_out-zero",
        "kind-conv", "shadow-nan", "shadow-neg-inf",
        "shadow-above-1", "config-no-delta", "config-extra-key", "config-hidden-str",
        "config-delta-str", "config-k-range", "config-delta-list",
        "config-iterations-float", "config-k-float", "config-seed-str",
        "config-random-prune-str", "config-batch-size-bool", "config-hidden-int",
        "config-lr-schedule-float-epochs",
        "plan-no-key", "plan-extra-key",
        "masks-columns", "masks-1d", "inputs-columns", "channel-short", "pruned-T",
        "channel-range", "inputs-negative", "inputs-range", "k-above-max", "k-zero",
        "shadow-shape", "alive-T", "bn-gamma-shape", "bn-var-2d"])
def test_malformed_checkpoint_names_the_file_and_field(tmp_path, capsys, edit, field):
    net, cfg, rng, _ = expanded_net()
    p = str(tmp_path / "m.json")
    checkpoint.save(p, net, cfg, "expanded", rng)
    with open(p) as f:
        doc = edit(json.load(f))
    with open(p, "w") as f:
        json.dump(doc, f)
    n = net.layers[1].n_nodes
    message = f"{p} is not a checkpoint: {field.format(n=n, n_less=n - 1)}"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        checkpoint.load(p)
    assert main(["export", p, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_shadow_at_the_clip_bounds_loads(tmp_path):
    net, cfg, rng, _ = expanded_net()
    shadow = net.layers[0].shadow.copy()
    shadow[0, :2] = [-1.0, 1.0]
    net.layers[0].shadow = shadow
    p = str(tmp_path / "b.json")
    checkpoint.save(p, net, cfg, "expanded", rng)
    assert checkpoint.load(p)[0].layers[0].shadow.tobytes() == shadow.tobytes()


_F8_SPECIALS = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2e-308,
                         np.finfo(np.float64).max, np.finfo(np.float64).tiny])
_I8 = np.iinfo(np.int64)


@st.composite
def _arrays(draw):
    dtype = draw(st.sampled_from(["<f8", "<i8", "|b1"]))
    dim = st.integers(1, 9)
    shape = draw(st.one_of(st.just((0,)), st.tuples(dim), st.tuples(dim, dim),
                           st.tuples(st.just(0), dim)))
    n = int(np.prod(shape))
    if dtype == "<f8":
        # random bit patterns cover NaN payloads and subnormals; the
        # specials are always there whenever the array has room
        bits = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
        a = np.array(bits, dtype=np.uint64).view(np.float64)
        a[: len(_F8_SPECIALS)] = _F8_SPECIALS[:n]
    elif dtype == "<i8":
        a = np.array(draw(st.lists(st.integers(_I8.min, _I8.max), min_size=n,
                                   max_size=n)), dtype=np.int64)
        a[:2] = [_I8.min, _I8.max][:n]
    else:
        a = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                     dtype=bool)
    return a.reshape(shape), dtype


@given(_arrays())
@settings(max_examples=60, deadline=None)
def test_array_codec_round_trip_is_bitwise(case):
    a, dtype = case
    doc = json.loads(json.dumps(checkpoint._enc(a, dtype)))
    b = checkpoint._dec(doc)
    assert b.dtype == np.dtype(dtype) and b.shape == a.shape
    assert b.tobytes() == a.tobytes()
    assert b.flags.writeable
