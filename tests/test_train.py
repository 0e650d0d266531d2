import copy
import math

import numpy as np
import pytest

from lutshrink import train
from lutshrink.data import Dataset, synth_boolean
from lutshrink.model import (
    BatchNorm,
    DenseLayer,
    LutLayer,
    ModelError,
    Network,
    softmax_xent,
)
from lutshrink.netlist import extract_netlist, scores, simplify
from lutshrink.train import (
    MetricLog,
    TrainConfig,
    _subsample,
    build_network,
    evaluate,
    finalize_binarized,
    logic_expand,
    logic_shrink,
    prune_nodes,
    train_bnn,
    train_phase,
)
from lutshrink.verilog import emit_verilog, parse_verilog


def tiny_cfg(**kw) -> TrainConfig:
    base = dict(
        hidden=[4],
        shrink_layers=["fc2"],
        theta=0.25,
        delta=0.5,
        k=2,
        shrink_iters=2,
        epochs_per_iter=5,
        lr_schedule=[[0.05, 50]],
        epochs_post_prune=10,
        epochs_post_expand=10,
        epochs_final=10,
        lr=0.05,
        batch_size=4,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def _pipeline_to_expanded(cfg, ds, rng):
    log = MetricLog()
    net = build_network(cfg, ds.features.shape[1], ds.num_classes, rng)
    train_bnn(net, ds, ds, cfg, rng, log)
    prune_nodes(net, cfg.theta, ds, ds, cfg, rng, log)
    logic_expand(net, cfg.k, ds, ds, cfg, rng, log)
    return net, log


# -- gradient correctness of the composite backward pass ---------------------


def _manual_lut_net(rng):
    k = 2
    n_hidden_luts, n_out_luts = 6, 4
    bn = BatchNorm(2)
    bn.gamma[:] = 0.1  # keep |h| < 1 so hard-tanh is the identity
    hidden = LutLayer(
        3, 2, bn, "h",
        inputs=rng.integers(0, 3, size=(n_hidden_luts, k)),
        channel=rng.integers(0, 2, size=n_hidden_luts),
        masks=rng.uniform(-0.5, 0.5, size=(n_hidden_luts, 2**k)),
        pruned=np.zeros((n_hidden_luts, k), dtype=bool),
    )
    out = LutLayer(
        2, 2, None, "o",
        inputs=rng.integers(0, 2, size=(n_out_luts, k)),
        channel=rng.integers(0, 2, size=n_out_luts),
        masks=rng.uniform(-0.5, 0.5, size=(n_out_luts, 2**k)),
        pruned=np.zeros((n_out_luts, k), dtype=bool),
    )
    return Network([hidden, out])


def _loss(net, x, y):
    logits = net.forward(x, "hp", training=True)
    loss, _ = softmax_xent(logits, y)
    return loss


def frozen_softmax_xent(logits, labels):
    """softmax_xent before its reductions were called directly and its
    gradient built in place (frozen; do not optimize)."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    b = len(labels)
    loss = -np.log(np.maximum(p[np.arange(b), labels], 1e-30)).mean()
    grad = p.copy()
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


@pytest.mark.parametrize("classes", [2, 10, 13])
@pytest.mark.parametrize("b", [1, 2, 7, 128])
def test_softmax_xent_matches_frozen_form(b, classes):
    """Loss and gradient agree to the byte with the frozen form, on logits
    that tie, that saturate a probability to 0 (the 1e-30 floor) and that
    are ordinary; the caller's logits are unchanged."""
    rng = np.random.default_rng(100 * b + classes)
    for scale in (0.0, 1.0, 30.0, 2000.0):
        logits = rng.standard_normal((b, classes)) * scale
        labels = rng.integers(0, classes, size=b)
        seen = logits.copy()
        loss, grad = softmax_xent(logits, labels)
        want_loss, want_grad = frozen_softmax_xent(logits.copy(), labels)
        assert logits.tobytes() == seen.tobytes()
        assert type(loss) is type(want_loss)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape
        assert grad.tobytes() == want_grad.tobytes()


def test_lut_layer_backward_matches_finite_differences():
    rng = np.random.default_rng(42)
    net = _manual_lut_net(rng)
    x = rng.uniform(-0.9, 0.9, size=(5, 3))
    y = rng.integers(0, 2, size=5)
    # sever one position to exercise the transform in the gradient path
    pruned = np.zeros_like(net.layers[1].pruned)
    pruned[0, 1] = True
    net.layers[1].set_pruned(pruned)

    logits = net.forward(x, "hp", training=True)
    _, dlogits = softmax_xent(logits, y)
    net.backward(dlogits)

    eps = 1e-6
    for lay in net.layers:
        grad = lay.dmasks
        for n in range(lay.n_nodes):
            for d in range(2**lay.k):
                orig = lay.masks[n, d]
                lay.masks[n, d] = orig + eps
                up = _loss(net, x, y)
                lay.masks[n, d] = orig - eps
                dn = _loss(net, x, y)
                lay.masks[n, d] = orig
                fd = (up - dn) / (2 * eps)
                assert grad[n, d] == pytest.approx(fd, rel=1e-4, abs=1e-8), (
                    lay.name, n, d)


def test_bn_params_backward_matches_finite_differences():
    rng = np.random.default_rng(43)
    net = _manual_lut_net(rng)
    x = rng.uniform(-0.9, 0.9, size=(5, 3))
    y = rng.integers(0, 2, size=5)
    logits = net.forward(x, "hp", training=True)
    _, dlogits = softmax_xent(logits, y)
    net.backward(dlogits)
    bn = net.layers[0].bn
    eps = 1e-6
    for arr, grad in ((bn.gamma, bn.dgamma), (bn.beta, bn.dbeta)):
        for i in range(len(arr)):
            orig = arr[i]
            arr[i] = orig + eps
            up = _loss(net, x, y)
            arr[i] = orig - eps
            dn = _loss(net, x, y)
            arr[i] = orig
            assert grad[i] == pytest.approx((up - dn) / (2 * eps), rel=1e-4, abs=1e-8)


# -- phase behavior ----------------------------------------------------------


def test_xor_trains_to_zero_error():
    ds = synth_boolean("xor", 2, 4)
    cfg = tiny_cfg(hidden=[8], lr_schedule=[[0.05, 500]])
    rng = np.random.default_rng(cfg.seed)
    net = build_network(cfg, 2, 2, rng)
    train_bnn(net, ds, ds, cfg, rng, MetricLog())
    assert evaluate(net, ds, "bin") == 0.0


def test_zero_epochs_leaves_model_unchanged():
    ds = synth_boolean("xor", 2, 4)
    cfg = tiny_cfg(lr_schedule=[])
    rng = np.random.default_rng(0)
    net = build_network(cfg, 2, 2, rng)
    before = [lay.shadow.copy() for lay in net.layers]
    train_bnn(net, ds, ds, cfg, rng, MetricLog())
    for lay, b in zip(net.layers, before):
        np.testing.assert_array_equal(lay.shadow, b)


def test_default_bnn_schedule_is_one_segment_per_config():
    a, b = TrainConfig(), TrainConfig()
    assert a.lr_schedule == [[0.01, 50]]
    a.lr_schedule[0][1] = 7  # an edit of one config leaves the other's
    assert b.lr_schedule == TrainConfig().lr_schedule == [[0.01, 50]]


def test_prune_nodes_magnitude_rule():
    ds = synth_boolean("xor", 2, 4)
    cfg = tiny_cfg(shrink_layers=["fc1"], epochs_post_prune=0)
    rng = np.random.default_rng(0)
    net = build_network(cfg, 2, 2, rng)
    lay = net.layer("fc1")
    lay.shadow = np.array([[0.9, -0.1], [0.3, -0.7], [0.2, 0.8], [-0.6, 0.4]])
    prune_nodes(net, 0.5, ds, ds, cfg, rng, MetricLog())
    # magnitudes sorted: 0.1 < 0.2 < 0.3 < 0.4 die
    expected = np.array([[True, False], [False, True], [False, True], [True, False]])
    np.testing.assert_array_equal(lay.alive, expected)


def test_prune_theta_zero_is_noop():
    ds = synth_boolean("xor", 2, 4)
    cfg = tiny_cfg(epochs_post_prune=0)
    rng = np.random.default_rng(0)
    net = build_network(cfg, 2, 2, rng)
    prune_nodes(net, 0.0, ds, ds, cfg, rng, MetricLog())
    assert all(lay.alive.all() for lay in net.layers)


def test_expansion_preserves_binarized_function():
    ds = synth_boolean("parity", 4, 16)
    cfg = tiny_cfg(hidden=[8], k=3, lr_schedule=[[0.05, 100]], epochs_post_expand=0)
    rng = np.random.default_rng(1)
    net = build_network(cfg, 4, 2, rng)
    train_bnn(net, ds, ds, cfg, rng, MetricLog())
    prune_nodes(net, cfg.theta, ds, ds, cfg, rng, MetricLog())
    before = net.predict_bin(ds.features)
    logic_expand(net, cfg.k, ds, ds, cfg, rng, MetricLog())
    after = net.predict_bin(ds.features)
    np.testing.assert_array_equal(before, after)


def test_expansion_refuses_a_k_other_than_the_config_k(tmp_path):
    """Every LUT has the fan-in [expand] k, so logic_expand refuses another
    k before it builds a LUT or trains an epoch."""
    ds = synth_boolean("xor", 2, 4)
    cfg = tiny_cfg(theta=0.0)
    rng = np.random.default_rng(0)
    net = build_network(cfg, 2, 2, rng)
    layers, log = list(net.layers), MetricLog(str(tmp_path / "metrics.log"))
    with pytest.raises(ValueError, match=r"^k=3 is not the \[expand\] k=2 of the config$"):
        logic_expand(net, cfg.k + 1, ds, ds, cfg, rng, log)
    assert net.layers == layers and not (tmp_path / "metrics.log").exists()


def _dense(n_in, n_out, bn, name):
    return DenseLayer(n_in, n_out, bn, name, shadow=np.zeros((n_out, n_in)),
                      alive=np.ones((n_out, n_in), dtype=bool))


def test_network_refuses_a_hidden_layer_without_batch_norm():
    with pytest.raises(ModelError, match=r"^layer 'fc1' has no batch norm, but the "
                                         r"last layer, and only it, has none$"):
        Network([_dense(3, 2, None, "fc1"), _dense(2, 2, None, "fc2")])


def test_network_refuses_a_last_layer_with_batch_norm():
    with pytest.raises(ModelError, match=r"^layer 'fc2' has a batch norm, but the "
                                         r"last layer, and only it, has none$"):
        Network([_dense(3, 2, BatchNorm(2), "fc1"), _dense(2, 2, BatchNorm(2), "fc2")])


def test_expansion_mask_salience_pattern():
    # a k=4 LUT initialized from w=-1 computes NOT(x_0):
    # salience (2^k, 0, 0, 0) pattern, i.e. s_0 = 16 at k=4
    ds = synth_boolean("xor", 2, 4)
    cfg = tiny_cfg(hidden=[16], k=4, theta=0.0, lr_schedule=[],
                   epochs_post_prune=0, epochs_post_expand=0)
    rng = np.random.default_rng(2)
    net = build_network(cfg, 2, 2, rng)
    net.layer("fc2").shadow[:] = -0.5  # every weight -1
    prune_nodes(net, 0.0, ds, ds, cfg, rng, MetricLog())
    logic_expand(net, cfg.k, ds, ds, cfg, rng, MetricLog())
    s = net.layer("fc2").salience()
    np.testing.assert_allclose(s[:, 0], 16.0)
    np.testing.assert_allclose(s[:, 1:], 0.0)


def test_expansion_is_seed_reproducible():
    ds = synth_boolean("parity", 4, 16)
    cfg = tiny_cfg(hidden=[8], k=3, lr_schedule=[[0.05, 20]], epochs_post_expand=0)
    nets = []
    for _ in range(2):
        rng = np.random.default_rng(7)
        net = build_network(cfg, 4, 2, rng)
        train_bnn(net, ds, ds, cfg, rng, MetricLog())
        prune_nodes(net, cfg.theta, ds, ds, cfg, rng, MetricLog())
        logic_expand(net, cfg.k, ds, ds, cfg, rng, MetricLog())
        nets.append(net)
    np.testing.assert_array_equal(nets[0].layer("fc2").inputs,
                                  nets[1].layer("fc2").inputs)
    np.testing.assert_array_equal(nets[0].layer("fc2").masks,
                                  nets[1].layer("fc2").masks)


def _expanded_parity_net(cfg=None):
    ds = synth_boolean("parity", 4, 16)
    cfg = cfg or tiny_cfg(hidden=[8], k=3, lr_schedule=[[0.05, 100]], delta=0.75,
                          shrink_iters=3, epochs_per_iter=3)
    rng = np.random.default_rng(3)
    net, _ = _pipeline_to_expanded(cfg, ds, rng)
    return net, ds, cfg, rng


def test_shrink_schedule_and_bookkeeping():
    net, ds, cfg, rng = _expanded_parity_net()
    plan = logic_shrink(net, ds, ds, cfg, rng, MetricLog())
    assert [cfg.shrink_delta(t) for t in (1, 2, 3)] == [0.25, 0.5, 0.75]
    lay = net.layer("fc2")
    total = lay.n_nodes * lay.k
    for t, count in enumerate(plan.pruned_counts, start=1):
        assert count == int(np.floor(cfg.delta * t / cfg.shrink_iters * total))
    assert int(lay.pruned.sum()) == plan.pruned_counts[-1]
    assert int((~lay.pruned).sum()) == total - plan.pruned_counts[-1]


def test_shrink_delta_zero_keeps_function():
    net, ds, cfg, rng = _expanded_parity_net(
        tiny_cfg(hidden=[8], k=3, lr_schedule=[[0.05, 100]], delta=0.0, shrink_iters=2,
                 epochs_per_iter=1))
    plan = logic_shrink(net, ds, ds, cfg, rng, MetricLog())
    assert plan.pruned_counts == [0, 0]
    assert not net.layer("fc2").pruned.any()


def test_severance_is_permanent_across_training():
    net, ds, cfg, rng = _expanded_parity_net()
    plan = logic_shrink(net, ds, ds, cfg, rng, MetricLog())
    lay = net.layer("fc2")
    # extra retraining cannot resurrect severed inputs
    train_phase(net, ds, ds, mode="hp", epochs=3, lr=0.05, cfg=cfg, rng=rng,
                log=MetricLog(), phase="extra")
    s = lay.salience()
    assert np.all(s[lay.pruned] == 0.0)


def test_random_prune_mode_keeps_invariants():
    cfg = tiny_cfg(hidden=[8], k=3, lr_schedule=[[0.05, 50]], delta=0.5, shrink_iters=2,
                   epochs_per_iter=2, random_prune=True)
    ds = synth_boolean("parity", 4, 16)
    rng = np.random.default_rng(5)
    net, _ = _pipeline_to_expanded(cfg, ds, rng)
    plan = logic_shrink(net, ds, ds, cfg, rng, MetricLog())
    assert cfg.random_prune
    lay = net.layer("fc2")
    total = lay.n_nodes * lay.k
    assert plan.pruned_counts[-1] == int(np.floor(0.5 * total))
    assert np.all(lay.salience()[lay.pruned] == 0.0)


def test_finalize_keeps_raw_masks_and_freezes():
    net, ds, cfg, rng = _expanded_parity_net()
    logic_shrink(net, ds, ds, cfg, rng, MetricLog())
    cfg0 = copy.deepcopy(cfg)
    cfg0.epochs_final = 0
    lay = net.layer("fc2")
    before, masks = net.predict_bin(ds.features), lay.masks.copy()
    finalize_binarized(net, ds, ds, cfg0, rng, MetricLog())
    after = net.predict_bin(ds.features)
    np.testing.assert_array_equal(before, after)
    # severance stays in pruned, applied on every read, not folded in
    assert lay.masks.tobytes() == masks.tobytes()
    assert np.all(lay.salience()[lay.pruned] == 0.0)


def _exported_scores(net, x):
    """Class scores of the netlist that export writes: extracted, simplified,
    emitted as Verilog and parsed back."""
    text = emit_verilog(simplify(extract_netlist(net)))
    return scores(parse_verilog(text), np.where(x >= 0, 1, -1))


def test_unfolded_shrunk_model_exports_exactly():
    # extraction reads the effective truth tables, so the raw masks need not
    # be folded into them first
    net, ds, cfg, rng = _expanded_parity_net()
    logic_shrink(net, ds, ds, cfg, rng, MetricLog())
    lay = net.layer("fc2")
    assert np.abs(lay.effective_masks() - lay.masks).max() > 1e-6
    assert len(ds) == 2**4  # every input pattern
    np.testing.assert_array_equal(_exported_scores(net, ds.features),
                                  net.infer_bin(ds.features))


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_hidden_lut_layer_trains_its_batch_norm_and_exports(delta):
    cfg = tiny_cfg(hidden=[8, 6], k=3, delta=delta, lr_schedule=[[0.05, 30]])
    ds = synth_boolean("parity", 4, 16)
    rng = np.random.default_rng(2)
    net = build_network(cfg, 4, 2, rng)
    log = MetricLog()
    train_bnn(net, ds, ds, cfg, rng, log)
    prune_nodes(net, cfg.theta, ds, ds, cfg, rng, log)
    bn = net.layer("fc2").bn
    gamma, beta = bn.gamma.copy(), bn.beta.copy()
    logic_expand(net, cfg.k, ds, ds, cfg, rng, log)
    lay = net.layer("fc2")
    assert lay.kind == "lut" and lay.bn is bn
    assert not np.array_equal(bn.gamma, gamma) and not np.array_equal(bn.beta, beta)
    logic_shrink(net, ds, ds, cfg, rng, log)
    finalize_binarized(net, ds, ds, cfg, rng, log)
    kinds = [n.kind for n in extract_netlist(net).nodes.values()
             if n.layer == "fc2" and n.kind in ("lut", "const")]
    assert len(kinds) == lay.n_nodes
    if delta == 1.0:  # every input severed: each LUT extracts as a constant
        assert set(kinds) == {"const"}
    else:
        assert "lut" in kinds
    np.testing.assert_array_equal(_exported_scores(net, ds.features),
                                  net.infer_bin(ds.features))


def test_evaluate_constant_model_and_determinism():
    ds = synth_boolean("parity", 4, 16)
    cfg = tiny_cfg(lr_schedule=[])
    rng = np.random.default_rng(0)
    net = build_network(cfg, 4, 2, rng)
    e1 = evaluate(net, ds, "bin")
    e2 = evaluate(net, ds, "bin")
    assert e1 == e2


def test_monotone_schedule():
    cfg = tiny_cfg(delta=0.75, shrink_iters=3)
    deltas = [cfg.shrink_delta(t) for t in range(1, cfg.shrink_iters + 1)]
    assert deltas == sorted(deltas) and deltas[-1] == cfg.delta
    assert all(a < b for a, b in zip(deltas, deltas[1:]))


def train_phase_ref(net, train_ds, test, *, mode, epochs, lr, cfg, rng, log, phase):
    """Frozen train_phase that evaluates both sets every epoch (do not
    optimize)."""
    train_eval = _subsample(train_ds, cfg.eval_train_cap)
    for epoch in range(epochs):
        order = rng.permutation(len(train_ds))
        for lo in range(0, len(train_ds), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            logits = net.forward(train_ds.features[idx], mode, training=True)
            loss, dlogits = softmax_xent(logits, train_ds.labels[idx])
            assert math.isfinite(loss)
            net.backward(dlogits)
            net.step(lr)
        log.add(phase, epoch, evaluate(net, train_eval, mode), evaluate(net, test, mode))


@pytest.mark.parametrize("mode", ["bin", "hp"])
@pytest.mark.parametrize("test_set, cap, calls", [
    ("same", 10000, 1),  # the synth configs: one set for both
    ("copy", 10000, 2),  # equal contents, another object
    ("same", 12, 2),  # the train set is subsampled for its evaluation
])
def test_train_phase_evaluates_a_shared_set_once(monkeypatch, tmp_path, mode,
                                                 test_set, cap, calls):
    ds = synth_boolean("parity", 4, 16)
    test = ds if test_set == "same" else Dataset(ds.features.copy(),
                                                  ds.labels.copy(), ds.num_classes)
    cfg = tiny_cfg(hidden=[8], eval_train_cap=cap)
    rng = np.random.default_rng(5)
    net = build_network(cfg, 4, 2, rng)
    ref_path, path = tmp_path / "ref.log", tmp_path / "metrics.log"
    ref_net, ref_rng = copy.deepcopy(net), copy.deepcopy(rng)
    ref_log = MetricLog(str(ref_path))
    train_phase_ref(ref_net, ds, test, mode=mode, epochs=6, lr=0.05, cfg=cfg,
                    rng=ref_rng, log=ref_log, phase="p")
    seen = []
    monkeypatch.setattr(train, "evaluate",
                        lambda net, ds, mode: seen.append(ds) or evaluate(net, ds, mode))
    log = MetricLog(str(path))
    train_phase(net, ds, test, mode=mode, epochs=6, lr=0.05, cfg=cfg, rng=rng, log=log,
                phase="p")
    assert len(seen) == 6 * calls
    rows = path.read_text().splitlines()
    assert len(rows) == 6 and rows == ref_path.read_text().splitlines()
    assert len({r.split("\t")[2] for r in rows}) > 1  # the errors move
