import copy

import numpy as np
import pytest

from lutshrink.data import synth_boolean
from lutshrink.model import DenseLayer, LutLayer, Network, softmax_xent
from lutshrink.train import (
    MetricLog,
    TrainConfig,
    build_network,
    evaluate,
    finalize_binarized,
    logic_expand,
    logic_shrink,
    prune_nodes,
    total_surviving_inputs,
    train_bnn,
    train_phase,
)


def tiny_cfg(**kw) -> TrainConfig:
    base = dict(
        hidden=[4],
        shrink_layers=["fc2"],
        theta=0.25,
        delta=0.5,
        k=2,
        shrink_iters=2,
        epochs_per_iter=5,
        epochs_bnn=50,
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
    hidden = LutLayer(
        3, 2, k,
        rng.integers(0, 3, size=(n_hidden_luts, k)),
        rng.integers(0, 2, size=n_hidden_luts),
        rng.uniform(-0.5, 0.5, size=(n_hidden_luts, 2**k)),
        "h", is_output=False, bn=None,
    )
    from lutshrink.model import BatchNorm

    hidden.bn = BatchNorm(2)
    hidden.bn.gamma[:] = 0.1  # keep |h| < 1 so hard-tanh is the identity
    out = LutLayer(
        2, 2, k,
        rng.integers(0, 2, size=(n_out_luts, k)),
        rng.integers(0, 2, size=n_out_luts),
        rng.uniform(-0.5, 0.5, size=(n_out_luts, 2**k)),
        "o", is_output=True,
    )
    return Network([hidden, out], 2)


def _loss(net, x, y):
    logits = net.forward(x, "hp", training=True)
    loss, _ = softmax_xent(logits, y)
    return loss


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
    cfg = tiny_cfg(hidden=[8], epochs_bnn=500)
    rng = np.random.default_rng(cfg.seed)
    net = build_network(cfg, 2, 2, rng)
    train_bnn(net, ds, ds, cfg, rng, MetricLog())
    assert evaluate(net, ds, "bin") == 0.0


def test_zero_epochs_leaves_model_unchanged():
    ds = synth_boolean("xor", 2, 4)
    cfg = tiny_cfg(epochs_bnn=0)
    rng = np.random.default_rng(0)
    net = build_network(cfg, 2, 2, rng)
    before = [lay.shadow.copy() for lay in net.layers]
    train_bnn(net, ds, ds, cfg, rng, MetricLog())
    for lay, b in zip(net.layers, before):
        np.testing.assert_array_equal(lay.shadow, b)


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
    cfg = tiny_cfg(hidden=[8], k=3, epochs_bnn=100, epochs_post_expand=0)
    rng = np.random.default_rng(1)
    net = build_network(cfg, 4, 2, rng)
    train_bnn(net, ds, ds, cfg, rng, MetricLog())
    prune_nodes(net, cfg.theta, ds, ds, cfg, rng, MetricLog())
    before = net.predict_bin(ds.features)
    logic_expand(net, cfg.k, ds, ds, cfg, rng, MetricLog())
    after = net.predict_bin(ds.features)
    np.testing.assert_array_equal(before, after)


def test_expansion_mask_salience_pattern():
    # a k=4 LUT initialized from w=-1 computes NOT(x_0):
    # salience (2^k, 0, 0, 0) pattern, i.e. s_0 = 16 at k=4
    ds = synth_boolean("xor", 2, 4)
    cfg = tiny_cfg(hidden=[16], k=4, theta=0.0, epochs_bnn=0,
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
    cfg = tiny_cfg(hidden=[8], k=3, epochs_bnn=20, epochs_post_expand=0)
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
    cfg = cfg or tiny_cfg(hidden=[8], k=3, epochs_bnn=100, delta=0.75,
                          shrink_iters=3, epochs_per_iter=3)
    rng = np.random.default_rng(3)
    net, _ = _pipeline_to_expanded(cfg, ds, rng)
    return net, ds, cfg, rng


def test_shrink_schedule_and_bookkeeping():
    net, ds, cfg, rng = _expanded_parity_net()
    plan = logic_shrink(net, ds, ds, cfg, rng, MetricLog())
    np.testing.assert_allclose(plan.deltas, [0.25, 0.5, 0.75])
    lay = net.layer("fc2")
    total = lay.n_nodes * lay.k
    for t, count in enumerate(plan.pruned_counts, start=1):
        assert count == int(np.floor(cfg.delta * t / cfg.shrink_iters * total))
    assert int(lay.pruned.sum()) == plan.pruned_counts[-1]
    assert total_surviving_inputs(net) == total - plan.pruned_counts[-1]


def test_shrink_delta_zero_keeps_function():
    net, ds, cfg, rng = _expanded_parity_net(
        tiny_cfg(hidden=[8], k=3, epochs_bnn=100, delta=0.0, shrink_iters=2,
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
    cfg = tiny_cfg(hidden=[8], k=3, epochs_bnn=50, delta=0.5, shrink_iters=2,
                   epochs_per_iter=2, random_prune=True)
    ds = synth_boolean("parity", 4, 16)
    rng = np.random.default_rng(5)
    net, _ = _pipeline_to_expanded(cfg, ds, rng)
    plan = logic_shrink(net, ds, ds, cfg, rng, MetricLog())
    assert plan.random_mode
    lay = net.layer("fc2")
    total = lay.n_nodes * lay.k
    assert plan.pruned_counts[-1] == int(np.floor(0.5 * total))
    assert np.all(lay.salience()[lay.pruned] == 0.0)


def test_finalize_folds_and_freezes():
    net, ds, cfg, rng = _expanded_parity_net()
    logic_shrink(net, ds, ds, cfg, rng, MetricLog())
    cfg0 = copy.deepcopy(cfg)
    cfg0.epochs_final = 0
    before = net.predict_bin(ds.features)
    finalize_binarized(net, ds, ds, cfg0, rng, MetricLog())
    after = net.predict_bin(ds.features)
    np.testing.assert_array_equal(before, after)  # folding is exact
    lay = net.layer("fc2")
    np.testing.assert_allclose(lay.effective_masks(), lay.masks, rtol=0, atol=1e-12)
    assert np.all(lay.salience()[lay.pruned] == 0.0)


def test_evaluate_constant_model_and_determinism():
    ds = synth_boolean("parity", 4, 16)
    cfg = tiny_cfg(epochs_bnn=0)
    rng = np.random.default_rng(0)
    net = build_network(cfg, 4, 2, rng)
    e1 = evaluate(net, ds, "bin")
    e2 = evaluate(net, ds, "bin")
    assert e1 == e2


def test_monotone_schedule():
    cfg = tiny_cfg(delta=0.75, shrink_iters=3)
    deltas = [cfg.delta * t / cfg.shrink_iters for t in range(1, cfg.shrink_iters + 1)]
    assert deltas == sorted(deltas) and deltas[-1] == cfg.delta
    assert all(a < b for a, b in zip(deltas, deltas[1:]))
