"""Batch-norm recalibration as the refresh mode of the binarized forward,
against a frozen copy of the separate ``calibrate`` methods it replaced.

Refresh folds the batch statistics into the running ones and then
normalizes by the running ones. The layer outputs must agree exactly and
the running statistics to the byte, because the folded thresholds, and so
the exported netlist, are computed from them.
"""

import copy

import numpy as np
import pytest

from lutshrink.model import BatchNorm, DenseLayer, LutLayer, Network, sign_pm1


def bn_calibrate_ref(bn, s):
    """Frozen BatchNorm.calibrate (do not optimize)."""
    s = s.astype(np.float64)
    m = bn.momentum
    bn.running_mean = (1 - m) * bn.running_mean + m * s.mean(axis=0)
    bn.running_var = (1 - m) * bn.running_var + m * s.var(axis=0)
    h = bn.gamma * (s - bn.running_mean) / np.sqrt(bn.running_var + bn.eps) + bn.beta
    return sign_pm1(h)


def calibrate_ref(lay, x):
    """Frozen DenseLayer.calibrate and LutLayer.calibrate (do not optimize)."""
    if lay.kind == "dense":
        s = x @ (np.where(lay.shadow >= 0, 1.0, -1.0) * lay.alive).T
    else:
        s = sign_pm1(lay._outputs(x)[0]) @ lay._chmat
    if lay.is_output:
        return s * lay.alpha
    return bn_calibrate_ref(lay.bn, s)


def recalibrate_ref(net, x, passes=20, batch=256):
    """Frozen Network.recalibrate (do not optimize)."""
    n = min(len(x), passes * batch)
    for lo in range(0, n, batch):
        h = sign_pm1(np.asarray(x[lo : lo + batch], dtype=np.float64))
        for lay in net.layers:
            h = calibrate_ref(lay, h)


def trained_bn(rng, n):
    bn = BatchNorm(n)
    bn.gamma = rng.uniform(0.05, 2.0, size=n)
    bn.beta = rng.normal(0.0, 2.0, size=n)
    bn.running_mean = rng.normal(0.0, 3.0, size=n)
    bn.running_var = rng.uniform(0.5, 20.0, size=n)
    return bn


def make_layer(kind, is_output, rng, n_in=20, n_out=6, k=3, n_nodes=40):
    if kind == "dense":
        lay = DenseLayer(n_in, n_out, rng, "fc", is_output=is_output)
        lay.shadow = rng.uniform(-1, 1, size=lay.shadow.shape)
        lay.alive = rng.random(lay.alive.shape) < 0.7
    else:
        lay = LutLayer(
            n_in, n_out, k,
            inputs=rng.integers(0, n_in, size=(n_nodes, k)),
            channel=rng.integers(0, n_out, size=n_nodes),
            masks=rng.uniform(-1, 1, size=(n_nodes, 2**k)),
            name="lut", is_output=is_output,
        )
        lay.set_pruned(rng.random((n_nodes, k)) < 0.3)
    if not is_output:
        lay.bn = trained_bn(rng, n_out)
    return lay


def assert_same_stats(got, want):
    for a, b in zip(got, want):
        if a.bn is None:
            continue
        assert a.bn.running_mean.tobytes() == b.bn.running_mean.tobytes()
        assert a.bn.running_var.tobytes() == b.bn.running_var.tobytes()


@pytest.mark.parametrize("batch", [1, 7, 256])
@pytest.mark.parametrize("is_output", [False, True])
@pytest.mark.parametrize("kind", ["dense", "lut"])
def test_refresh_forward_matches_calibrate(kind, is_output, batch):
    rng = np.random.default_rng([len(kind), is_output, batch])
    lay = make_layer(kind, is_output, rng)
    ref = copy.deepcopy(lay)
    for _ in range(3):  # successive passes compound the running stats
        x = sign_pm1(rng.standard_normal((batch, lay.n_in)))
        got = lay.forward(x, "bin", "refresh")
        want = calibrate_ref(ref, x)
        np.testing.assert_array_equal(got, want)
        assert_same_stats([lay], [ref])
    if not is_output:
        assert np.any(got == 1) and np.any(got == -1)


def test_network_recalibrate_matches_calibrate():
    rng = np.random.default_rng(11)
    net = Network([make_layer("dense", False, rng, n_in=30, n_out=20),
                   make_layer("lut", False, rng, n_in=20, n_out=8),
                   make_layer("lut", True, rng, n_in=8, n_out=4)])
    ref = copy.deepcopy(net)
    x = rng.uniform(-1, 1, size=(600, 30))
    net.recalibrate(x)
    recalibrate_ref(ref, x, passes=3, batch=256)
    assert_same_stats(net.layers, ref.layers)
