"""Exact inference on float32 BLAS against a frozen int64 reference.

``infer_bin`` sums +/-1 products in float32, which is exact while every
partial sum stays below 2^24 in magnitude. The references below keep the
earlier int64 arithmetic; both paths must agree bit for bit, including
rows with no live weight, sums that land exactly on tau, severed LUT
inputs and tied output scores.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lutshrink import model
from lutshrink.model import BatchNorm, DenseLayer, LutLayer, ModelError, Network


def dense_infer_ref(lay, xbits):
    """Frozen int64 DenseLayer.infer_bin (do not optimize)."""
    wb = np.where(lay.shadow >= 0, 1, -1).astype(np.int64) * lay.alive
    s = xbits.astype(np.int64) @ wb.T
    if lay.is_output:
        return s
    return np.where(s >= lay.bn.fold_thresholds(), 1, -1).astype(np.int8)


def lut_infer_ref(lay, xbits):
    """Frozen int64 LutLayer.infer_bin (do not optimize)."""
    tt = lay.truth_tables().astype(np.int64)
    xt = xbits[:, lay.inputs]
    idx = ((xt > 0).astype(np.int64) << np.arange(lay.k)).sum(axis=2)
    f = tt[np.arange(lay.n_nodes)[None, :], idx]
    s = f @ lay._chmat.astype(np.int64)
    if lay.is_output:
        return s
    return np.where(s >= lay.bn.fold_thresholds(), 1, -1).astype(np.int8)


def int_sums(lay, xbits):
    """The layer's integer sums, read from its output-layer form: the layer
    without its batch norm."""
    bn, lay.bn = lay.bn, None
    try:
        return dense_infer_ref(lay, xbits) if lay.kind == "dense" else lut_infer_ref(lay, xbits)
    finally:
        lay.bn = bn


def pin_thresholds(lay, xbits, rng):
    """Set batch-norm stats so tau is an integer that often equals a sum."""
    s = int_sums(lay, xbits)
    tau = s[rng.integers(0, len(s), size=s.shape[1]), np.arange(s.shape[1])]
    shift = rng.integers(-1, 2, size=tau.shape) * rng.integers(0, 2, size=tau.shape)
    shift[0] = 0  # unit 0 always has a sample with s == tau
    tau = tau + shift
    lay.bn.gamma = rng.uniform(0.5, 2.0, size=tau.shape)
    lay.bn.beta = np.zeros(tau.shape)
    lay.bn.running_mean = tau.astype(np.float64)
    np.testing.assert_array_equal(lay.bn.fold_thresholds(), tau)
    return s, tau


def random_bits(rng, b, n):
    return np.where(rng.random((b, n)) < 0.5, 1, -1).astype(np.int8)


def dense_layer(rng, n_in, n_out, is_output, name="fc"):
    shadow = rng.uniform(-1, 1, size=(n_out, n_in))
    shadow[rng.random(shadow.shape) < 0.1] = 0.0  # sign(0) = +1
    alive = rng.random(shadow.shape) < 0.7
    alive[rng.random(n_out) < 0.3] = False  # dead rows: the sum is 0
    return DenseLayer(n_in, n_out, None if is_output else BatchNorm(n_out), name,
                      shadow=shadow, alive=alive)


def lut_layer(rng, n_in, n_out, k, n_nodes, is_output):
    return LutLayer(
        n_in, n_out, None if is_output else BatchNorm(n_out), "lut",
        inputs=rng.integers(0, n_in, size=(n_nodes, k)),
        channel=rng.integers(0, n_out, size=n_nodes),
        masks=rng.uniform(-1, 1, size=(n_nodes, 2**k)),
        pruned=rng.random((n_nodes, k)) < 0.3,
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_in=st.integers(1, 300),
       n_out=st.integers(1, 12), b=st.integers(1, 64), is_output=st.booleans())
def test_dense_infer_bin_matches_int64(seed, n_in, n_out, b, is_output):
    rng = np.random.default_rng(seed)
    lay = dense_layer(rng, n_in, n_out, is_output)
    xbits = random_bits(rng, b, n_in)
    if not is_output:
        s, tau = pin_thresholds(lay, xbits, rng)
        assert np.any(s == tau)
    want = dense_infer_ref(lay, xbits)
    got = lay.infer_bin(xbits)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
       n_nodes=st.integers(1, 200), n_out=st.integers(1, 12),
       b=st.integers(1, 64), is_output=st.booleans())
def test_lut_infer_bin_matches_int64(seed, k, n_nodes, n_out, b, is_output):
    rng = np.random.default_rng(seed)
    n_in = 16
    lay = lut_layer(rng, n_in, n_out, k, n_nodes, is_output)
    xbits = random_bits(rng, b, n_in)
    if not is_output:
        s, tau = pin_thresholds(lay, xbits, rng)
        assert np.any(s == tau)
    want = lut_infer_ref(lay, xbits)
    got = lay.infer_bin(xbits)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_hidden=st.integers(1, 4),
       n_classes=st.integers(2, 6), lut_out=st.booleans())
def test_predict_bin_ties_pick_lowest_class(seed, n_hidden, n_classes, lut_out):
    # a narrow output layer makes equal scores common
    rng = np.random.default_rng(seed)
    hidden = dense_layer(rng, 20, n_hidden, is_output=False)
    if lut_out:
        out = lut_layer(rng, n_hidden, n_classes, 2, 2 * n_classes, is_output=True)
    else:
        out = dense_layer(rng, n_hidden, n_classes, is_output=True)
        out.shadow[-1], out.alive[-1] = out.shadow[0], out.alive[0]  # a sure tie
    net = Network([hidden, out])
    x = rng.uniform(-1, 1, size=(64, 20))
    h = dense_infer_ref(hidden, model.sign_bits(x))
    scores = (lut_infer_ref if lut_out else dense_infer_ref)(out, h)
    lowest = [int(np.flatnonzero(r == r.max())[0]) for r in scores]
    np.testing.assert_array_equal(net.predict_bin(x), lowest)


@pytest.mark.parametrize("is_output", [True, False])
def test_wide_sums_match_int64(is_output):
    # sums of 4994 lie beyond 2^12, where half precision steps by 4
    rng = np.random.default_rng(7)
    n = 5000
    dense = dense_layer(rng, n, 3, is_output)
    dense.alive[:] = True
    dense.shadow = np.abs(dense.shadow) + 0.01
    dense.shadow[:, :3] *= -1
    masks = rng.uniform(0.01, 1, size=(n, 4))
    masks[:3] *= -1
    lut = LutLayer(16, 3, None if is_output else BatchNorm(3), "lut",
                   inputs=rng.integers(0, 16, size=(n, 2)), channel=np.zeros(n, dtype=int),
                   masks=masks, pruned=np.zeros((n, 2), dtype=bool))
    for lay, ref, n_in in ((dense, dense_infer_ref, n), (lut, lut_infer_ref, 16)):
        xbits = random_bits(rng, 8, n_in)
        xbits[0] = 1
        if not is_output:
            pin_thresholds(lay, xbits, rng)
        assert int_sums(lay, xbits)[0, 0] == 4994
        np.testing.assert_array_equal(lay.infer_bin(xbits), ref(lay, xbits))


def test_exactness_limit_is_two_to_the_24():
    assert model.EXACT_SUM_LIMIT == 2**24
    assert float(np.float32(2**24 - 1)) == 2**24 - 1


def test_dense_fan_in_at_limit_is_refused(monkeypatch):
    rng = np.random.default_rng(0)
    monkeypatch.setattr(model, "EXACT_SUM_LIMIT", 4)
    dense_layer(rng, 3, 2, False, "fc_ok").infer_bin(random_bits(rng, 2, 3))
    with pytest.raises(ModelError, match="'fc_wide'") as exc:
        dense_layer(rng, 4, 2, False, "fc_wide").infer_bin(random_bits(rng, 2, 4))
    assert "\n" not in str(exc.value)


def test_lut_channel_at_limit_is_refused(monkeypatch):
    rng = np.random.default_rng(0)
    monkeypatch.setattr(model, "EXACT_SUM_LIMIT", 4)

    def layer(channel):
        n = len(channel)
        return LutLayer(4, 2, None, "lut_wide", inputs=rng.integers(0, 4, size=(n, 2)),
                        channel=np.array(channel), masks=rng.uniform(-1, 1, size=(n, 4)),
                        pruned=np.zeros((n, 2), dtype=bool))

    layer([0, 0, 0, 1, 1, 1]).infer_bin(random_bits(rng, 2, 4))
    with pytest.raises(ModelError, match="'lut_wide'") as exc:
        layer([0, 1, 1, 1, 1]).infer_bin(random_bits(rng, 2, 4))
    assert "\n" not in str(exc.value)
