"""Row blocks: the LUT kernel and exact inference work on a block of rows at
a time, and the block size changes no bit, only the memory held at once.

``CornerBatch`` runs every pass over blocks of about ``STEP_FLOATS``
floats: with ``STEP_FLOATS = 1`` each sample is its own block, and the
forward pass, table gradient and input gradient must match the default
blocks byte for byte. ``Network.infer_bin`` runs ``INFER_ROWS`` samples at
a time. tracemalloc sees numpy's buffers, so it measures the peak of a
pass directly.
"""

import tracemalloc

import numpy as np
import pytest

from lutshrink import lutcore, model
from lutshrink.lutcore import CornerBatch
from lutshrink.model import BatchNorm, DenseLayer, LutLayer, Network, sign_pm1

N_IN, N_NODES = 9, 23


def _kernel(x, inputs, table, df, severed):
    batch = CornerBatch(x, inputs, severed)
    dtable, dx = batch.backward(table, df)
    assert batch.backward(table, df, need_dx=False)[0].tobytes() == dtable.tobytes()
    return batch, (batch.interpolate(table), dtable, dx)


@pytest.mark.parametrize("inputs_at", ["interior", "corners"])
@pytest.mark.parametrize("layout", ["one-group", "fanin-groups", "one-lut"])
@pytest.mark.parametrize("batch", [1, 7, 128, 600])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_blocks_keep_bits(k, batch, layout, inputs_at, monkeypatch):
    rng = np.random.default_rng(1000 * k + batch)
    n_nodes = 1 if layout == "one-lut" else N_NODES
    inputs = rng.integers(0, N_IN, size=(n_nodes, k))  # repeats allowed
    severed = None
    if layout == "fanin-groups":
        monkeypatch.setattr(lutcore, "GROUP_FLOATS", 0)
        severed = rng.random((n_nodes, k)) < 0.4
        severed[0], severed[1] = True, False
    x = rng.uniform(-1.0, 1.0, size=(batch, N_IN))
    if inputs_at == "corners":
        x = sign_pm1(x)
    table = rng.uniform(-1.2, 1.2, size=(2**k, n_nodes))
    df = rng.standard_normal((batch, n_nodes))
    df[rng.random(df.shape) < 0.1] = -0.0  # signed zeros must keep their sums

    blocked, want = _kernel(x, inputs, table, df, severed)
    monkeypatch.setattr(lutcore, "STEP_FLOATS", 1)
    per_sample, got = _kernel(x, inputs, table, df, severed)
    assert len(per_sample.blocks) == batch
    assert (per_sample.flat is None) == (inputs_at == "interior")
    if layout == "fanin-groups" and inputs_at == "interior":
        assert per_sample.groups[0].rows is not None
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
        assert g.tobytes() == w.tobytes()


def test_default_blocks_split_a_large_batch():
    """The sizes above reach batches of more than one default block."""
    rng = np.random.default_rng(0)
    inputs = rng.integers(0, N_IN, size=(N_NODES, 6))
    x = rng.uniform(-1.0, 1.0, size=(600, N_IN))
    assert len(CornerBatch(x, inputs).blocks) > 1
    assert len(CornerBatch(sign_pm1(x), inputs).blocks) > 1
    assert len(CornerBatch(x[:7], inputs).blocks) == 1


def _network(rng, n_in=40, hidden=32, k=3, n_nodes=96, classes=5):
    dense = DenseLayer(n_in, hidden, rng, "fc1")
    dense.shadow = rng.uniform(-1, 1, size=dense.shadow.shape)
    dense.bn.running_mean = rng.normal(0, 3, size=hidden)
    lut = LutLayer(hidden, hidden, k, rng.integers(0, hidden, size=(n_nodes, k)),
                   rng.integers(0, hidden, size=n_nodes),
                   rng.uniform(-1, 1, size=(n_nodes, 2**k)), "lut",
                   bn=BatchNorm(hidden))
    lut.set_pruned(rng.random((n_nodes, k)) < 0.3)
    out = DenseLayer(hidden, classes, rng, "fc2", is_output=True)
    return Network([dense, lut, out])


@pytest.mark.parametrize("rows", [1, 7, 512])
def test_infer_bin_blocks_keep_bits(rows, monkeypatch):
    rng = np.random.default_rng(rows)
    net = _network(rng)
    x = rng.uniform(-1.0, 1.0, size=(1300, 40))
    x[rng.random(x.shape) < 0.05] = 0.0  # sign(0) = +1
    monkeypatch.setattr(model, "INFER_ROWS", 1 << 30)
    want = net.infer_bin(x)
    monkeypatch.setattr(model, "INFER_ROWS", rows)
    got = net.infer_bin(x)
    assert got.shape == want.shape == (1300, 5) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(net.predict_bin(x), np.argmax(want, axis=1))
    assert net.infer_bin(x[:0]).shape == (0, 5)


def _peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hp_lut_pass_memory_is_bounded_by_the_block():
    """One hp forward and backward at the lut-hidden layer shape and a
    large batch holds a few (B, N) arrays, not 2^k of them."""
    b, n, k, n_in, n_out = 1024, 820, 4, 128, 128
    rng = np.random.default_rng(0)
    lay = LutLayer(n_in, n_out, k, rng.integers(0, n_in, size=(n, k)),
                   rng.integers(0, n_out, size=n), rng.uniform(-1, 1, size=(n, 2**k)),
                   "lut", bn=BatchNorm(n_out))
    x = rng.uniform(-1.0, 1.0, size=(b, n_in))
    dout = rng.standard_normal((b, n_out))

    def step():
        lay.forward(x, "hp", "batch")
        lay.backward(dout, need_dx=True)

    assert _peak(step) < 4 * b * n * 8


def test_infer_bin_memory_is_bounded_by_the_block():
    rng = np.random.default_rng(1)
    net = _network(rng, n_in=196, hidden=128, k=4, n_nodes=820, classes=10)
    x = rng.uniform(-1.0, 1.0, size=(8192, 196))
    one_block = _peak(net.infer_bin, x[: model.INFER_ROWS])
    assert _peak(net.infer_bin, x) <= one_block + 8192 * 10 * 8
