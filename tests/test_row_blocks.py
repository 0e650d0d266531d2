"""Row blocks: the LUT kernel and exact inference work on a block of rows at
a time, and the block size changes no bit, only the memory held at once.

``CornerBatch`` runs every pass over blocks of about ``STEP_FLOATS``
floats: with ``STEP_FLOATS = 1`` each sample is its own block, and the
forward pass, table gradient and input gradient must match the default
blocks byte for byte. ``Network.infer_bin`` runs ``INFER_ROWS`` samples at
a time. tracemalloc sees numpy's buffers, so it measures the peak of a
pass directly.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from lutshrink import lutcore, model, train
from lutshrink.data import Dataset
from lutshrink.lutcore import CornerBatch, Wiring
from lutshrink.model import (
    BatchNorm,
    DenseLayer,
    LutLayer,
    Network,
    sign_pm1,
    softmax_xent,
)

from test_wiring import FrozenCornerBatch

N_IN, N_NODES = 9, 23


def _kernel(x, inputs, table, df, severed):
    batch = CornerBatch(x, Wiring(N_IN, inputs, severed))
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
    wiring = Wiring(N_IN, inputs)
    assert len(CornerBatch(x, wiring).blocks) > 1
    assert len(CornerBatch(sign_pm1(x), wiring).blocks) > 1
    assert len(CornerBatch(x[:7], wiring).blocks) == 1


def _network(rng, n_in=40, hidden=32, k=3, n_nodes=96, classes=5):
    dense = DenseLayer(n_in, hidden, BatchNorm(hidden), "fc1",
                       shadow=rng.uniform(-1, 1, size=(hidden, n_in)),
                       alive=np.ones((hidden, n_in), dtype=bool))
    dense.bn.running_mean = rng.normal(0, 3, size=hidden)
    lut = LutLayer(hidden, hidden, BatchNorm(hidden), "lut",
                   inputs=rng.integers(0, hidden, size=(n_nodes, k)),
                   channel=rng.integers(0, hidden, size=n_nodes),
                   masks=rng.uniform(-1, 1, size=(n_nodes, 2**k)),
                   pruned=rng.random((n_nodes, k)) < 0.3)
    out = DenseLayer(hidden, classes, None, "fc2",
                     shadow=rng.uniform(-0.1, 0.1, size=(classes, hidden)),
                     alive=np.ones((classes, hidden), dtype=bool))
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
    lay = LutLayer(n_in, n_out, BatchNorm(n_out), "lut",
                   inputs=rng.integers(0, n_in, size=(n, k)),
                   channel=rng.integers(0, n_out, size=n),
                   masks=rng.uniform(-1, 1, size=(n, 2**k)),
                   pruned=np.zeros((n, k), dtype=bool))
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


def test_hp_evaluation_keeps_no_lut_output():
    """One hp evaluation forward at the lut-hidden shape (196 -> 128 dense,
    820 LUTs at k = 4, 128 -> 10) and B = 600 leaves nothing referenced but
    its (B, 10) scores: no layer keeps a backward cache, neither the LUT
    outputs f (B, N), nor the corner weights or slabs of its batch, nor the
    inputs, batch-norm xhat or hard-tanh input of a layer. Any one of those
    holds at least B floats, the slack allowed. A training forward runs
    first, so that each layer holds the caches a backward would read."""
    b, n_in, hidden, k, n = 600, 196, 128, 4, 820
    rng = np.random.default_rng(2)
    net = _network(rng, n_in=n_in, hidden=hidden, k=k, n_nodes=n, classes=10)
    x = rng.uniform(-1.0, 1.0, size=(b, n_in))
    net.forward(x, "hp", training=True)
    tracemalloc.start()
    try:
        scores = net.forward(x, "hp", training=False)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert scores.shape == (b, 10)
    assert held < scores.nbytes + b * 8


@pytest.mark.parametrize("k", [2, 4, 6])
def test_evaluation_gathers_one_input_at_a_time(k):
    """An interpolation holds one input's slabs (lo and hi, (B, N) each) at
    a time; ``FrozenCornerBatch`` gathers all k inputs' at once, in a batch
    of one block. The bound allows half of the k - 1 inputs' slabs more.
    Both batches are built inside the measure, the frozen one's slabs
    with it."""
    b, n = 64, 16
    rng = np.random.default_rng(k)
    inputs = rng.integers(0, N_IN, size=(n, k))
    wiring = Wiring(N_IN, inputs)
    x = rng.uniform(-1.0, 1.0, size=(b, N_IN))
    table = rng.uniform(-1.0, 1.0, size=(2**k, n))
    assert len(CornerBatch(x, wiring).blocks) == 1
    outs = {}
    live = _peak(lambda: outs.setdefault("live", CornerBatch(x, wiring).interpolate(table)))
    frozen = _peak(lambda: outs.setdefault(
        "frozen", FrozenCornerBatch(x, inputs).interpolate(table)))
    assert outs["live"].tobytes() == outs["frozen"].tobytes()
    assert live <= frozen - (k - 1) * b * n * 8


@pytest.mark.parametrize("k, n", [(2, 64), (4, 64), (6, 32)])
def test_training_forward_holds_no_more_slabs_than_evaluation(k, n):
    """An hp LUT layer forward under ``"batch"``, the one a backward
    follows, gathers one input's slabs at a time, as one under
    ``"running"`` does: in a batch of one row block, its peak is less than
    k - 1 inputs' (B, N) slabs above the evaluation's."""
    b, n_in, n_out = 64, 40, 8
    rng = np.random.default_rng(k)
    lay = LutLayer(n_in, n_out, BatchNorm(n_out), "lut",
                   inputs=rng.integers(0, n_in, size=(n, k)),
                   channel=rng.integers(0, n_out, size=n),
                   masks=rng.uniform(-1, 1, size=(n, 2**k)),
                   pruned=np.zeros((n, k), dtype=bool))
    x = rng.uniform(-1.0, 1.0, size=(b, n_in))
    assert len(CornerBatch(x, lay._hp_wiring).blocks) == 1
    lay.forward(x, "hp", "batch")  # so that both measures replace a cache
    running = _peak(lay.forward, x, "hp", "running")
    batch = _peak(lay.forward, x, "hp", "batch")
    assert batch < running + (k - 1) * b * n * 8


@pytest.mark.parametrize("batch", [32, 600])
def test_evaluation_and_recalibration_leave_the_gradients(batch):
    """An hp ``train.evaluate`` and a ``Network.recalibrate`` run between a
    training forward and its backward keep nothing and drop nothing: the
    gradients equal those of the same step without them, to the byte, in a
    batch of one row block and of several."""
    rng = np.random.default_rng(batch)
    want = _network(rng)
    got = copy.deepcopy(want)
    x = rng.uniform(-1.0, 1.0, size=(batch, 40))
    labels = rng.integers(0, 5, size=batch)
    held_out = Dataset(rng.uniform(-1.0, 1.0, size=(300, 40)),
                       rng.integers(0, 5, size=300), 5)
    for net in (want, got):
        logits = net.forward(x, "hp", training=True)
        if net is got:
            train.evaluate(net, held_out, "hp")
            net.recalibrate(held_out.features)
        net.backward(softmax_xent(logits, labels)[1])
    for lw, lg in zip(want.layers, got.layers):
        grad = "dshadow" if lw.kind == "dense" else "dmasks"
        pairs = [(getattr(lw, grad), getattr(lg, grad))]
        if lw.bn is not None:
            pairs += [(lw.bn.dgamma, lg.bn.dgamma), (lw.bn.dbeta, lg.bn.dbeta)]
        for w, g in pairs:
            assert np.any(w) and w.tobytes() == g.tobytes()
