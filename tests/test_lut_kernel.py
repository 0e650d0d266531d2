"""The corner-major LUT kernel against a frozen copy of the kernel it replaced,
and its two paths against each other.

``ReferenceLutLayer`` keeps the earlier ``LutLayer`` forward and backward: a
(B, N, 2^k) corner basis and per-input gradient tables built by repeated
concatenation, a table lookup for the binarized forward, and ``np.add.at``
scatters. On +/-1 inputs both kernels do the same arithmetic on exactly the
same values, so the binarized path must agree bit for bit; the
high-precision path sums in another order and must agree to 1e-12.

``CornerBatch`` takes its corner path (gathers and bincounts) whenever every
input is +/-1. Patching ``lutcore._at_corners`` to refuse forces the
interpolating path on the same data; the two must agree bit for bit.
"""

import contextlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lutshrink import checkpoint, lutcore
from lutshrink.lutcore import CornerBatch, Wiring, _halve
from lutshrink.model import BatchNorm, DenseLayer, LutLayer, Network, sign_pm1
from lutshrink.shrink import compose_transforms
from lutshrink.train import TrainConfig


class ReferenceLutLayer(LutLayer):
    """LutLayer with the replaced kernels (frozen; do not optimize)."""

    def _gather(self, x):
        return x[:, self.inputs]  # (B, N, k)

    @staticmethod
    def _basis(xt, k):
        b, n, _ = xt.shape
        w = np.ones((b, n, 1))
        for j in range(k):
            xj = xt[:, :, j : j + 1]
            w = np.concatenate([w * (1.0 - xj), w * (1.0 + xj)], axis=2)
        return w / 2**k

    def _input_grads(self, xt, ceff):
        b, n, k = xt.shape
        g = np.empty((b, n, k))
        for j in range(k):
            w = np.ones((b, n, 1))
            for m in range(k):
                xm = xt[:, :, m : m + 1]
                if m == j:
                    w = np.concatenate([-w, w], axis=2)
                else:
                    w = np.concatenate([w * (1.0 - xm), w * (1.0 + xm)], axis=2)
            g[:, :, j] = np.einsum("bnd,nd->bn", w, ceff) / 2**k
        return g

    def forward(self, x, mode, stats):
        ceff = self.effective_masks()
        xt = self._gather(np.asarray(x, dtype=np.float64))
        self._cache_xt, self._cache_ceff, self._cache_mode = xt, ceff, mode
        if mode == "hp":
            basis = self._basis(xt, self.k)
            f = np.einsum("bnd,nd->bn", basis, ceff)
            self._cache_basis = basis
            self._cache_freal = f
        else:
            idx = ((xt > 0).astype(np.int64) << np.arange(self.k)).sum(axis=2)
            f_real = ceff[np.arange(self.n_nodes)[None, :], idx]
            self._cache_idx, self._cache_freal = idx, f_real
            f = sign_pm1(f_real)
        s = f @ self._chmat
        if self.is_output:
            return s * self.alpha
        h = self.bn.forward(s, stats)
        self._cache_h = h
        return np.clip(h, -1.0, 1.0) if mode == "hp" else sign_pm1(h)

    def backward(self, dout, need_dx):
        if self.is_output:
            ds = dout * self.alpha
        else:
            dh = dout * (np.abs(self._cache_h) <= 1.0)
            ds = self.bn.backward(dh)
        df = ds @ self._chmat.T
        ceff = self._cache_ceff
        if self._cache_mode == "hp":
            dceff = np.einsum("bn,bnd->nd", df, self._cache_basis)
            df_real = df
        else:
            df_real = df * (np.abs(self._cache_freal) <= 1.0)
            dceff = np.zeros_like(ceff)
            np.add.at(
                dceff,
                (np.broadcast_to(np.arange(self.n_nodes), df.shape), self._cache_idx),
                df_real,
            )
        self.dmasks += self._transform(dceff)
        if need_dx:
            dxt = df_real[:, :, None] * self._input_grads(self._cache_xt, ceff)
            dx = np.zeros((dout.shape[0], self.n_in))
            np.add.at(
                dx,
                (np.arange(dout.shape[0])[:, None, None], self.inputs[None, :, :]),
                dxt,
            )
            return dx
        return None


N_IN, N_OUT, N_NODES = 9, 4, 23


def _pair(is_output, k, seed, classes=(LutLayer, ReferenceLutLayer)):
    """The same random layer twice: by default with the live and the
    reference kernel."""
    rng = np.random.default_rng(seed)
    inputs = np.stack([rng.choice(N_IN, size=k, replace=False) for _ in range(N_NODES)])
    channel = rng.integers(0, N_OUT, size=N_NODES)
    # in [-1, 1] as every layer's masks are, some on the bounds, so the
    # reference's straight-through gate is open and at its edge
    masks = rng.uniform(-1.0, 1.0, size=(N_NODES, 2**k))
    masks[rng.random(masks.shape) < 0.2] = 1.0
    masks[rng.random(masks.shape) < 0.2] = -1.0
    pruned = rng.random((N_NODES, k)) < 0.3  # some rows lose inputs, some all
    pruned[0] = True
    layers = []
    for cls in classes:
        bn = BatchNorm(N_OUT)
        bn.gamma[:] = 0.3  # keep part of the hard-tanh gate open
        layers.append(cls(N_IN, N_OUT, None if is_output else bn, "l", inputs=inputs,
                          channel=channel, masks=masks, pruned=pruned))
    return layers, rng


def _run(lay, x, dout, mode):
    out = lay.forward(x, mode, "batch")
    dx = lay.backward(dout, need_dx=True)
    return out, lay.dmasks.copy(), dx


@pytest.mark.parametrize("one_sample_steps", [False, True])
@pytest.mark.parametrize("is_output", [False, True])
@pytest.mark.parametrize("batch", [1, 7, 128])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("mode", ["bin", "hp"])
def test_kernel_matches_reference(mode, k, batch, is_output, one_sample_steps,
                                  monkeypatch):
    if one_sample_steps:  # every sample its own kernel step
        monkeypatch.setattr(lutcore, "STEP_FLOATS", 1)
    (live, ref), rng = _pair(is_output, k, seed=100 * k + batch)
    x = rng.uniform(-1.0, 1.0, size=(batch, N_IN))
    if mode == "bin":
        x = sign_pm1(x)
    dout = rng.standard_normal((batch, N_OUT))
    out, dmasks, dx = _run(live, x, dout, mode)
    ref_out, ref_dmasks, ref_dx = _run(ref, x, dout, mode)
    f = CornerBatch(x, Wiring(N_IN, live.inputs)).interpolate(live.effective_masks().T)
    if mode == "bin":
        np.testing.assert_array_equal(f, ref._cache_freal)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(dmasks, ref_dmasks)
        np.testing.assert_array_equal(dx, ref_dx)
    else:
        for got, want in ((f, ref._cache_freal), (out, ref_out),
                          (dmasks, ref_dmasks), (dx, ref_dx)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    if is_output or batch > 1:  # batch norm passes no gradient for one sample
        assert np.any(dmasks != 0.0) and np.any(dx != 0.0)


def _round_trip(lay):
    """lay after checkpoint.save then checkpoint.load."""
    layers = [lay]
    if not lay.is_output:
        layers.append(DenseLayer(lay.n_out, 2, None, "out", shadow=np.zeros((2, lay.n_out)),
                                 alive=np.ones((2, lay.n_out), dtype=bool)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        checkpoint.save(path, Network(layers), TrainConfig(k=lay.k), "shrunk",
                        np.random.default_rng(0))
        return checkpoint.load(path)[0].layers[0]


def product_form(a, pruned, k):
    """The severance transform as every row's a @ V, the identity V of a row
    that severs nothing included (frozen; do not optimize)."""
    out = a.copy()
    pats = (pruned.astype(np.int64) << np.arange(k)).sum(axis=1)
    for pat in np.unique(pats):
        rows = np.nonzero(pats == pat)[0]
        out[rows] = a[rows] @ compose_transforms(k, [i for i in range(k) if (pat >> i) & 1])
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_transform_matches_the_product_form(k):
    """``effective_masks()`` and the table gradient ``backward`` adds to
    ``dmasks`` equal the a[rows] @ V form to the byte, zero signs included,
    though the rows that sever no input skip the product with the identity
    V. Raw masks can hold -0.0 (a caller's, or a checkpoint's), which that
    product turns into +0.0; a table gradient holds none, since its entries
    are sums, which numpy starts at +0.0."""
    rng = np.random.default_rng(k)
    inputs = np.stack([rng.choice(N_IN, size=k, replace=False) for _ in range(N_NODES)])
    masks = rng.uniform(-1.0, 1.0, size=(N_NODES, 2**k))
    pick = rng.random(masks.shape)
    masks[pick < 0.2] = -0.0
    masks[(pick >= 0.2) & (pick < 0.3)] = 0.0
    pruned = rng.random((N_NODES, k)) < 0.3
    pruned[:5], pruned[5] = False, True  # rows that sever nothing, and all
    lay = LutLayer(N_IN, N_OUT, None, "l", inputs=inputs, masks=masks, pruned=pruned,
                   channel=np.sort(rng.integers(0, N_OUT, size=N_NODES)))
    assert np.any(np.signbit(lay.masks[:5]) & (lay.masks[:5] == 0.0))
    want = product_form(lay.masks, lay.pruned, k)
    assert not np.any(np.signbit(want[:5]) & (want[:5] == 0.0))
    assert lay.effective_masks().tobytes() == want.tobytes()

    x = rng.uniform(-1.0, 1.0, size=(7, N_IN))
    x[:, ::2] = sign_pm1(x[:, ::2])  # corner weights of exactly 0
    dout = rng.standard_normal((7, N_OUT))
    lay.forward(x, "hp", "batch")
    batch, table = lay._cache_lut
    df = (dout * lay.alpha).take(lay.channel, axis=1)
    dtable = np.ascontiguousarray(batch.backward(table, df, need_dx=False)[0].T)
    lay.backward(dout, need_dx=False)
    want = np.zeros_like(lay.masks)
    want += product_form(dtable, lay.pruned, k)
    assert lay.dmasks.tobytes() == want.tobytes()


MASK_OPS = st.lists(st.one_of(
    st.tuples(st.just("train"), st.sampled_from(["hp", "bin"]), st.floats(0.0, 3.0)),
    st.tuples(st.just("step"), st.floats(0.0, 3.0)),
    st.just(("sever",)),
    st.just(("checkpoint",)),
), min_size=1, max_size=20)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6), is_output=st.booleans(),
       ops=MASK_OPS)
def test_masks_stay_in_the_straight_through_range(seed, k, is_output, ops):
    """The LUT backward applies no straight-through gate |f| <= 1, because
    every table entry stays in [-1, 1]: steps clip the masks, severance
    averages them, and a checkpoint round trip keeps them. Gradients of
    scale 10 and rates up to 3 push every entry at the clip."""
    (lay,), rng = _pair(is_output, k, seed, classes=(LutLayer,))
    for op in ops:
        if op[0] == "train":
            x = rng.uniform(-1.0, 1.0, size=(8, N_IN))
            lay.forward(sign_pm1(x) if op[1] == "bin" else x, op[1], "batch")
            lay.backward(10.0 * rng.standard_normal((8, N_OUT)), need_dx=True)
            lay.step(op[2])
        elif op[0] == "step":
            lay.dmasks += 10.0 * rng.standard_normal(lay.dmasks.shape)
            lay.step(op[1])
        elif op[0] == "sever":
            lay.set_pruned(lay.pruned | (rng.random(lay.pruned.shape) < 0.3))
        else:
            lay = _round_trip(lay)
        for m in (lay.masks, lay.effective_masks()):
            assert np.all(np.isfinite(m)) and np.all(np.abs(m) <= 1.0)


@contextlib.contextmanager
def _interpolating(monkeypatch):
    """A context in which CornerBatch interpolates even on +/-1 inputs."""
    with monkeypatch.context() as patch:
        patch.setattr(lutcore, "_at_corners", lambda x: False)
        yield


def _kernel_run(x, inputs, table, df):
    batch = CornerBatch(x, Wiring(N_IN, inputs))
    return batch, (batch.interpolate(table), *batch.backward(table, df))


# a single LUT too: numpy would sum its batch pairwise, not in sample order
@pytest.mark.parametrize("batch, n_nodes", [(0, N_NODES), (1, N_NODES), (7, N_NODES),
                                            (128, N_NODES), (128, 1)],
                         ids=["0", "1", "7", "128", "128-one-lut"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_corner_path_matches_interpolation(k, batch, n_nodes, monkeypatch):
    rng = np.random.default_rng(10 * k + batch)
    inputs = rng.integers(0, N_IN, size=(n_nodes, k))  # repeats allowed
    x = sign_pm1(rng.standard_normal((batch, N_IN)))
    table = rng.uniform(-1.2, 1.2, size=(2**k, n_nodes))
    df = rng.standard_normal((batch, n_nodes))
    corner, got = _kernel_run(x, inputs, table, df)
    with _interpolating(monkeypatch):
        interp, want = _kernel_run(x, inputs, table, df)
    assert corner.flat is not None and interp.flat is None
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("inputs_at", ["interior", "corners"])
@pytest.mark.parametrize("batch", [1, 7, 128])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_fanin_groups_match_one_group(k, batch, inputs_at, monkeypatch):
    """With severed inputs, the fan-in groups (each node over its kept
    inputs) give the bits of one group over all k inputs with the severed
    ones at -1, and of the corner path on +/-1 inputs."""
    rng = np.random.default_rng(10 * k + batch)
    inputs = rng.integers(0, N_IN, size=(N_NODES, k))
    severed = rng.random((N_NODES, k)) < 0.4
    severed[0], severed[1] = True, False
    x = rng.uniform(-1.0, 1.0, size=(batch, N_IN))
    if inputs_at == "corners":
        x = sign_pm1(x)
    table = rng.uniform(-1.2, 1.2, size=(2**k, N_NODES))
    df = rng.standard_normal((batch, N_NODES))

    def run():
        batch_ = CornerBatch(x, Wiring(N_IN, inputs, severed))
        return batch_, (batch_.interpolate(table), *batch_.backward(table, df))

    monkeypatch.setattr(lutcore, "GROUP_FLOATS", 0)
    if inputs_at == "corners":
        corner, want = run()
        assert corner.flat is not None
        monkeypatch.setattr(lutcore, "_at_corners", lambda x: False)
    else:
        monkeypatch.setattr(lutcore, "GROUP_FLOATS", 1 << 62)
        one, want = run()
        assert one.groups[0].rows is None
        monkeypatch.setattr(lutcore, "GROUP_FLOATS", 0)
    grouped, got = run()
    assert grouped.groups[0].rows is not None
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def _layer_run(lay, x, dout, mode):
    out, dmasks, dx = _run(lay, x, dout, mode)
    corner = lay._cache_lut[0].flat is not None
    cal = lay.forward(x, "bin", "refresh")
    stats = () if lay.is_output else (lay.bn.running_mean, lay.bn.running_var)
    return corner, (out, dmasks, dx, cal, *stats)


@pytest.mark.parametrize("is_output", [False, True])
@pytest.mark.parametrize("batch", [1, 7, 128])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("mode", ["bin", "hp"])
def test_layer_corner_path_matches_interpolation(mode, k, batch, is_output,
                                                 monkeypatch):
    """Forward, backward and batch-norm refresh, in bin mode and in hp calls
    whose inputs happen to be +/-1, on rows with severed inputs; dmasks must
    match to the bit, sign of zero included."""
    (live, twin), rng = _pair(is_output, k, seed=7 * k + batch,
                              classes=(LutLayer, LutLayer))
    x = sign_pm1(rng.uniform(-1.0, 1.0, size=(batch, N_IN)))
    dout = rng.standard_normal((batch, N_OUT))
    corner, got = _layer_run(live, x, dout, mode)
    with _interpolating(monkeypatch):
        interp, want = _layer_run(twin, x, dout, mode)
    assert corner and not interp
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert got[1].tobytes() == want[1].tobytes()  # dmasks


@pytest.mark.parametrize("inputs_at", ["interior", "interior-fanin-groups", "corners"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_severed_inputs_do_not_reach_the_hp_output(k, inputs_at, monkeypatch):
    """Each (node, input) reads its own column, so changing only the severed
    columns must leave the hp forward pass bit for bit and give them no
    input gradient."""
    if inputs_at == "interior-fanin-groups":
        monkeypatch.setattr(lutcore, "GROUP_FLOATS", 0)
    rng = np.random.default_rng(k)
    n_in = N_NODES * k
    inputs = np.arange(n_in).reshape(N_NODES, k)
    pruned = rng.random((N_NODES, k)) < 0.5
    pruned[0], pruned[1] = True, False  # a constant node and an untouched one
    lay = LutLayer(n_in, N_OUT, BatchNorm(N_OUT), "l", inputs=inputs,
                   channel=rng.integers(0, N_OUT, size=N_NODES),
                   masks=rng.uniform(-1.2, 1.2, size=(N_NODES, 2**k)), pruned=pruned)
    x = rng.uniform(-1.0, 1.0, size=(32, n_in))
    if inputs_at == "corners":
        x = sign_pm1(x)
    moved = x.copy()
    cut = lay.inputs[lay.pruned]
    moved[:, cut] = rng.uniform(-1.0, 1.0, size=(32, len(cut)))
    if inputs_at == "corners":
        moved = sign_pm1(moved)
    dout = rng.standard_normal((32, N_OUT))
    out, _, dx = _run(lay, x, dout, "hp")
    moved_out, _, moved_dx = _run(lay, moved, dout, "hp")
    assert out.tobytes() == moved_out.tobytes()
    assert not np.any(dx[:, cut]) and not np.any(moved_dx[:, cut])
    kept = lay.inputs[~lay.pruned]
    assert dx[:, kept].tobytes() == moved_dx[:, kept].tobytes()


def test_untouched_zero_sign_is_erased_by_dmasks(monkeypatch):
    """A table entry no sample reads gets df * 0 from every sample in the
    interpolating sum: -0.0 when every df is negative. Whether that sum
    ends at -0.0 depends on the numpy version (it may start from +0.0); the
    corner bincount gives +0.0. The gradients are equal as numbers either
    way, and dmasks += on its +0.0 buffer leaves the same bits."""
    k, batch = 3, 4
    (live, twin), rng = _pair(True, k, seed=3, classes=(LutLayer, LutLayer))
    x = sign_pm1(rng.standard_normal((batch, N_IN)))
    dout = -np.ones((batch, N_OUT))  # df < 0 on every node and sample
    df = dout @ live._chmat.T
    table = live.effective_masks().T
    got = CornerBatch(x, Wiring(N_IN, live.inputs)).backward(table, df, need_dx=False)[0]
    with _interpolating(monkeypatch):
        want = CornerBatch(x, Wiring(N_IN, live.inputs)).backward(table, df,
                                                                need_dx=False)[0]
        twin_dmasks = _run(twin, x, dout, "bin")[1]
    np.testing.assert_array_equal(got, want)
    untouched = got == 0.0
    assert np.any(untouched) and not np.any(np.signbit(got[untouched]))
    dmasks = _run(live, x, dout, "bin")[1]
    assert not np.any(np.signbit(dmasks[dmasks == 0.0]))
    assert dmasks.tobytes() == twin_dmasks.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda k: arrays(
            np.float64, (2**k, 3),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
        )
    )
)
def test_interpolation_is_exact_at_every_corner(table):
    """The interpolating path itself, called directly: CornerBatch would
    take its corner path on these inputs."""
    k = table.shape[0].bit_length() - 1
    # row d is corner d: input j is +1 where bit j of d is set
    corners = np.where((np.arange(2**k)[:, None] >> np.arange(k)) & 1, 1.0, -1.0)
    n = table.shape[1]
    lo = [np.repeat((1.0 - corners[:, j : j + 1]) * 0.5, n, axis=1) for j in range(k)]
    hi = [np.repeat((1.0 + corners[:, j : j + 1]) * 0.5, n, axis=1) for j in range(k)]
    np.testing.assert_array_equal(_halve(table, lo, hi), table)  # f[a] == table[a]
    inputs = np.tile(np.arange(k), (n, 1))  # every node reads x
    np.testing.assert_array_equal(CornerBatch(corners, Wiring(k, inputs)).interpolate(table),
                                  table)
