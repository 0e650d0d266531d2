"""A LUT layer's wiring is built once per severance, and gives the bits of
the kernel set-up it replaced.

``FrozenCornerBatch`` keeps the earlier ``CornerBatch``, which worked out
its wiring from ``(inputs, severed)`` on every call: the kept inputs, the
fan-in groups, the input-gradient bins and the pair and slope indices.
``FrozenLutLayer`` keeps the earlier per-pattern severance transform (a
gather, product and scatter per severed pattern) and builds a frozen batch
on every call. Output, table gradient and input gradient must equal those
of the live forms to the byte, on one wiring reused across batches of
several sizes and row blocks, as a layer reuses it between severances.

The layer's ``inputs``, ``channel`` and ``pruned`` are read-only, and
``set_pruned`` rebuilds the wiring: a layer severed in steps computes what
a layer built fresh from the same arrays computes, also after a checkpoint
round trip.
"""

import copy
import os
import tempfile

import numpy as np
import pytest

from lutshrink import checkpoint, lutcore
from lutshrink.lutcore import (
    CornerBatch,
    Wiring,
    _bincount,
    _check_k,
    _corner_flat,
    _halve,
    _sample_sum,
    pair_indices,
)
from lutshrink.model import (
    BatchNorm,
    DenseLayer,
    LutLayer,
    Network,
    _activate,
    _check_exact,
    _infer_out,
    sign_bits,
    sign_pm1,
)
from lutshrink.shrink import compose_transforms
from lutshrink.train import TrainConfig

N_IN, N_OUT, N_NODES = 9, 4, 23


class _FrozenFanin:
    """The earlier fan-in group, which held the batch's corner weights
    (frozen; do not optimize)."""

    def __init__(self, w, inputs, rows=None, cols=None, terms=None):
        self.w, self.inputs = w, inputs
        self.rows, self.cols, self.terms = rows, cols, terms
        self.n, self.m = inputs.shape

    def slabs(self, r):
        w = [wx[r] for wx in self.w]
        out = np.empty((2, self.m, len(w[0]), self.n))
        for wx, slabs in zip(w, out):
            for j in range(self.m):
                wx.take(self.inputs[:, j], axis=1, out=slabs[j], mode="clip")
        return out

    def columns(self, a):
        return a if self.rows is None else a.take(self.rows, axis=1)

    def table(self, table):
        return table if self.rows is None else table[self.cols, self.rows]

    def pairs(self, t):
        return [t[hi] - t[lo]
                for lo, hi in (pair_indices(self.m, j) for j in range(self.m))]

    def grad_table(self, df, slabs, carry):
        c = carry is not None
        buf = np.empty((2**self.m, c + len(df), self.n))
        if c:
            buf[:, 0] = carry
        basis = buf[:, c:]
        basis[0] = df
        for j, (lo, hi) in enumerate(zip(*slabs)):
            h = 1 << j
            np.multiply(basis[:h], hi, out=basis[h : 2 * h])
            basis[:h] *= lo
        return _sample_sum(buf)

    def grad_inputs(self, pairs, df, slabs, out):
        lo, hi = slabs
        for j, d in enumerate(pairs):
            dfdx = _halve(d, [*lo[:j], *lo[j + 1 :]], [*hi[:j], *hi[j + 1 :]])
            out[:, :, j] = dfdx * 0.5 * df


class _FrozenInputGrad:
    """The earlier input gradient, which built its bins per call (frozen;
    do not optimize)."""

    def __init__(self, batch, read):
        self.n_in, self.width = batch.n_in, batch.width
        self.dx = np.empty((batch.b, batch.n_in))
        rows = min(batch.blocks[0].stop, batch.b)
        self.bins = np.arange(rows)[:, None] * self.width + read.reshape(-1)

    def terms(self, rows):
        return np.empty((rows, self.bins.shape[1]))

    def add(self, r, terms):
        n = len(terms)
        total = _bincount(self.bins[:n], terms, n * self.width)
        self.dx[r] = total.reshape(n, self.width)[:, : self.n_in]


class FrozenCornerBatch:
    """The earlier ``CornerBatch(x, inputs, severed)``, which worked out its
    wiring on every call (frozen; do not optimize). It reads
    ``GROUP_FLOATS``, ``STEP_FLOATS`` and ``_at_corners`` from ``lutcore``
    at call time, as the live kernel does."""

    def __init__(self, x, inputs, severed=None):
        x = np.asarray(x)
        self.inputs = np.asarray(inputs, dtype=np.int64)
        n_nodes, self.k = self.inputs.shape
        _check_k(self.k)
        self.b, self.n_in = x.shape
        self.kept, self.read = None, self.inputs
        if severed is not None and np.any(severed):
            self.kept = ~np.asarray(severed, dtype=bool)
            x = np.concatenate([x, np.full((self.b, 1), -1, dtype=x.dtype)], axis=1)
            self.read = np.where(self.kept, self.inputs, self.n_in)
        self.width = x.shape[1]
        if lutcore._at_corners(x):
            self.flat = _corner_flat(x, self.read)
            self.blocks = lutcore._blocks(self.b, n_nodes * self.k)
            return
        self.flat = None
        x = x.astype(np.float64, copy=False)
        w = (1.0 - x) * 0.5, (1.0 + x) * 0.5
        if self.kept is None or self.b * n_nodes < lutcore.GROUP_FLOATS:
            self.groups = [_FrozenFanin(w, self.read)]
        else:
            fan_in = self.kept.sum(axis=1)
            term = (np.cumsum(self.kept) - 1).reshape(self.kept.shape)
            self.groups = []
            for m in np.unique(fan_in):
                rows = np.flatnonzero(fan_in == m)
                pos = np.nonzero(self.kept[rows])[1].reshape(len(rows), m)
                bit = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
                cols = (bit[:, :, None] << pos.T).sum(axis=1)
                self.groups.append(_FrozenFanin(
                    w, np.take_along_axis(self.inputs[rows], pos, axis=1), rows,
                    cols, np.take_along_axis(term[rows], pos, axis=1).ravel()))
        self.blocks = lutcore._blocks(
            self.b, sum(g.n << max(g.m - 1, 0) for g in self.groups))
        self._slabs = None
        if len(self.blocks) == 1:
            self._slabs = [g.slabs(self.blocks[0]) for g in self.groups]

    def _block_slabs(self):
        for r in self.blocks:
            yield r, self._slabs or [g.slabs(r) for g in self.groups]

    def interpolate(self, table):
        if self.flat is not None:
            return table.take(self.flat)
        tables = [g.table(table) for g in self.groups]
        f = np.empty((self.b, len(self.inputs)))
        for r, slabs in self._block_slabs():
            for g, t, (lo, hi) in zip(self.groups, tables, slabs):
                if g.rows is None:
                    f[r] = _halve(t, lo, hi)
                else:
                    f[r, g.rows] = _halve(t, lo, hi)
        return f

    def backward(self, table, df, need_dx=True):
        if self.flat is not None:
            return self._corner_backward(table, df, need_dx)
        whole = self.groups[0].rows is None
        read = self.read if whole else self.inputs[self.kept]
        tables = [g.table(table) for g in self.groups]
        pairs = [g.pairs(t) for g, t in zip(self.groups, tables)] if need_dx else None
        sums = [None] * len(self.groups)
        dx = _FrozenInputGrad(self, read) if need_dx else None
        in_order = len(self.groups) == 1
        for r, slabs in self._block_slabs():
            dfr = df[r]
            terms = dx.terms(len(dfr)) if need_dx else None
            for i, (g, s) in enumerate(zip(self.groups, slabs)):
                dfg = g.columns(dfr)
                sums[i] = g.grad_table(dfg, s, sums[i])
                if need_dx:
                    out = (terms.reshape(len(dfr), g.n, g.m) if in_order
                           else np.empty((len(dfr), g.n, g.m)))
                    g.grad_inputs(pairs[i], dfg, s, out)
                    if not in_order:
                        terms[:, g.terms] = out.reshape(len(dfr), -1)
            if need_dx:
                dx.add(r, terms)
        if whole:
            dtable = sums[0]
        else:
            dtable = np.zeros((2**self.k, df.shape[1]))
            for g, s in zip(self.groups, sums):
                dtable[g.cols, g.rows] = s
        return dtable, dx.dx if need_dx else None

    def _corner_backward(self, table, df, need_dx):
        n = df.shape[1]
        dtable = _bincount(self.flat, df, n << self.k).reshape(2**self.k, n)
        if not need_dx:
            return dtable, None
        d = np.arange(2**self.k)
        slopes = [table[d | h] - table[d & ~h] for h in (1 << np.arange(self.k))]
        dx = _FrozenInputGrad(self, self.read)
        for r in self.blocks:
            flat, dfr = self.flat[r], df[r]
            terms = dx.terms(len(dfr)).reshape(len(dfr), n, self.k)
            for j, slope in enumerate(slopes):
                terms[:, :, j] = slope.take(flat) * 0.5 * dfr
            dx.add(r, terms)
        return dtable, dx.dx


class FrozenLutLayer(LutLayer):
    """LutLayer with the earlier per-pattern severance transform and a
    frozen kernel set up on every call (frozen; do not optimize)."""

    def set_pruned(self, pruned):
        super().set_pruned(pruned)
        pats = (self.pruned.astype(np.int64) * (1 << np.arange(self.k))).sum(axis=1)
        self._frozen_groups = []
        for pat in np.unique(pats[pats != 0]):
            pos = [i for i in range(self.k) if (pat >> i) & 1]
            self._frozen_groups.append((np.nonzero(pats == pat)[0],
                                        compose_transforms(self.k, pos)))

    def _transform(self, a):
        for rows, v in self._frozen_groups:
            a[rows] = a[rows] @ v
        return a

    def forward(self, x, mode, stats):
        batch = FrozenCornerBatch(x, self.inputs, self.pruned if mode == "hp" else None)
        table = np.ascontiguousarray(self.effective_masks().T)
        self._cache_lut, self._cache_mode = (batch, table), mode
        f = batch.interpolate(table)
        if mode == "bin":
            f = sign_pm1(f)
        return _activate(self, f @ self._chmat, mode, stats)

    def infer_bin(self, xbits):
        _check_exact(self.name, int(np.bincount(self.channel).max(initial=0)))
        tt = self.truth_tables().astype(np.float32).T
        f = FrozenCornerBatch(xbits, self.inputs).interpolate(tt)
        return _infer_out(self, f @ self._chmat32)


SEVERANCES = ["none", "all", "one-row-pattern", "mixed"]


def _severed(kind, k, rng):
    """(N_NODES, k) severed inputs: none, all, a pattern that row 3 alone
    has (only input 0 severed), or a random mix with a constant node and
    an untouched one."""
    if kind in ("none", "all"):
        return np.full((N_NODES, k), kind == "all")
    if kind == "one-row-pattern":
        pats = rng.integers(0, 2**k, size=N_NODES)
        pats[pats == 1] = 0
        pats[3] = 1
        return ((pats[:, None] >> np.arange(k)) & 1).astype(bool)
    severed = rng.random((N_NODES, k)) < 0.4
    severed[0], severed[1] = True, False
    return severed


# (name, GROUP_FLOATS, inputs at corners)
PATHS = [("hp-one-group", 1 << 62, False), ("hp-fanin-groups", 0, False),
         ("bin", None, True)]


def _assert_bytes_equal(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("severance", SEVERANCES)
@pytest.mark.parametrize("path, group_floats, at_corners", PATHS, ids=[p[0] for p in PATHS])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_kernel_matches_the_per_call_wiring(k, path, group_floats, at_corners, severance,
                                            monkeypatch):
    """One wiring serves batches of 1 to 600 samples, with default
    and one-sample row blocks, so its fan-in groups and its bin template,
    sized by the first batch that needs them, are reused, grown and
    sliced."""
    rng = np.random.default_rng(100 * k + SEVERANCES.index(severance))
    inputs = rng.integers(0, N_IN, size=(N_NODES, k))  # repeats allowed
    severed = _severed(severance, k, rng)
    if group_floats is not None:
        monkeypatch.setattr(lutcore, "GROUP_FLOATS", group_floats)
    wiring = Wiring(N_IN, inputs, severed)
    table = rng.uniform(-1.2, 1.2, size=(2**k, N_NODES))
    for batch, step_floats in ((7, None), (600, None), (40, 1), (1, None), (7, 1)):
        if step_floats is not None:
            monkeypatch.setattr(lutcore, "STEP_FLOATS", step_floats)
        x = rng.uniform(-1.0, 1.0, size=(batch, N_IN))
        if at_corners:
            x = sign_pm1(x)
        df = rng.standard_normal((batch, N_NODES))
        df[rng.random(df.shape) < 0.1] = -0.0
        live, frozen = CornerBatch(x, wiring), FrozenCornerBatch(x, inputs, severed)
        assert (live.flat is None) == (frozen.flat is None) == (not at_corners)
        if not at_corners:
            assert [g.rows is None for g in live.groups] == \
                   [g.rows is None for g in frozen.groups]
        _assert_bytes_equal((live.interpolate(table), *live.backward(table, df)),
                            (frozen.interpolate(table), *frozen.backward(table, df)))
        monkeypatch.setattr(lutcore, "STEP_FLOATS", 1 << 16)


def _layers(k, severance, is_output, seed):
    """The same random layer as a LutLayer and a FrozenLutLayer."""
    rng = np.random.default_rng(seed)
    inputs = np.stack([rng.choice(N_IN, size=k, replace=False) for _ in range(N_NODES)])
    channel = rng.integers(0, N_OUT, size=N_NODES)
    masks = rng.uniform(-1.0, 1.0, size=(N_NODES, 2**k))
    masks[rng.random(masks.shape) < 0.1] = -0.0
    pruned = _severed(severance, k, rng)
    layers = []
    for cls in (LutLayer, FrozenLutLayer):
        bn = None if is_output else BatchNorm(N_OUT)
        if bn is not None:
            bn.gamma[:] = 0.3  # keep part of the hard-tanh gate open
        layers.append(cls(N_IN, N_OUT, bn, "l", masks=masks, inputs=inputs,
                          channel=channel, pruned=pruned))
    return layers, rng


def _step(lay, x, dout, mode):
    out = lay.forward(x, mode, "batch")
    dx = lay.backward(dout, need_dx=True)
    return out, lay.dmasks.copy(), dx


@pytest.mark.parametrize("is_output", [False, True])
@pytest.mark.parametrize("severance", SEVERANCES)
@pytest.mark.parametrize("path, group_floats, at_corners", PATHS, ids=[p[0] for p in PATHS])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_layer_matches_the_per_pattern_transform(k, path, group_floats, at_corners,
                                                 severance, is_output, monkeypatch):
    """Forward output, table gradient (``dmasks``, through the severance
    transform) and input gradient of two steps, and ``effective_masks``
    and ``infer_bin``, equal those of the frozen layer to the byte."""
    (live, frozen), rng = _layers(k, severance, is_output, seed=10 * k + is_output)
    if group_floats is not None:
        monkeypatch.setattr(lutcore, "GROUP_FLOATS", group_floats)
    mode = "bin" if at_corners else "hp"
    assert live.effective_masks().tobytes() == frozen.effective_masks().tobytes()
    for batch in (7, 128):
        x = rng.uniform(-1.0, 1.0, size=(batch, N_IN))
        if at_corners:
            x = sign_pm1(x)
        dout = rng.standard_normal((batch, N_OUT))
        _assert_bytes_equal(_step(live, x, dout, mode), _step(frozen, x, dout, mode))
    xbits = sign_bits(rng.standard_normal((16, N_IN)))
    assert live.infer_bin(xbits).tobytes() == frozen.infer_bin(xbits).tobytes()


def test_wiring_arrays_are_read_only():
    """An in-place write to what the wiring was built from raises, instead
    of leaving the wiring stale."""
    (lay, _), rng = _layers(3, "mixed", False, seed=0)
    for _ in range(2):
        for name in ("inputs", "channel", "pruned"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(lay, name)[0] = 0
        lay.set_pruned(lay.pruned | (rng.random(lay.pruned.shape) < 0.3))


def _round_trip(lay):
    """lay after checkpoint.save then checkpoint.load."""
    out = DenseLayer(lay.n_out, 2, None, "out", shadow=np.zeros((2, lay.n_out)),
                     alive=np.ones((2, lay.n_out), dtype=bool))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        checkpoint.save(path, Network([lay, out]), TrainConfig(k=lay.k), "shrunk",
                        np.random.default_rng(0))
        return checkpoint.load(path)[0].layers[0]


def _fresh(lay):
    """A layer built from lay's arrays and a copy of its batch norm."""
    return LutLayer(lay.n_in, lay.n_out, copy.deepcopy(lay.bn), lay.name,
                    masks=lay.masks, inputs=lay.inputs, channel=lay.channel,
                    pruned=lay.pruned)


def _check_like_fresh(lay, rng):
    """An hp step in one group and in fan-in groups, and a bin step, of lay
    and of a fresh copy: the same output, table and input gradients."""
    twin = _fresh(lay)
    lay.dmasks[:] = twin.dmasks[:] = 0.0
    for group_floats, mode in ((1 << 62, "hp"), (0, "hp"), (1 << 62, "bin")):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lutcore, "GROUP_FLOATS", group_floats)
            x = rng.uniform(-1.0, 1.0, size=(32, lay.n_in))
            if mode == "bin":
                x = sign_pm1(x)
            dout = rng.standard_normal((32, lay.n_out))
            _assert_bytes_equal(_step(lay, x, dout, mode), _step(twin, x, dout, mode))


@pytest.mark.parametrize("k", [2, 4, 6])
def test_set_pruned_rebuilds_the_wiring(k):
    """A layer that has run (so its wiring has built its fan-in groups and
    bins) and then severs more inputs computes what a fresh layer built
    from the same arrays does; so does its checkpoint round trip, before
    and after it severs more again."""
    (lay, _), rng = _layers(k, "mixed", False, seed=k)
    _check_like_fresh(lay, rng)
    lay.set_pruned(lay.pruned | (rng.random(lay.pruned.shape) < 0.3))
    _check_like_fresh(lay, rng)
    lay = _round_trip(lay)
    _check_like_fresh(lay, rng)
    lay.set_pruned(lay.pruned | (rng.random(lay.pruned.shape) < 0.3))
    _check_like_fresh(lay, rng)
