"""The corner-major LUT kernel against a frozen copy of the kernel it replaced.

``ReferenceLutLayer`` keeps the earlier ``LutLayer`` forward and backward: a
(B, N, 2^k) corner basis and per-input gradient tables built by repeated
concatenation, a table lookup for the binarized forward, and ``np.add.at``
scatters. On +/-1 inputs both kernels do the same arithmetic on exactly the
same values, so the binarized path must agree bit for bit; the
high-precision path sums in another order and must agree to 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lutshrink import lutcore
from lutshrink.lutcore import CornerBatch, index_pattern
from lutshrink.model import BatchNorm, LutLayer, sign_pm1


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

    def forward(self, x, mode, training):
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
        h = self.bn.forward(s, training)
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


def _pair(is_output, k, seed):
    """The same random layer twice: with the live and the reference kernel."""
    rng = np.random.default_rng(seed)
    inputs = np.stack([rng.choice(N_IN, size=k, replace=False) for _ in range(N_NODES)])
    channel = rng.integers(0, N_OUT, size=N_NODES)
    # entries near +/-1 so the clipped straight-through gate cuts some
    masks = rng.uniform(-1.2, 1.2, size=(N_NODES, 2**k))
    pruned = rng.random((N_NODES, k)) < 0.3  # some rows lose inputs, some all
    pruned[0] = True
    layers = []
    for cls in (LutLayer, ReferenceLutLayer):
        bn = BatchNorm(N_OUT)
        bn.gamma[:] = 0.3  # keep part of the hard-tanh gate open
        lay = cls(N_IN, N_OUT, k, inputs, channel, masks, "l", bn=bn,
                  is_output=is_output)
        lay.set_pruned(pruned)
        layers.append(lay)
    return layers, rng


def _run(lay, x, dout, mode):
    out = lay.forward(x, mode, training=True)
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
    f = CornerBatch(x, live.inputs).interpolate(live.effective_masks().T)
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
    k = table.shape[0].bit_length() - 1
    corners = np.array([index_pattern(d, k) for d in range(2**k)], dtype=np.float64)
    inputs = np.tile(np.arange(k), (table.shape[1], 1))  # every node reads x
    f = CornerBatch(corners, inputs).interpolate(table)
    np.testing.assert_array_equal(f, table)  # f[a, n] == table[index(a), n]
