"""DenseLayer, which caches its binary weights between updates, against a
frozen, uncached copy of the layer it replaced.

Random sequences of training steps, forward, backward, step, reassignment
of ``alive`` or ``shadow``, ``infer_bin`` and checkpoint round-trips run on
both. Every output, ``dx``, ``dshadow`` and the shadows after ``step`` must
agree to the byte: a stale cache would show as a difference after an update
or a reassignment. ``BatchNorm.step``, which now runs in place through the
same momentum helper as the layers, is checked against its frozen
out-of-place form.
"""

import copy
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lutshrink import checkpoint
from lutshrink.model import (
    GAMMA_MIN,
    BatchNorm,
    DenseLayer,
    Network,
    _activate,
    _infer_out,
    _sum_grad,
)
from lutshrink.train import TrainConfig


class FrozenDense:
    """Frozen, uncached DenseLayer (do not optimize): the binary weights are
    rebuilt at every forward, backward and ``infer_bin``, the backward
    applies the |w| <= 1 straight-through gate, and ``step`` allocates new
    arrays. The backward reads the weights as they are when it runs, as it
    reads ``alive``: after a ``step`` or a reassignment, those of the
    update, not those of the last forward."""

    kind = "dense"

    def __init__(self, lay):
        self.name, self.n_in, self.n_out = lay.name, lay.n_in, lay.n_out
        self.is_output, self.alpha = lay.is_output, lay.alpha
        self.shadow, self.alive = lay.shadow.copy(), lay.alive.copy()
        self.bn = copy.deepcopy(lay.bn)
        self.dshadow = np.zeros_like(self.shadow)
        self._v_shadow = np.zeros_like(self.shadow)

    def weights_bin(self):
        return np.where(self.shadow >= 0, 1.0, -1.0) * self.alive

    def forward(self, x, mode, stats):
        self._cache_x = x
        return _activate(self, x @ self.weights_bin().T, mode, stats)

    def backward(self, dout, need_dx):
        ds = _sum_grad(self, dout)
        self.dshadow += (ds.T @ self._cache_x) * (np.abs(self.shadow) <= 1.0) * self.alive
        if need_dx:
            return ds @ self.weights_bin()
        return None

    def infer_bin(self, xbits):
        wb = np.where(self.shadow >= 0, 1, -1).astype(np.float32) * self.alive
        return _infer_out(self, xbits.astype(np.float32) @ wb.T)

    def step(self, lr, momentum):
        self._v_shadow = momentum * self._v_shadow - lr * self.dshadow
        self.shadow = np.clip(self.shadow + self._v_shadow, -1.0, 1.0)
        self.dshadow[:] = 0.0
        if self.bn is not None:
            self.bn.step(lr, momentum)

    def reload(self):
        """The state a checkpoint round-trip leaves: the arrays and batch-norm
        statistics it stores, fresh optimizer state and no forward cache."""
        self.dshadow = np.zeros_like(self.shadow)
        self._v_shadow = np.zeros_like(self.shadow)
        if self.bn is not None:
            bn = BatchNorm(self.n_out)
            for f in ("gamma", "beta", "running_mean", "running_var"):
                setattr(bn, f, getattr(self.bn, f).copy())
            self.bn = bn


def same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def random_shadow(rng, shape):
    shadow = rng.uniform(-1, 1, size=shape)
    pick = rng.random(shape)
    shadow[pick < 0.1] = 0.0  # sign(0) = +1
    shadow[(pick >= 0.1) & (pick < 0.15)] = -1.0  # the clip's bounds
    shadow[(pick >= 0.15) & (pick < 0.2)] = 1.0
    return shadow


def round_trip(lay):
    """lay after checkpoint.save then checkpoint.load."""
    layers = [lay]
    if not lay.is_output:
        layers.append(DenseLayer(lay.n_out, 2, np.random.default_rng(0), "out",
                                 is_output=True))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        checkpoint.save(path, Network(layers), TrainConfig(), "trained",
                        np.random.default_rng(0))
        return checkpoint.load(path)[0].layers[0]


def primitives(op):
    """A training step is forward, backward and step; other ops are one."""
    if op[0] == "train":
        return [("forward", op[1], "batch"), ("backward", True), ("step", op[2], 0.9)]
    return [op]


OPS = st.one_of(
    st.tuples(st.just("train"), st.sampled_from(["hp", "bin"]),
              st.sampled_from([0.01, 0.5, 3.0])),
    st.tuples(st.just("forward"), st.sampled_from(["hp", "bin"]),
              st.sampled_from(["batch", "running", "refresh"])),
    st.tuples(st.just("backward"), st.booleans()),
    st.tuples(st.just("step"), st.sampled_from([0.01, 0.5, 3.0]),
              st.sampled_from([0.0, 0.9])),
    st.just(("alive",)),
    st.just(("shadow",)),
    st.just(("infer_bin",)),
    st.just(("checkpoint",)),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_in=st.integers(1, 12),
       n_out=st.integers(1, 6), batch=st.integers(1, 8), is_output=st.booleans(),
       ops=st.lists(OPS, min_size=1, max_size=25))
def test_cached_layer_matches_frozen_layer(seed, n_in, n_out, batch, is_output, ops):
    rng = np.random.default_rng(seed)
    lay = DenseLayer(n_in, n_out, rng, "fc", is_output=is_output)
    lay.shadow = random_shadow(rng, (n_out, n_in))
    lay.alive = rng.random((n_out, n_in)) < 0.7
    ref = FrozenDense(lay)
    probe = np.where(rng.random((batch, n_in)) < 0.5, 1, -1).astype(np.int8)
    forwarded = False
    for op in (p for op in ops for p in primitives(op)):
        if op[0] == "forward":
            x = rng.uniform(-1, 1, size=(batch, n_in))
            if op[1] == "bin":
                x = np.where(x >= 0, 1.0, -1.0)
            same_bytes(lay.forward(x, *op[1:]), ref.forward(x.copy(), *op[1:]))
            forwarded = True
        elif op[0] == "backward" and forwarded:
            dout = rng.standard_normal((batch, n_out))
            dx, want = lay.backward(dout, op[1]), ref.backward(dout.copy(), op[1])
            if op[1]:
                same_bytes(dx, want)
            else:
                assert dx is None and want is None
            same_bytes(lay.dshadow, ref.dshadow)
        elif op[0] == "step":
            lay.step(*op[1:])
            ref.step(*op[1:])
            same_bytes(lay.shadow, ref.shadow)
            same_bytes(lay.dshadow, ref.dshadow)
        elif op[0] == "alive":
            alive = rng.random((n_out, n_in)) < 0.7
            lay.alive, ref.alive = alive, alive.copy()
        elif op[0] == "shadow":
            shadow = random_shadow(rng, (n_out, n_in))
            lay.shadow, ref.shadow = shadow, shadow.copy()
        elif op[0] == "infer_bin":
            if not is_output:  # pin the thresholds to ones the sums can reach
                lay.bn.running_mean = rng.integers(-n_in, n_in + 1, n_out) + 0.5
                ref.bn.running_mean = lay.bn.running_mean.copy()
            xbits = np.where(rng.random((batch, n_in)) < 0.5, 1, -1).astype(np.int8)
            same_bytes(lay.infer_bin(xbits), ref.infer_bin(xbits.copy()))
        elif op[0] == "checkpoint":
            lay = round_trip(lay)
            ref.reload()
            forwarded = False
        same_bytes(lay.shadow, ref.shadow)
        same_bytes(lay.alive, ref.alive)
        same_bytes(lay.weights_bin(), ref.weights_bin())
        same_bytes(lay.infer_bin(probe), ref.infer_bin(probe))


def frozen_bn_step(bn, lr, momentum):
    """The out-of-place BatchNorm.step it replaced (frozen; do not optimize)."""
    bn._v_gamma = momentum * bn._v_gamma - lr * bn.dgamma
    bn._v_beta = momentum * bn._v_beta - lr * bn.dbeta
    bn.gamma = np.maximum(bn.gamma + bn._v_gamma, GAMMA_MIN)
    bn.beta = bn.beta + bn._v_beta
    bn.dgamma[:] = 0.0
    bn.dbeta[:] = 0.0


def test_batchnorm_step_matches_frozen_out_of_place_step():
    """gamma clamped at GAMMA_MIN, beta unbounded, to the byte."""
    rng = np.random.default_rng(5)
    n = 16
    bn = BatchNorm(n)
    bn.gamma = rng.uniform(GAMMA_MIN, 0.05, n)
    bn.gamma[:3] = GAMMA_MIN
    bn.beta = rng.normal(0.0, 3.0, n)
    ref = copy.deepcopy(bn)
    clamped = 0
    for _ in range(50):
        dgamma, dbeta = rng.normal(0.5, 1.0, n), rng.normal(0.0, 5.0, n)
        lr, momentum = rng.uniform(0.001, 0.2), rng.uniform(0.0, 0.95)
        for b in (bn, ref):
            b.dgamma += dgamma
            b.dbeta += dbeta
        bn.step(lr, momentum)
        frozen_bn_step(ref, lr, momentum)
        for f in ("gamma", "beta", "_v_gamma", "_v_beta", "dgamma", "dbeta"):
            same_bytes(getattr(bn, f), getattr(ref, f))
        clamped += int(np.sum(bn.gamma == GAMMA_MIN))
    assert clamped > 0 and np.abs(bn.beta).max() > 1.0
