"""Network layers: XNOR-popcount dense layers and trainable LUT layers.

Two forward modes exist throughout:

* ``hp``  — high-precision: LUT outputs are the real-valued interpolation,
  inter-layer activations are hard-tanh of the batch-normed sums, inputs
  stay real in [-1,1].
* ``bin`` — binarized: inputs, activations and LUT outputs are +/-1 (sign,
  with sign(0)=+1), gradients pass through sign via the clipped
  straight-through estimator. LUT layers use the same interpolation kernel
  (``lutcore.CornerBatch``) in both modes; on +/-1 inputs it is exact at
  the corners, so the binarized LUT output is the sign of the table entry
  that ``infer_bin`` and the netlist look up.

Weights of dense layers are always sign(shadow) in the forward pass. The
exact inference path (``infer_bin``) is pure integer arithmetic with
batch-norm folded into integer thresholds; it is what the netlist must
reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .lutcore import CornerBatch
from .shrink import compose_transforms, salience_rows

GAMMA_MIN = 1e-3  # keeps the folded threshold comparison direction fixed


class ModelError(RuntimeError):
    pass


def sign_pm1(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1.0, -1.0).astype(x.dtype)


def sign_bits(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1, -1).astype(np.int8)


class BatchNorm:
    """Per-unit batch normalization with foldable inference thresholds."""

    def __init__(self, n: int):
        self.gamma = np.ones(n)
        self.beta = np.zeros(n)
        self.running_mean = np.zeros(n)
        self.running_var = np.ones(n)
        self.momentum = 0.1
        self.eps = 1e-5
        self.dgamma = np.zeros(n)
        self.dbeta = np.zeros(n)
        self._v_gamma = np.zeros(n)
        self._v_beta = np.zeros(n)

    def forward(self, s: np.ndarray, training: bool) -> np.ndarray:
        s = s.astype(np.float64)
        if training:
            mu = s.mean(axis=0)
            var = s.var(axis=0)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mu
            self.running_var = (1 - m) * self.running_var + m * var
        else:
            mu, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (s - mu) * inv_std
        self._cache = (xhat, inv_std, training)
        return self.gamma * xhat + self.beta

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xhat, inv_std, training = self._cache
        self.dgamma += (dy * xhat).sum(axis=0)
        self.dbeta += dy.sum(axis=0)
        dxhat = dy * self.gamma
        if not training:
            return dxhat * inv_std
        b = dy.shape[0]
        return (
            inv_std
            / b
            * (b * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        )

    def calibrate(self, s: np.ndarray) -> np.ndarray:
        """Running-stat refresh without gradients, then sign of the output."""
        s = s.astype(np.float64)
        m = self.momentum
        self.running_mean = (1 - m) * self.running_mean + m * s.mean(axis=0)
        self.running_var = (1 - m) * self.running_var + m * s.var(axis=0)
        h = self.gamma * (s - self.running_mean) / np.sqrt(
            self.running_var + self.eps
        ) + self.beta
        return sign_pm1(h)

    def fold_thresholds(self) -> np.ndarray:
        """Integer tau per unit: activation is +1 iff integer sum >= tau."""
        a = self.gamma / np.sqrt(self.running_var + self.eps)
        if np.any(a <= 0):
            raise ModelError("batch-norm scale must be positive to fold")
        return np.ceil(self.running_mean - self.beta / a).astype(np.int64)

    def step(self, lr: float, momentum: float) -> None:
        self._v_gamma = momentum * self._v_gamma - lr * self.dgamma
        self._v_beta = momentum * self._v_beta - lr * self.dbeta
        self.gamma = np.maximum(self.gamma + self._v_gamma, GAMMA_MIN)
        self.beta = self.beta + self._v_beta
        self.dgamma[:] = 0.0
        self.dbeta[:] = 0.0


class DenseLayer:
    """XNOR-popcount layer: binary weights (sign of real shadows) + sum."""

    kind = "dense"

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, name: str,
                 is_output: bool = False, shrinkable: bool = False):
        self.name = name
        self.n_in = n_in
        self.n_out = n_out
        self.is_output = is_output
        self.shrinkable = shrinkable
        self.shadow = rng.uniform(-0.1, 0.1, size=(n_out, n_in))
        self.alive = np.ones((n_out, n_in), dtype=bool)
        self.bn = None if is_output else BatchNorm(n_out)
        self.alpha = 1.0 / math.sqrt(n_in)
        self.dshadow = np.zeros_like(self.shadow)
        self._v_shadow = np.zeros_like(self.shadow)

    def weights_bin(self) -> np.ndarray:
        return np.where(self.shadow >= 0, 1.0, -1.0) * self.alive

    def forward(self, x: np.ndarray, mode: str, training: bool) -> np.ndarray:
        wb = self.weights_bin()
        s = x @ wb.T
        self._cache_x, self._cache_wb = x, wb
        if self.is_output:
            return s * self.alpha
        h = self.bn.forward(s, training)
        self._cache_h = h
        return np.clip(h, -1.0, 1.0) if mode == "hp" else sign_pm1(h)

    def backward(self, dout: np.ndarray, need_dx: bool) -> np.ndarray | None:
        if self.is_output:
            ds = dout * self.alpha
        else:
            dh = dout * (np.abs(self._cache_h) <= 1.0)
            ds = self.bn.backward(dh)
        self.dshadow += (ds.T @ self._cache_x) * (np.abs(self.shadow) <= 1.0) * self.alive
        if need_dx:
            return ds @ self._cache_wb
        return None

    def infer_bin(self, xbits: np.ndarray) -> np.ndarray:
        wb = np.where(self.shadow >= 0, 1, -1).astype(np.int64) * self.alive
        s = xbits.astype(np.int64) @ wb.T
        if self.is_output:
            return s
        tau = self.bn.fold_thresholds()
        return np.where(s >= tau, 1, -1).astype(np.int8)

    def calibrate(self, x: np.ndarray) -> np.ndarray:
        s = x @ self.weights_bin().T
        if self.is_output:
            return s * self.alpha
        return self.bn.calibrate(s)

    def step(self, lr: float, momentum: float) -> None:
        self._v_shadow = momentum * self._v_shadow - lr * self.dshadow
        self.shadow = np.clip(self.shadow + self._v_shadow, -1.0, 1.0)
        self.dshadow[:] = 0.0
        if self.bn is not None:
            self.bn.step(lr, momentum)


class LutLayer:
    """A bank of k-input LUTs with per-channel accumulation.

    Node n reads k entries of the layer input vector (``inputs[n]``) and
    contributes its output to channel ``channel[n]``. Severed input
    positions are recorded in ``pruned``; the corresponding averaging
    transform is applied to the raw masks at every forward pass, so
    severance survives any number of gradient updates.
    """

    kind = "lut"

    def __init__(self, n_in: int, n_out: int, k: int, inputs: np.ndarray,
                 channel: np.ndarray, masks: np.ndarray, name: str,
                 is_output: bool = False, bn: BatchNorm | None = None,
                 alpha: float | None = None):
        order = np.argsort(channel, kind="stable")
        self.name = name
        self.n_in = n_in
        self.n_out = n_out
        self.k = k
        self.inputs = inputs[order].astype(np.int64)
        self.channel = channel[order].astype(np.int64)
        self.masks = masks[order].astype(np.float64)
        self.pruned = np.zeros((len(self.channel), k), dtype=bool)
        self.is_output = is_output
        self.shrinkable = True
        self.bn = bn if not is_output else None
        self.alpha = alpha if alpha is not None else 1.0 / math.sqrt(max(n_in, 1))
        self.dmasks = np.zeros_like(self.masks)
        self._v_masks = np.zeros_like(self.masks)
        self._chmat = np.zeros((len(self.channel), n_out))
        self._chmat[np.arange(len(self.channel)), self.channel] = 1.0
        self._groups_version = -1
        self._pruned_version = 0

    @property
    def n_nodes(self) -> int:
        return len(self.channel)

    def set_pruned(self, pruned: np.ndarray) -> None:
        if not np.all(pruned[self.pruned]):
            raise ModelError("severed LUT inputs cannot be revived")
        self.pruned = pruned.astype(bool)
        self._pruned_version += 1

    def _groups(self):
        if self._groups_version != self._pruned_version:
            pats = (self.pruned.astype(np.int64) * (1 << np.arange(self.k))).sum(axis=1)
            groups = []
            for pat in np.unique(pats):
                rows = np.nonzero(pats == pat)[0]
                pos = [i for i in range(self.k) if (pat >> i) & 1]
                v = compose_transforms(self.k, pos).entries
                groups.append((rows, v))
            self._group_list = groups
            self._groups_version = self._pruned_version
        return self._group_list

    def _transform(self, a: np.ndarray) -> np.ndarray:
        """Row-wise severance transform, in place (v is symmetric, so it maps
        raw masks to effective ones and effective gradients to raw ones)."""
        for rows, v in self._groups():
            a[rows] = a[rows] @ v
        return a

    def effective_masks(self) -> np.ndarray:
        return self._transform(self.masks.copy())

    def fold_transforms(self) -> None:
        self.masks = self.effective_masks()

    def salience(self) -> np.ndarray:
        return salience_rows(self.effective_masks(), self.k)

    def _outputs(self, x: np.ndarray):
        """Real LUT outputs f[b, n] and what the backward pass needs."""
        batch = CornerBatch(x, self.inputs)
        table = np.ascontiguousarray(self.effective_masks().T)  # (2^k, N)
        return batch.interpolate(table), batch, table

    def forward(self, x: np.ndarray, mode: str, training: bool) -> np.ndarray:
        f_real, batch, table = self._outputs(x)
        self._cache_lut, self._cache_mode = (f_real, batch, table), mode
        # bin-mode inputs are +/-1, so f_real is exactly the table entry
        f = f_real if mode == "hp" else sign_pm1(f_real)
        s = f @ self._chmat
        if self.is_output:
            return s * self.alpha
        h = self.bn.forward(s, training)
        self._cache_h = h
        return np.clip(h, -1.0, 1.0) if mode == "hp" else sign_pm1(h)

    def backward(self, dout: np.ndarray, need_dx: bool) -> np.ndarray | None:
        if self.is_output:
            ds = dout * self.alpha
        else:
            dh = dout * (np.abs(self._cache_h) <= 1.0)
            ds = self.bn.backward(dh)
        df = ds @ self._chmat.T  # (B, N)
        f_real, batch, table = self._cache_lut
        if self._cache_mode == "bin":
            df = df * (np.abs(f_real) <= 1.0)  # clipped straight-through
        dceff = np.ascontiguousarray(batch.grad_table(df).T)
        self.dmasks += self._transform(dceff)
        if need_dx:
            return batch.grad_inputs(table, df)
        return None

    def truth_tables(self) -> np.ndarray:
        return sign_bits(self.effective_masks())

    def infer_bin(self, xbits: np.ndarray) -> np.ndarray:
        tt = self.truth_tables().astype(np.int64)
        xt = xbits[:, self.inputs]
        idx = ((xt > 0).astype(np.int64) << np.arange(self.k)).sum(axis=2)
        f = tt[np.arange(self.n_nodes)[None, :], idx]
        s = f @ self._chmat.astype(np.int64)
        if self.is_output:
            return s
        tau = self.bn.fold_thresholds()
        return np.where(s >= tau, 1, -1).astype(np.int8)

    def calibrate(self, x: np.ndarray) -> np.ndarray:
        s = sign_pm1(self._outputs(x)[0]) @ self._chmat
        if self.is_output:
            return s * self.alpha
        return self.bn.calibrate(s)

    def step(self, lr: float, momentum: float) -> None:
        self._v_masks = momentum * self._v_masks - lr * self.dmasks
        self.masks = np.clip(self.masks + self._v_masks, -1.0, 1.0)
        self.dmasks[:] = 0.0
        if self.bn is not None:
            self.bn.step(lr, momentum)


class Network:
    """A stack of layers ending in an un-normalized score layer."""

    def __init__(self, layers: list, num_classes: int):
        self.layers = layers
        self.num_classes = num_classes
        if not layers or not layers[-1].is_output:
            raise ModelError("network must end in an output (score) layer")

    def layer(self, name: str):
        for lay in self.layers:
            if lay.name == name:
                return lay
        raise ModelError(f"no layer named {name!r}")

    def forward(self, x: np.ndarray, mode: str, training: bool) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        x = sign_pm1(x) if mode == "bin" else np.clip(x, -1.0, 1.0)
        for lay in self.layers:
            x = lay.forward(x, mode, training)
        return x

    def backward(self, dlogits: np.ndarray) -> None:
        d = dlogits
        for i in reversed(range(len(self.layers))):
            d = self.layers[i].backward(d, need_dx=i > 0)

    def step(self, lr: float, momentum: float) -> None:
        for lay in self.layers:
            lay.step(lr, momentum)

    def predict_bin(self, x: np.ndarray) -> np.ndarray:
        """Exact integer inference; ties resolved to the lowest class."""
        xbits = sign_bits(np.asarray(x, dtype=np.float64))
        h = xbits
        for lay in self.layers:
            h = lay.infer_bin(h)
        return np.argmax(h, axis=1)

    def recalibrate(self, x: np.ndarray, passes: int = 20, batch: int = 256) -> None:
        """Refresh batch-norm running stats under binarized forward."""
        n = min(len(x), passes * batch)
        for lo in range(0, n, batch):
            h = sign_pm1(np.asarray(x[lo : lo + batch], dtype=np.float64))
            for lay in self.layers:
                h = lay.calibrate(h)


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient with respect to the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    b = len(labels)
    loss = -np.log(np.maximum(p[np.arange(b), labels], 1e-30)).mean()
    grad = p.copy()
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b
