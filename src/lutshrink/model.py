"""Network layers: XNOR-popcount dense layers and trainable LUT layers.

Two forward modes exist throughout:

* ``hp``  — high-precision: LUT outputs are the real-valued interpolation,
  inter-layer activations are hard-tanh of the batch-normed sums, inputs
  stay real in [-1,1].
* ``bin`` — binarized: inputs, activations and LUT outputs are +/-1 (sign,
  with sign(0)=+1), gradients pass through sign via the clipped
  straight-through estimator.

LUT layers run every operation through one kernel, ``lutcore.CornerBatch``,
which picks its path from the data: on inputs that are all +/-1 (every
binarized forward, backward, batch-norm refresh and ``infer_bin``, and any hp
call whose inputs happen to be saturated) a LUT output is a table lookup
and its gradients are bincounts; otherwise it interpolates. The paths agree
bit for bit on +/-1 inputs, so the binarized LUT output is the sign of the
table entry that ``infer_bin`` and the netlist look up. In hp mode each LUT
reads only its kept (not severed) inputs: in a large enough batch, a LUT
that keeps m of k inputs interpolates over its 2^m corners alone. Bin mode
reads all k, since a lookup costs one gather at any fan-in and severance
has averaged the table entries a severed input would choose between. The
kernel works in row blocks, so a LUT layer's forward and backward hold a
few (B, N) arrays (output, gradient) and one block's temporaries, not
2^k of them. Each LUT feeds one channel, so its gradient is a gather of
that channel's.

A layer's ``forward`` also takes the batch-norm statistics to use:
``"batch"`` normalizes by the batch and folds it into the running stats
(training), ``"running"`` normalizes by the running stats (evaluation), and
``"refresh"`` folds the batch in first and then normalizes by the running
stats. ``Network.recalibrate`` runs the binarized forward in refresh mode.

Weights of dense layers are always sign(shadow) in the forward pass. The
exact inference path (``infer_bin``) compares integer-valued +/-1 sums with
batch-norm folded into integer thresholds; it is what the netlist must
reproduce bit for bit. The sums run as float32 BLAS products: every partial
sum is an integer below ``EXACT_SUM_LIMIT`` (2^24) in magnitude, so float32
holds it exactly in any summation order and at any thread count.
``Network.infer_bin`` runs ``INFER_ROWS`` samples at a time, so it holds
one block's activations plus the (B, classes) scores; its integer sums make
the block size invisible in the bits.
"""

from __future__ import annotations

import math

import numpy as np

from .lutcore import CornerBatch
from .shrink import compose_transforms, salience_rows

GAMMA_MIN = 1e-3  # keeps the folded threshold comparison direction fixed
EXACT_SUM_LIMIT = 2**24  # float32 holds every integer of smaller magnitude
RECALIBRATE_PASSES, RECALIBRATE_BATCH = 20, 256  # batch-norm refresh extent
# samples per block of Network.infer_bin; its sums are exact integers, so
# the block size changes no bit, only the memory held at once
INFER_ROWS = 512


class ModelError(RuntimeError):
    pass


def _pm1(true: np.ndarray, dtype) -> np.ndarray:
    """+1 where ``true``, else -1, in dtype: built in place from the boolean
    array, with no wide temporary."""
    s = true.astype(dtype)
    s *= 2
    s -= 1
    return s


def sign_pm1(x: np.ndarray) -> np.ndarray:
    """+/-1 in x's dtype, with sign(0) = sign(-0.0) = +1 and sign(NaN) = -1."""
    return _pm1(x >= 0, x.dtype)


def sign_bits(x: np.ndarray) -> np.ndarray:
    """sign_pm1 as int8."""
    return _pm1(x >= 0, np.int8)


def _check_exact(name: str, fan_in: int) -> None:
    if fan_in >= EXACT_SUM_LIMIT:
        raise ModelError(
            f"layer {name!r}: {fan_in} terms per sum reach 2**24, "
            "beyond exact float32 inference"
        )


def _activate(layer, s: np.ndarray, mode: str, stats: str) -> np.ndarray:
    """Layer output from its sums: scaled scores of an output layer, else
    batch norm then hard-tanh (hp) or sign (bin)."""
    if layer.is_output:
        return s * layer.alpha
    h = layer.bn.forward(s, stats)
    layer._cache_h = h
    return np.clip(h, -1.0, 1.0) if mode == "hp" else sign_pm1(h)


def _sum_grad(layer, dout: np.ndarray) -> np.ndarray:
    """Gradient at the sums, through hard-tanh (or sign, straight-through)
    and batch norm: the backward of _activate."""
    if layer.is_output:
        return dout * layer.alpha
    return layer.bn.backward(dout * (np.abs(layer._cache_h) <= 1.0))


def _infer_out(layer, s: np.ndarray) -> np.ndarray:
    """Integer scores of an output layer, else the +/-1 bits of s >= tau."""
    if layer.is_output:
        return s.astype(np.int64)
    return _pm1(s >= layer.bn.fold_thresholds(), np.int8)


def _momentum_step(p: np.ndarray, v: np.ndarray, d: np.ndarray, lr: float,
                   momentum: float, lo: float | None = -1.0,
                   hi: float | None = 1.0) -> None:
    """In place: v = momentum * v - lr * d, then p = clip(p + v, lo, hi)
    (a None bound is open), and the gradient d is zeroed."""
    v *= momentum
    d *= lr
    v -= d
    d.fill(0.0)
    p += v
    if lo is not None or hi is not None:
        p.clip(lo, hi, out=p)  # the method skips np.clip's dispatch


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

    def forward(self, s: np.ndarray, stats: str) -> np.ndarray:
        """Batch norm by the "batch", "running" or "refresh" statistics."""
        s = s.astype(np.float64)
        if stats != "running":
            mu = s.mean(axis=0)
            var = s.var(axis=0)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mu
            self.running_var = (1 - m) * self.running_var + m * var
        if stats != "batch":
            mu, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (s - mu) * inv_std
        self._cache = (xhat, inv_std)
        return self.gamma * xhat + self.beta

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Gradient through the last forward, which must be a "batch" one."""
        xhat, inv_std = self._cache
        self.dgamma += (dy * xhat).sum(axis=0)
        self.dbeta += dy.sum(axis=0)
        dxhat = dy * self.gamma
        b = dy.shape[0]
        return (
            inv_std
            / b
            * (b * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        )

    def fold_thresholds(self) -> np.ndarray:
        """Integer tau per unit: activation is +1 iff integer sum >= tau."""
        a = self.gamma / np.sqrt(self.running_var + self.eps)
        if np.any(a <= 0):
            raise ModelError("batch-norm scale must be positive to fold")
        return np.ceil(self.running_mean - self.beta / a).astype(np.int64)

    def step(self, lr: float, momentum: float) -> None:
        """In place; gamma stays at or above GAMMA_MIN, beta is unbounded."""
        _momentum_step(self.gamma, self._v_gamma, self.dgamma, lr, momentum,
                       GAMMA_MIN, None)
        _momentum_step(self.beta, self._v_beta, self.dbeta, lr, momentum,
                       None, None)


class DenseLayer:
    """XNOR-popcount layer: binary weights (sign of real shadows) + sum.

    The binary weights are built once per update and cached, as float64 for
    the forward and backward and as float32 for ``infer_bin``. ``step``
    drops the cache, and so does assigning ``shadow`` or ``alive``. Outside
    ``step`` these two arrays are replaced, never written in place; ``step``
    updates ``shadow`` in place, so an array assigned to it belongs to the
    layer. ``step`` clips the shadows to [-1, 1] (a checkpoint holding others
    is refused), so the straight-through gate |w| <= 1 is always open and
    the backward omits it.
    """

    kind = "dense"

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, name: str,
                 is_output: bool = False):
        self.name = name
        self.n_in = n_in
        self.n_out = n_out
        self.is_output = is_output
        self.shadow = rng.uniform(-0.1, 0.1, size=(n_out, n_in))
        self.alive = np.ones((n_out, n_in), dtype=bool)
        self.bn = None if is_output else BatchNorm(n_out)
        self.alpha = 1.0 / math.sqrt(n_in)
        self.dshadow = np.zeros_like(self.shadow)
        self._v_shadow = np.zeros_like(self.shadow)

    @property
    def shadow(self) -> np.ndarray:
        return self._shadow

    @shadow.setter
    def shadow(self, value: np.ndarray) -> None:
        self._shadow = value
        self._wb = self._wb32 = None

    @property
    def alive(self) -> np.ndarray:
        return self._alive

    @alive.setter
    def alive(self, value: np.ndarray) -> None:
        self._alive = value
        self._wb = self._wb32 = None

    def weights_bin(self) -> np.ndarray:
        """The +/-1 weights of live connections, 0 elsewhere: a cached,
        read-only array."""
        if self._wb is None:
            # in place after one allocation: a third of np.where's time
            wb = (self._shadow >= 0) * 2.0
            wb -= 1.0
            wb *= self._alive
            wb.flags.writeable = False
            self._wb = wb
        return self._wb

    def forward(self, x: np.ndarray, mode: str, stats: str) -> np.ndarray:
        self._cache_x = x
        return _activate(self, x @ self.weights_bin().T, mode, stats)

    def backward(self, dout: np.ndarray, need_dx: bool) -> np.ndarray | None:
        ds = _sum_grad(self, dout)
        g = ds.T @ self._cache_x
        g *= self._alive
        self.dshadow += g
        if need_dx:
            return ds @ self.weights_bin()
        return None

    def infer_bin(self, xbits: np.ndarray) -> np.ndarray:
        _check_exact(self.name, self.n_in)
        if self._wb32 is None:
            self._wb32 = self.weights_bin().astype(np.float32)
        return _infer_out(self, xbits.astype(np.float32) @ self._wb32.T)

    def step(self, lr: float, momentum: float) -> None:
        _momentum_step(self._shadow, self._v_shadow, self.dshadow, lr, momentum)
        self._wb = self._wb32 = None
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
                 is_output: bool = False, bn: BatchNorm | None = None):
        order = np.argsort(channel, kind="stable")
        self.name = name
        self.n_in = n_in
        self.n_out = n_out
        self.k = k
        self.inputs = inputs[order].astype(np.int64)
        self.channel = channel[order].astype(np.int64)
        self.masks = masks[order].astype(np.float64)
        self.is_output = is_output
        self.bn = bn if not is_output else None
        self.alpha = 1.0 / math.sqrt(n_in)
        self.dmasks = np.zeros_like(self.masks)
        self._v_masks = np.zeros_like(self.masks)
        self._chmat = np.zeros((len(self.channel), n_out))
        self._chmat[np.arange(len(self.channel)), self.channel] = 1.0
        self._chmat32 = self._chmat.astype(np.float32)  # for infer_bin
        self.pruned = np.zeros((len(self.channel), k), dtype=bool)
        self.set_pruned(self.pruned)

    @property
    def n_nodes(self) -> int:
        return len(self.channel)

    def set_pruned(self, pruned: np.ndarray) -> None:
        """Record the severed inputs, and group the rows by their severed
        pattern, with one averaging operator V per group."""
        if not np.all(pruned[self.pruned]):
            raise ModelError("severed LUT inputs cannot be revived")
        self.pruned = pruned.astype(bool)
        pats = (self.pruned.astype(np.int64) * (1 << np.arange(self.k))).sum(axis=1)
        self._groups = []
        for pat in np.unique(pats):
            pos = [i for i in range(self.k) if (pat >> i) & 1]
            self._groups.append((np.nonzero(pats == pat)[0],
                                 compose_transforms(self.k, pos)))

    def _transform(self, a: np.ndarray) -> np.ndarray:
        """Row-wise severance transform, in place (v is symmetric, so it maps
        raw masks to effective ones and effective gradients to raw ones)."""
        for rows, v in self._groups:
            a[rows] = a[rows] @ v
        return a

    def effective_masks(self) -> np.ndarray:
        return self._transform(self.masks.copy())

    def fold_transforms(self) -> None:
        self.masks = self.effective_masks()

    def salience(self) -> np.ndarray:
        return salience_rows(self.effective_masks(), self.k)

    def _outputs(self, x: np.ndarray, severed: np.ndarray | None = None):
        """Real LUT outputs f[b, n] and what the backward pass needs; each
        node reads its inputs not ``severed`` (by default all k)."""
        batch = CornerBatch(x, self.inputs, severed)
        table = np.ascontiguousarray(self.effective_masks().T)  # (2^k, N)
        return batch.interpolate(table), batch, table

    def forward(self, x: np.ndarray, mode: str, stats: str) -> np.ndarray:
        # hp reads the kept inputs only; a bin lookup costs one gather
        # whatever the fan-in, so it reads all k
        f_real, batch, table = self._outputs(x, self.pruned if mode == "hp" else None)
        self._cache_lut, self._cache_mode = (f_real, batch, table), mode
        # bin-mode inputs are +/-1, so f_real is exactly the table entry
        f = f_real if mode == "hp" else sign_pm1(f_real)
        return _activate(self, f @ self._chmat, mode, stats)

    def backward(self, dout: np.ndarray, need_dx: bool) -> np.ndarray | None:
        # each LUT feeds one channel: its gradient is that channel's
        df = np.take(_sum_grad(self, dout), self.channel, axis=1)  # (B, N)
        f_real, batch, table = self._cache_lut
        if self._cache_mode == "bin":
            df *= np.abs(f_real) <= 1.0  # clipped straight-through
        dtable, dx = batch.backward(table, df, need_dx)
        self.dmasks += self._transform(np.ascontiguousarray(dtable.T))
        return dx

    def truth_tables(self) -> np.ndarray:
        return sign_bits(self.effective_masks())

    def infer_bin(self, xbits: np.ndarray) -> np.ndarray:
        _check_exact(self.name, int(np.bincount(self.channel).max(initial=0)))
        tt = self.truth_tables().astype(np.float32).T  # (2^k, N)
        f = CornerBatch(xbits, self.inputs).interpolate(tt)
        return _infer_out(self, f @ self._chmat32)

    def step(self, lr: float, momentum: float) -> None:
        _momentum_step(self.masks, self._v_masks, self.dmasks, lr, momentum)
        if self.bn is not None:
            self.bn.step(lr, momentum)


class Network:
    """A stack of layers ending in an un-normalized score layer."""

    def __init__(self, layers: list):
        self.layers = layers
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
            x = lay.forward(x, mode, "batch" if training else "running")
        return x

    def backward(self, dlogits: np.ndarray) -> None:
        d = dlogits
        for i in reversed(range(len(self.layers))):
            d = self.layers[i].backward(d, need_dx=i > 0)

    def step(self, lr: float, momentum: float) -> None:
        for lay in self.layers:
            lay.step(lr, momentum)

    def infer_bin(self, x: np.ndarray) -> np.ndarray:
        """Exact integer class scores, (B, classes), computed INFER_ROWS
        samples at a time into one output array."""
        x = np.asarray(x)
        scores = None
        for lo in range(0, max(len(x), 1), INFER_ROWS):
            h = sign_bits(np.asarray(x[lo : lo + INFER_ROWS], dtype=np.float64))
            for lay in self.layers:
                h = lay.infer_bin(h)
            if scores is None:
                scores = np.empty((len(x), h.shape[1]), dtype=h.dtype)
            scores[lo : lo + len(h)] = h
        return scores

    def predict_bin(self, x: np.ndarray) -> np.ndarray:
        """Exact integer inference; ties resolved to the lowest class."""
        return np.argmax(self.infer_bin(x), axis=1)

    def recalibrate(self, x: np.ndarray) -> None:
        """Refresh batch-norm running stats under binarized forward."""
        n = min(len(x), RECALIBRATE_PASSES * RECALIBRATE_BATCH)
        for lo in range(0, n, RECALIBRATE_BATCH):
            h = sign_pm1(np.asarray(x[lo : lo + RECALIBRATE_BATCH], dtype=np.float64))
            for lay in self.layers:
                h = lay.forward(h, "bin", "refresh")


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
