"""Network layers: XNOR-popcount dense layers and trainable LUT layers.

Two forward modes exist throughout:

* ``hp``  — high-precision: LUT outputs are the real-valued interpolation,
  inter-layer activations are hard-tanh of the batch-normed sums, inputs
  stay real in [-1,1].
* ``bin`` — binarized: inputs, activations and LUT outputs are +/-1 (sign,
  with sign(0)=+1).

Gradients pass through sign by the clipped straight-through estimator: the
gradient of sign(w) is 1 where |w| <= 1 and 0 elsewhere. For an activation
the gate is the hard-tanh's. For a dense shadow or a LUT mask entry it is
always open, so neither backward applies it. Shadows and masks start in
[-1, 1], the optimizer step (``_momentum_step``) clips them there,
``checkpoint.load`` refuses others, and severance averages mask entries
with non-negative weights that sum to 1, so every table entry a LUT reads
stays in [-1, 1].

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

A LUT layer builds what its ``inputs``, ``channel`` and ``pruned`` fix
once, in its constructor and in ``set_pruned``: the hp ``Wiring`` (with
the severance), the bin one (without), the channel matrix and its largest
fan-in, and the severed rows sorted by pattern with one averaging operator
per pattern. Those three arrays are read-only, so no in-place write can
leave that stale. Per call stay the kernel's batch (``CornerBatch`` of the
call's x), the effective table and the severance transform, which is one
gather of the severed rows, one product per pattern on its contiguous
slice and one scatter.

A layer takes its widths, its batch norm (None on the output layer only:
``is_output`` is ``bn is None``), its name, and the arrays a checkpoint
stores for its kind: ``shadow`` and ``alive`` of a dense layer; ``masks``,
``inputs``, ``channel`` and ``pruned`` of a LUT layer, whose fan-in ``k`` is
the width of ``inputs``.

A layer's ``forward`` also takes the batch-norm statistics to use:
``"batch"`` normalizes by the batch and folds it into the running stats
(training), ``"running"`` normalizes by the running stats (evaluation), and
``"refresh"`` folds the batch in first and then normalizes by the running
stats. ``Network.recalibrate`` runs the binarized forward in refresh mode.
Only a ``"batch"`` forward, the one a backward follows, stores what the
backward reads: a dense layer's input, the batch-norm xhat, the hard-tanh
input, and a LUT layer's kernel batch and table. An evaluation or refresh
forward stores nothing, and leaves those of the last training forward in
place: a backward after it reads the training forward's.

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

from .lutcore import CornerBatch, Wiring
from .shrink import compose_transforms, salience_rows

GAMMA_MIN = 1e-3  # keeps the folded threshold comparison direction fixed
MOMENTUM = 0.9  # SGD momentum of every training phase
BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # running-statistics update, variance floor
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
    if stats == "batch":  # a backward pass follows
        layer._cache_h = h
    return h.clip(-1.0, 1.0) if mode == "hp" else sign_pm1(h)


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
                   lo: float | None = -1.0, hi: float | None = 1.0) -> None:
    """In place: v = MOMENTUM * v - lr * d, then p = clip(p + v, lo, hi)
    (a None bound is open), and the gradient d is zeroed."""
    v *= MOMENTUM
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
        self.dgamma = np.zeros(n)
        self.dbeta = np.zeros(n)
        self._v_gamma = np.zeros(n)
        self._v_beta = np.zeros(n)

    def forward(self, s: np.ndarray, stats: str) -> np.ndarray:
        """Batch norm by the "batch", "running" or "refresh" statistics.

        The batch mean and variance are the operations ``ndarray.mean`` and
        ``ndarray.var`` run (one column sum divided by B, then the sum of
        the squared deviations divided by B), with the deviations from the
        mean computed once and scaled in place into ``xhat``."""
        s = np.asarray(s, dtype=np.float64)
        if stats != "running":
            b = len(s)
            mu = np.add.reduce(s, 0) / b
            d = s - mu
            var = np.add.reduce(d * d, 0) / b
            m = BN_MOMENTUM
            self.running_mean = (1 - m) * self.running_mean + m * mu
            self.running_var = (1 - m) * self.running_var + m * var
        if stats != "batch":
            mu, var = self.running_mean, self.running_var
            d = s - mu
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        d *= inv_std  # xhat
        if stats == "batch":  # a backward pass follows
            self._cache = (d, inv_std)
        y = d * self.gamma
        y += self.beta
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Gradient through the last "batch" forward, the one forward that
        stores what this reads: inv_std / B * (B * dxhat - sum(dxhat) -
        xhat * sum(dxhat * xhat)), with dxhat = dy * gamma, composed in
        place in that order."""
        xhat, inv_std = self._cache
        t = dy * xhat
        self.dgamma += np.add.reduce(t, 0)
        self.dbeta += np.add.reduce(dy, 0)
        dx = dy * self.gamma  # dxhat
        b = len(dy)
        sum_dxhat = np.add.reduce(dx, 0)
        np.multiply(dx, xhat, out=t)
        np.multiply(xhat, np.add.reduce(t, 0), out=t)
        dx *= b
        dx -= sum_dxhat
        dx -= t
        dx *= inv_std / b
        return dx

    def fold_thresholds(self) -> np.ndarray:
        """Integer tau per unit: activation is +1 iff integer sum >= tau."""
        a = self.gamma / np.sqrt(self.running_var + BN_EPS)
        if np.any(a <= 0):
            raise ModelError("batch-norm scale must be positive to fold")
        return np.ceil(self.running_mean - self.beta / a).astype(np.int64)

    def step(self, lr: float) -> None:
        """In place; gamma stays at or above GAMMA_MIN, beta is unbounded."""
        _momentum_step(self.gamma, self._v_gamma, self.dgamma, lr, GAMMA_MIN, None)
        _momentum_step(self.beta, self._v_beta, self.dbeta, lr, None, None)


class _Layer:
    """The widths, batch norm, name and score scale of either layer kind."""

    def __init__(self, n_in: int, n_out: int, bn: BatchNorm | None, name: str):
        self.name, self.n_in, self.n_out, self.bn = name, n_in, n_out, bn
        self.alpha = 1.0 / math.sqrt(n_in)

    @property
    def is_output(self) -> bool:
        """The output (score) layer is the one without batch norm."""
        return self.bn is None


class DenseLayer(_Layer):
    """XNOR-popcount layer: binary weights (sign of real shadows) + sum.

    The binary weights are built once per update and cached, as float64 for
    the forward and backward and as float32 for ``infer_bin``. ``step``
    drops the cache, and so does assigning ``shadow`` or ``alive``. Outside
    ``step`` these two arrays are replaced, never written in place; ``step``
    updates ``shadow`` in place, so an array given to the layer belongs to
    it.
    """

    kind = "dense"

    def __init__(self, n_in: int, n_out: int, bn: BatchNorm | None, name: str, *,
                 shadow: np.ndarray, alive: np.ndarray):
        super().__init__(n_in, n_out, bn, name)
        self.shadow = shadow
        self.alive = alive
        self.dshadow = np.zeros_like(shadow)
        self._v_shadow = np.zeros_like(shadow)

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
        if stats == "batch":  # a backward pass follows
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

    def step(self, lr: float) -> None:
        _momentum_step(self._shadow, self._v_shadow, self.dshadow, lr)
        self._wb = self._wb32 = None
        if self.bn is not None:
            self.bn.step(lr)


class LutLayer(_Layer):
    """A bank of k-input LUTs with per-channel accumulation.

    Node n reads k entries of the layer input vector (``inputs[n]``) and
    contributes its output to channel ``channel[n]``. The layer keeps its
    nodes in the order it is given (``logic_expand`` gives them sorted by
    channel); no step relies on an order, since each works node by node.
    Severed input positions are recorded in ``pruned``; the averaging
    transform is applied to the raw masks whenever they are read
    (``effective_masks``), so severance survives any number of gradient
    updates.

    ``inputs``, ``channel`` and ``pruned`` are read-only: what follows from
    them is built when they are set, and ``set_pruned`` is the one way to
    change the severance.
    """

    kind = "lut"

    def __init__(self, n_in: int, n_out: int, bn: BatchNorm | None, name: str, *,
                 masks: np.ndarray, inputs: np.ndarray, channel: np.ndarray,
                 pruned: np.ndarray):
        super().__init__(n_in, n_out, bn, name)
        self.inputs = inputs.astype(np.int64)
        self.channel = channel.astype(np.int64)
        self.inputs.flags.writeable = self.channel.flags.writeable = False
        self.masks = masks.astype(np.float64)
        self.k = self.inputs.shape[1]
        self.dmasks = np.zeros_like(self.masks)
        self._v_masks = np.zeros_like(self.masks)
        self._chmat = np.zeros((len(self.channel), n_out))
        self._chmat[np.arange(len(self.channel)), self.channel] = 1.0
        self._chmat32 = self._chmat.astype(np.float32)  # for infer_bin
        self._fan_in = int(np.bincount(self.channel).max(initial=0))
        self._bin_wiring = Wiring(n_in, self.inputs)
        self.pruned = np.zeros(self.inputs.shape, dtype=bool)
        self.set_pruned(pruned)

    @property
    def n_nodes(self) -> int:
        return len(self.channel)

    def set_pruned(self, pruned: np.ndarray) -> None:
        """Record the severed inputs and build what follows from them: the
        hp wiring, and the rows that sever any input, sorted by their
        severed pattern, with one averaging operator V per pattern (the
        rows that sever none keep V = I and are left out)."""
        if not np.all(pruned[self.pruned]):
            raise ModelError("severed LUT inputs cannot be revived")
        self.pruned = pruned.astype(bool)
        self.pruned.flags.writeable = False
        self._hp_wiring = Wiring(self.n_in, self.inputs, self.pruned)
        pats = (self.pruned.astype(np.int64) << np.arange(self.k)).sum(axis=1)
        order = np.argsort(pats, kind="stable")
        self._severed_rows = order[pats[order] != 0]
        pats = pats[self._severed_rows]
        starts = np.flatnonzero(np.diff(pats, prepend=0))
        self._severances = [
            (slice(lo, hi), compose_transforms(self.k, [i for i in range(self.k)
                                                        if (pats[lo] >> i) & 1]))
            for lo, hi in zip(starts, [*starts[1:], len(pats)])]

    def _transform(self, a: np.ndarray) -> np.ndarray:
        """Row-wise severance transform, in place (v is symmetric, so it maps
        raw masks to effective ones and effective gradients to raw ones):
        one gather of the severed rows, one product per pattern on its
        contiguous slice of them, one scatter."""
        rows = self._severed_rows
        if len(rows):
            severed = a.take(rows, axis=0)
            out = np.empty_like(severed)
            for s, v in self._severances:
                np.matmul(severed[s], v, out=out[s])
            a[rows] = out
        return a

    def effective_masks(self) -> np.ndarray:
        # + 0.0 copies and turns -0.0 into +0.0, as the product with the
        # identity V of an unsevered row would
        return self._transform(self.masks + 0.0)

    def salience(self) -> np.ndarray:
        return salience_rows(self.effective_masks(), self.k)

    def forward(self, x: np.ndarray, mode: str, stats: str) -> np.ndarray:
        # hp reads the kept inputs only; a bin lookup costs one gather
        # whatever the fan-in, so it reads all k
        batch = CornerBatch(x, self._hp_wiring if mode == "hp" else self._bin_wiring)
        table = np.ascontiguousarray(self.effective_masks().T)  # (2^k, N)
        if stats == "batch":  # a backward pass follows
            self._cache_lut, self._cache_mode = (batch, table), mode
        f = batch.interpolate(table)
        if mode == "bin":  # +/-1 inputs: f is exactly the table entry
            f = sign_pm1(f)
        return _activate(self, f @ self._chmat, mode, stats)

    def backward(self, dout: np.ndarray, need_dx: bool) -> np.ndarray | None:
        # each LUT feeds one channel: its gradient is that channel's
        df = _sum_grad(self, dout).take(self.channel, axis=1)  # (B, N)
        batch, table = self._cache_lut
        dtable, dx = batch.backward(table, df, need_dx)
        self.dmasks += self._transform(np.ascontiguousarray(dtable.T))
        return dx

    def truth_tables(self) -> np.ndarray:
        return sign_bits(self.effective_masks())

    def infer_bin(self, xbits: np.ndarray) -> np.ndarray:
        _check_exact(self.name, self._fan_in)
        tt = self.truth_tables().astype(np.float32).T  # (2^k, N)
        f = CornerBatch(xbits, self._bin_wiring).interpolate(tt)
        return _infer_out(self, f @ self._chmat32)

    def step(self, lr: float) -> None:
        _momentum_step(self.masks, self._v_masks, self.dmasks, lr)
        if self.bn is not None:
            self.bn.step(lr)


class Network:
    """A stack of layers ending in an un-normalized score layer: the last
    layer, and only it, has no batch norm."""

    def __init__(self, layers: list):
        if not layers:
            raise ModelError("a network needs at least one layer")
        for i, lay in enumerate(layers, 1):
            if lay.is_output != (i == len(layers)):
                has = "has no" if lay.is_output else "has a"
                raise ModelError(f"layer {lay.name!r} {has} batch norm, but the last "
                                 "layer, and only it, has none")
        self.layers = layers

    def layer(self, name: str):
        for lay in self.layers:
            if lay.name == name:
                return lay
        raise ModelError(f"no layer named {name!r}")

    def forward(self, x: np.ndarray, mode: str, training: bool) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        x = sign_pm1(x) if mode == "bin" else x.clip(-1.0, 1.0)
        for lay in self.layers:
            x = lay.forward(x, mode, "batch" if training else "running")
        return x

    def backward(self, dlogits: np.ndarray) -> None:
        d = dlogits
        for i in reversed(range(len(self.layers))):
            d = self.layers[i].backward(d, need_dx=i > 0)

    def step(self, lr: float) -> None:
        for lay in self.layers:
            lay.step(lr)

    def infer_bin(self, x: np.ndarray) -> np.ndarray:
        """Exact integer class scores, (B, classes), computed INFER_ROWS
        samples at a time into one output array."""
        x = np.asarray(x)
        scores = None
        for lo in range(0, max(len(x), 1), INFER_ROWS):
            h = sign_bits(x[lo : lo + INFER_ROWS])
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
        """Refresh batch-norm running stats under binarized forward.

        Each of at most RECALIBRATE_PASSES batches of RECALIBRATE_BATCH
        samples is folded in once, at BN_MOMENTUM, so the running stats
        move 1 - (1 - BN_MOMENTUM)^batches of the way toward the binarized
        batch statistics: 10% for 256 samples (one batch), 27% for 600."""
        n = min(len(x), RECALIBRATE_PASSES * RECALIBRATE_BATCH)
        for lo in range(0, n, RECALIBRATE_BATCH):
            h = sign_pm1(np.asarray(x[lo : lo + RECALIBRATE_BATCH], dtype=np.float64))
            for lay in self.layers:
                h = lay.forward(h, "bin", "refresh")


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient with respect to the logits. The
    gradient is built in place in one fresh array; ``logits`` is unchanged."""
    p = logits - np.maximum.reduce(logits, 1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, 1, keepdims=True)
    b = len(labels)
    rows = np.arange(b)
    loss = -(np.add.reduce(np.log(np.maximum(p[rows, labels], 1e-30))) / b)
    p[rows, labels] -= 1.0
    p /= b
    return loss, p
