"""Differentiable K-LUT primitives.

A K-input LUT is parameterized by 2^K real values ("mask entries"), one per
corner of {-1,1}^K. The training-time function is the multilinear
interpolation through those corners,

    f(x) = 2^-k * sum_d c_d * prod_j (1 + d_j x_j),

normalized so that f(a) == c[index(a)] exactly at every corner a. Corner
indexing is fixed project-wide: input 0 is the least-significant axis, i.e.
index(d) = sum_j bit(d_j) * 2^j with bit(-1)=0, bit(1)=1.

All LUT math is one batched kernel, ``CornerBatch``, laid out corner-major:
a table of N LUTs is (2^k, N) with row d = corner d, and input j of every
node over B samples is one contiguous (B, N) slab. Rows 2i and 2i+1 differ
only in the lowest input, so the forward pass halves the table per input:
t <- t[0::2] * (1 - x_j)/2 + t[1::2] * (1 + x_j)/2. At x_j = +/-1 the weights
are exactly 1 and 0, so f(a) == c[index(a)] holds bit for bit (lo + (hi - lo)
* t would round), and the gradients equal a scatter-add over the samples.
The binarized training path relies on this. The single-LUT functions below
are one-sample, one-node calls of the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_K = 6  # physical 6-LUT bound; also caps the 2^k blow-up


class ContractError(ValueError):
    """Violation of an operation precondition (shape/range mismatch)."""


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise ContractError(f"LUT fan-in must be in [1, {MAX_K}], got {k}")


@dataclass(frozen=True)
class LutMask:
    """Trainable parameters of one k-input LUT: 2^k reals, corner-indexed."""

    k: int
    params: np.ndarray

    def __post_init__(self):
        _check_k(self.k)
        p = np.asarray(self.params, dtype=np.float64)
        if p.shape != (2**self.k,):
            raise ContractError(
                f"mask for k={self.k} needs {2**self.k} entries, got {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise ContractError("mask entries must be finite")
        object.__setattr__(self, "params", p)


@dataclass(frozen=True)
class TruthTable:
    """Binarized LUT contents: 2^k entries in {-1, 1}, same indexing."""

    k: int
    bits: np.ndarray

    def __post_init__(self):
        _check_k(self.k)
        b = np.asarray(self.bits, dtype=np.int8)
        if b.shape != (2**self.k,):
            raise ContractError(
                f"table for k={self.k} needs {2**self.k} entries, got {b.shape}"
            )
        if not np.all(np.abs(b) == 1):
            raise ContractError("truth table entries must be +/-1")
        object.__setattr__(self, "bits", b)


def pattern_index(d) -> int:
    """Corner index of sign pattern d in {-1,1}^k (input 0 = LSB)."""
    idx = 0
    for j, dj in enumerate(d):
        if dj > 0:
            idx |= 1 << j
    return idx


def index_pattern(idx: int, k: int) -> np.ndarray:
    """Inverse of pattern_index."""
    return np.array([1 if (idx >> j) & 1 else -1 for j in range(k)], dtype=np.int8)


def pair_indices(k: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Corner indices with input i = -1 and the matching i = +1 partners,
    ascending: lo[r] is corner r of the other k-1 inputs, in order."""
    idx = np.arange(2**k)
    lo = idx[(idx >> i) & 1 == 0]
    return lo, lo | (1 << i)


def _halve(table: np.ndarray, lo, hi) -> np.ndarray:
    """Interpolate a (2^m, N) table over m slabs of corner weights; (B, N)."""
    t = table[:, None, :]
    for lo_j, hi_j in zip(lo, hi):
        t = t[0::2] * lo_j + t[1::2] * hi_j
    return t[0]


# rows per interpolation step: its largest temporary, the (2^(k-1), rows, N)
# first halving, holds about this many floats (512 KB, so it stays in cache)
STEP_FLOATS = 1 << 16


class CornerBatch:
    """The k inputs of N LUTs over B samples; node n reads x[:, inputs[n, j]].
    Each input slab is kept as its corner weights lo = (1 - x)/2 and
    hi = (1 + x)/2, shared by the forward pass and both gradients."""

    def __init__(self, x: np.ndarray, inputs: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        self.inputs = np.asarray(inputs, dtype=np.int64)
        n_nodes, self.k = self.inputs.shape
        _check_k(self.k)
        self.n_in = x.shape[1]
        self.lo, self.hi = np.empty((2, self.k, len(x), n_nodes))
        for w, slabs in (((1.0 - x) * 0.5, self.lo), ((1.0 + x) * 0.5, self.hi)):
            for j in range(self.k):
                np.take(w, self.inputs[:, j], axis=1, out=slabs[j])
        step = max(1, STEP_FLOATS // (n_nodes << (self.k - 1)))
        self.steps = [slice(r, r + step) for r in range(0, max(len(x), 1), step)]

    def interpolate(self, table: np.ndarray) -> np.ndarray:
        """LUT outputs f[b, n]; shape (B, N)."""
        return np.concatenate(
            [_halve(table, self.lo[:, r], self.hi[:, r]) for r in self.steps]
        )

    def grad_table(self, df: np.ndarray) -> np.ndarray:
        """sum_b df[b, n] * d f[b, n] / d table[d, n]; shape (2^k, N). The
        batch sum adds samples in order (numpy sums pairwise only if N = 1)."""
        basis = np.empty((2**self.k, *df.shape))
        basis[0] = df
        for j in range(self.k):
            h = 1 << j
            np.multiply(basis[:h], self.hi[j], out=basis[h : 2 * h])
            basis[:h] *= self.lo[j]
        return basis.sum(axis=1)

    def grad_inputs(self, table: np.ndarray, df: np.ndarray) -> np.ndarray:
        """sum over the nodes reading x[b, i] of df * d f / d x_i; (B, n_in).
        d f / d x_j is half of table[hi_j] - table[lo_j] interpolated over the
        other inputs; one bincount adds terms in (sample, node, input) order."""
        b, n = df.shape
        pairs = [table[hi] - table[lo]
                 for lo, hi in (pair_indices(self.k, j) for j in range(self.k))]
        g = np.empty((b, n, self.k))
        for r in self.steps:
            lo, hi = self.lo[:, r], self.hi[:, r]
            for j, d in enumerate(pairs):
                dfdx = _halve(d, [*lo[:j], *lo[j + 1 :]], [*hi[:j], *hi[j + 1 :]])
                g[r, :, j] = dfdx * 0.5 * df[r]
        rows = np.arange(b)[:, None, None] * self.n_in + self.inputs
        dx = np.bincount(rows.ravel(), weights=g.ravel(), minlength=b * self.n_in)
        return dx.reshape(b, self.n_in)


def _one_sample(x, mask: LutMask | None = None) -> CornerBatch:
    """A batch of one sample and one node reading x[j] as input j."""
    x = np.asarray(x, dtype=np.float64)
    if mask is not None and x.shape != (mask.k,):
        raise ContractError(f"expected {mask.k} inputs, got shape {x.shape}")
    return CornerBatch(x[None, :], np.arange(len(x))[None, :])


def corner_weights(x: np.ndarray) -> np.ndarray:
    """Interpolation weights 2^-k * prod_j (1 + d_j x_j) for all 2^k corners.

    This is simultaneously the forward kernel and the exact gradient of
    lut_forward with respect to the mask entries.
    """
    return _one_sample(x).grad_table(np.ones((1, 1)))[:, 0]


def lut_forward(mask: LutMask, x) -> float:
    """Interpolated LUT output at x in [-1,1]^k."""
    return float(_one_sample(x, mask).interpolate(mask.params[:, None])[0, 0])


def lut_grad_params(mask: LutMask, x) -> np.ndarray:
    """d f / d c, one entry per corner (equals the interpolation weights)."""
    return _one_sample(x, mask).grad_table(np.ones((1, 1)))[:, 0]


def lut_grad_inputs(mask: LutMask, x) -> np.ndarray:
    """d f / d x_j for each input j."""
    return _one_sample(x, mask).grad_inputs(mask.params[:, None], np.ones((1, 1)))[0]


def binarize_mask(mask: LutMask) -> TruthTable:
    """Sign of each entry, with sign(0) = +1 (fixed tie rule)."""
    bits = np.where(mask.params >= 0.0, 1, -1).astype(np.int8)
    return TruthTable(mask.k, bits)


def table_view(bits: np.ndarray, k: int) -> np.ndarray:
    """Reshape a 2^k table to shape (2,)*k with axis j = input j."""
    return np.asarray(bits).reshape((2,) * k, order="F")


def effective_inputs(tt: TruthTable) -> set[int]:
    """Boolean support: inputs whose flip changes the output somewhere."""
    view = table_view(tt.bits, tt.k)
    support = set()
    for j in range(tt.k):
        lo = np.take(view, 0, axis=j)
        hi = np.take(view, 1, axis=j)
        if np.any(lo != hi):
            support.add(j)
    return support


def project_table(tt: TruthTable, keep: list[int]) -> TruthTable | int:
    """Restrict a table to the given (sorted) input positions.

    Positions not kept must be outside the Boolean support; otherwise the
    projection would be ill-defined. Returns the constant (+/-1) when keep
    is empty.
    """
    keep = sorted(keep)
    dropped = [j for j in range(tt.k) if j not in keep]
    if set(keep) | set(dropped) != set(range(tt.k)):
        raise ContractError("keep positions out of range")
    support = effective_inputs(tt)
    if support - set(keep):
        raise ContractError(f"cannot drop inputs in the support: {support - set(keep)}")
    view = table_view(tt.bits, tt.k)
    for j in reversed(dropped):
        view = np.take(view, 0, axis=j)
    if not keep:
        return int(view)
    bits = view.reshape(-1, order="F")
    return TruthTable(len(keep), bits)
