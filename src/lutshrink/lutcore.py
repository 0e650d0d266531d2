"""Differentiable K-LUT primitives.

A K-input LUT is parameterized by 2^K real values ("mask entries"), one per
corner of {-1,1}^K. The training-time function is the multilinear
interpolation through those corners,

    f(x) = 2^-k * sum_d c_d * prod_j (1 + d_j x_j),

normalized so that f(a) == c[index(a)] exactly at every corner a. Corner
indexing is fixed project-wide: input 0 is the least-significant axis, i.e.
index(d) = sum_j bit(d_j) * 2^j with bit(-1)=0, bit(1)=1.

All LUT math is one batched kernel, ``CornerBatch``, laid out corner-major:
a table of N LUTs is (2^k, N) with row d = corner d. It has two paths,
chosen by the data.

* Corner path, when every input is +/-1 (all binarized training, batch-norm
  calibration and exact inference): each node reads one table entry per
  sample, at a flat position index * N + n computed once. The forward pass
  is a gather, the table gradient one bincount over those positions, and
  the input gradient a gather of the slope rows table[d | 2^j] -
  table[d & ~2^j] followed by the same bincount as below.
* Interpolating path, otherwise: input j of every node over B samples is
  one contiguous (B, N) slab of corner weights, and the forward pass halves
  the table per input, t <- t[0::2] * (1 - x_j)/2 + t[1::2] * (1 + x_j)/2
  (rows 2i and 2i+1 differ only in the lowest input). At x_j = +/-1 the
  weights are exactly 1 and 0, so f(a) == c[index(a)] holds bit for bit
  (lo + (hi - lo) * t would round).

Severed inputs, when given, reach neither a node's output nor its input
gradient: a node that keeps m of its k inputs reads its table only where
the severed bits are 0. In a large enough batch the nodes interpolate in
groups of equal m, each over its 2^m corners, so a node costs what an
m-LUT does; in a small one every node interpolates over all k inputs with
the severed ones held at -1, which gives the same bits. The
high-precision forward pass passes the severance; the binarized one does
not, because a corner lookup costs one gather whatever the fan-in.

On +/-1 inputs the two paths agree bit for bit, because every bincount bin
receives its terms in the order the interpolating sums add them: samples
ascending for a table entry, (node, input) ascending for an input. One LUT
at one point is a batch of one: ``CornerBatch(x[None], np.arange(k)[None])``.

A table binarizes to its signs, with sign(0) = +1 (``model.sign_bits``).
A binarized table has one set of helpers: ``support``, ``project`` (drop
inputs outside the support) and ``rewire`` (any re-indexing, one gather).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_K = 6  # physical 6-LUT bound; also caps the 2^k blow-up


class ContractError(ValueError):
    """Violation of an operation precondition (shape/range mismatch)."""


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise ContractError(f"LUT fan-in must be in [1, {MAX_K}], got {k}")


def pair_indices(k: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Corner indices with input i = -1 and the matching i = +1 partners,
    ascending: lo[r] is corner r of the other k-1 inputs, in order."""
    idx = np.arange(2**k)
    lo = idx[(idx >> i) & 1 == 0]
    return lo, lo | (1 << i)


# per k, the pair_indices(k, j) of every input j side by side: (2, k * 2^(k-1))
FLIP_PAIRS = [None] + [np.hstack([pair_indices(k, j) for j in range(k)])
                       for k in range(1, MAX_K + 1)]


def _halve(table: np.ndarray, lo, hi) -> np.ndarray:
    """Interpolate a (2^m, N) table over m slabs of corner weights; (B, N)."""
    t = table[:, None, :]
    for lo_j, hi_j in zip(lo, hi):
        t = t[0::2] * lo_j + t[1::2] * hi_j
    return t[0]


# rows per interpolation step: its largest temporary, the (2^(k-1), rows, N)
# first halving, holds about this many floats (512 KB, so it stays in cache)
STEP_FLOATS = 1 << 16


def _at_corners(x: np.ndarray) -> bool:
    """Whether every input is exactly +/-1, so each LUT reads one table row."""
    return bool(np.all(np.abs(x) == 1))


def _corner_flat(x: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Position of the table entry node n reads on sample b, in a flattened
    (2^k, N) table: index(x[b, inputs[n]]) * N + n; shape (B, N). The corner
    index is built node-major, one gather of whole rows of the transposed
    sign bits per input, and written out sample-major."""
    n_nodes, k = inputs.shape
    bits = np.ascontiguousarray(x.T > 0).view(np.uint8)  # (n_in, B)
    idx = bits[inputs[:, 0]]
    for j in range(1, k):
        idx |= bits[inputs[:, j]] << j
    flat = np.empty((x.shape[0], n_nodes), dtype=np.int64)
    np.multiply(idx.T, np.int64(n_nodes), out=flat)
    flat += np.arange(n_nodes)
    return flat


def _bincount(bins: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Sums of weights per bin, each added in array order; float64 also
    when there are no weights (np.bincount would return integers)."""
    total = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=size)
    return total.astype(np.float64, copy=False)


def _sample_sum(basis: np.ndarray) -> np.ndarray:
    """basis.sum(axis=1) of a (D, B, N) stack, adding the samples in order.
    numpy does so when N > 1; a single column it would sum pairwise, so
    that one is a bincount."""
    d, b, n = basis.shape
    if n != 1:
        return basis.sum(axis=1)
    return _bincount(np.repeat(np.arange(d), b), basis, d)[:, None]


class _Fanin:
    """LUTs of a ``CornerBatch`` interpolated over m inputs each, ``inputs``
    (N_g, m) columns of x: all N nodes over all k inputs when ``rows`` is
    None, else the nodes ``rows`` that keep m inputs, over those alone.
    Node rows[i] then reads its table at the corners ``cols[:, i]``, those
    whose severed bits are 0, and its input j is term ``terms[i * m + j]``
    of the batch's kept inputs in (node, input) order."""

    def __init__(self, inputs: np.ndarray, rows=None, cols=None, terms=None):
        self.inputs, self.rows, self.cols, self.terms = inputs, rows, cols, terms
        self.n, self.m = inputs.shape

    def weigh(self, w) -> None:
        """Gather each input as a contiguous (B, N_g) slab of the corner
        weights w = (lo, hi) of x."""
        b = len(w[0])
        self.lo, self.hi = np.empty((2, self.m, b, self.n))
        for wj, slabs in zip(w, (self.lo, self.hi)):
            for j in range(self.m):
                # mode="clip" writes straight into out; the default buffers it
                np.take(wj, self.inputs[:, j], axis=1, out=slabs[j], mode="clip")
        step = max(1, STEP_FLOATS // (self.n << max(self.m - 1, 0)))
        self.steps = [slice(r, r + step) for r in range(0, max(b, 1), step)]

    def columns(self, a: np.ndarray) -> np.ndarray:
        """The group's columns of a (B, N) array, C-contiguous (a[:, rows]
        would lay them out transposed)."""
        return a if self.rows is None else np.take(a, self.rows, axis=1)

    def table(self, table: np.ndarray) -> np.ndarray:
        """The group's own (2^m, N_g) table."""
        return table if self.rows is None else table[self.cols, self.rows]

    def interpolate(self, table: np.ndarray) -> np.ndarray:
        t = self.table(table)
        if not self.m:  # every input severed: the constant
            return np.repeat(t, self.lo.shape[1], axis=0)
        return np.concatenate(
            [_halve(t, self.lo[:, r], self.hi[:, r]) for r in self.steps]
        )

    def grad_table(self, df: np.ndarray) -> np.ndarray:
        basis = np.empty((2**self.m, *df.shape))
        basis[0] = df
        for j in range(self.m):
            h = 1 << j
            np.multiply(basis[:h], self.hi[j], out=basis[h : 2 * h])
            basis[:h] *= self.lo[j]
        return _sample_sum(basis)

    def grad_inputs(self, t: np.ndarray, df: np.ndarray, out: np.ndarray) -> None:
        """d f / d x of every input, times df, into out (B, N_g, m)."""
        pairs = [t[hi] - t[lo]
                 for lo, hi in (pair_indices(self.m, j) for j in range(self.m))]
        for r in self.steps:
            lo, hi = self.lo[:, r], self.hi[:, r]
            for j, d in enumerate(pairs):
                dfdx = _halve(d, [*lo[:j], *lo[j + 1 :]], [*hi[:j], *hi[j + 1 :]])
                out[r, :, j] = dfdx * 0.5 * df[r]


# a batch with severed inputs interpolates in fan-in groups when its slabs
# hold at least this many floats (B * N); in smaller ones the calls per
# group cost more than the corners they skip. Both give the same bits.
GROUP_FLOATS = 1 << 15


class CornerBatch:
    """The k inputs of N LUTs over B samples; node n reads x[:, inputs[n, j]].

    ``severed`` (N, k), when given, marks inputs that a node ignores: it
    reads its table at the corners whose severed bits are 0, passes those
    inputs no gradient, and its table gradient is 0 at every other corner.
    A node with every input severed outputs its constant, table[0]. A
    severed input reads an extra column of x held at -1, whose corner bit
    is 0 and whose corner weights are exactly 1 and 0.

    When every input is +/-1, ``flat`` holds the table position each node
    reads and every operation gathers or bincounts over it. Otherwise
    ``flat`` is None and the nodes interpolate over slabs of the corner
    weights lo = (1 - x)/2 and hi = (1 + x)/2, computed once for x and
    shared by the forward pass and both gradients: in one group over all k
    inputs, or, with severance from ``GROUP_FLOATS`` on, in groups of equal
    kept-input count, each over its kept inputs only.
    """

    def __init__(self, x: np.ndarray, inputs: np.ndarray,
                 severed: np.ndarray | None = None):
        x = np.asarray(x)
        self.inputs = np.asarray(inputs, dtype=np.int64)
        n_nodes, self.k = self.inputs.shape
        _check_k(self.k)
        self.b, self.n_in = x.shape
        self.kept, self.read = None, self.inputs  # every node reads all k inputs
        if severed is not None and np.any(severed):
            self.kept = ~np.asarray(severed, dtype=bool)
            x = np.concatenate([x, np.full((self.b, 1), -1, dtype=x.dtype)], axis=1)
            self.read = np.where(self.kept, self.inputs, self.n_in)
        if _at_corners(x):
            self.flat = _corner_flat(x, self.read)
            return
        self.flat = None
        x = x.astype(np.float64, copy=False)
        w = (1.0 - x) * 0.5, (1.0 + x) * 0.5
        if self.kept is None or self.b * n_nodes < GROUP_FLOATS:
            self.groups = [_Fanin(self.read)]
        else:
            fan_in = self.kept.sum(axis=1)
            term = (np.cumsum(self.kept) - 1).reshape(self.kept.shape)
            self.groups = []
            for m in np.unique(fan_in):
                rows = np.flatnonzero(fan_in == m)
                pos = np.nonzero(self.kept[rows])[1].reshape(len(rows), m)
                bit = (np.arange(2**m)[:, None] >> np.arange(m)) & 1  # (2^m, m)
                cols = (bit[:, :, None] << pos.T).sum(axis=1)
                self.groups.append(_Fanin(
                    np.take_along_axis(self.inputs[rows], pos, axis=1), rows, cols,
                    np.take_along_axis(term[rows], pos, axis=1).ravel()))
        for g in self.groups:
            g.weigh(w)

    def interpolate(self, table: np.ndarray) -> np.ndarray:
        """LUT outputs f[b, n]; shape (B, N). At corners this is the table
        entry itself, in the table's dtype."""
        if self.flat is not None:
            return np.take(table, self.flat)
        if len(self.groups) == 1:
            return self.groups[0].interpolate(table)
        f = np.empty((self.b, len(self.inputs)))
        for g in self.groups:
            f[:, g.rows] = g.interpolate(table)
        return f

    def grad_table(self, df: np.ndarray) -> np.ndarray:
        """sum_b df[b, n] * d f[b, n] / d table[d, n]; shape (2^k, N). The
        batch sum adds samples in order."""
        n = df.shape[1]
        if self.flat is not None:
            return _bincount(self.flat, df, n << self.k).reshape(2**self.k, n)
        if self.groups[0].rows is None:
            return self.groups[0].grad_table(df)
        out = np.zeros((2**self.k, n))
        for g in self.groups:
            out[g.cols, g.rows] = g.grad_table(g.columns(df))
        return out

    def grad_inputs(self, table: np.ndarray, df: np.ndarray) -> np.ndarray:
        """sum over the nodes reading x[b, i] of df * d f / d x_i; (B, n_in).
        d f / d x_j is half of table[hi_j] - table[lo_j]: at a corner, the
        slope row for the corner's index; elsewhere interpolated over the
        other inputs. One bincount adds terms in (sample, node, input)
        order; those of severed inputs go to the extra column, or, in fan-in
        groups, are not made."""
        b, n = df.shape
        read = self.read
        if self.flat is not None:
            g = np.empty((b, n, self.k))
            d = np.arange(2**self.k)
            for j in range(self.k):
                h = 1 << j
                slope = table[d | h] - table[d & ~h]  # rows d and d ^ h agree
                g[:, :, j] = np.take(slope, self.flat) * 0.5 * df
        elif self.groups[0].rows is None:
            g = np.empty((b, n, self.k))
            self.groups[0].grad_inputs(table, df, g)
        else:
            read = self.inputs[self.kept]
            g = np.empty((b, len(read)))
            one = len(self.groups) == 1  # then its terms are all, in order
            for grp in self.groups:
                out = g.reshape(b, grp.n, grp.m) if one else np.empty((b, grp.n, grp.m))
                grp.grad_inputs(grp.table(table), grp.columns(df), out)
                if not one:
                    g[:, grp.terms] = out.reshape(b, -1)
        width = self.n_in + (self.kept is not None)
        rows = np.arange(b)[:, None] * width + read.reshape(-1)
        dx = _bincount(rows, g, b * width).reshape(b, width)
        return dx if self.kept is None else np.ascontiguousarray(dx[:, : self.n_in])


def support(bits: np.ndarray, k: int) -> list[int]:
    """Boolean support of a 2^k table: the inputs whose flip changes the
    output somewhere, ascending. One fancy-index compare over the corner
    pairs of every input."""
    lo, hi = FLIP_PAIRS[k]
    bits = np.asarray(bits)
    flips = (bits[lo] != bits[hi]).reshape(k, -1).tolist()
    return [j for j, row in enumerate(flips) if any(row)]


# index arrays kept, one per (pos, flip); a full cache of 6-input ones is 512 KB
REWIRE_CACHE = 1024


@lru_cache(maxsize=REWIRE_CACHE)
def _rewire_index(pos: tuple, flip: tuple) -> np.ndarray:
    new = np.arange(2 ** (max(pos, default=-1) + 1))
    old = np.zeros_like(new)
    for j, (p, f) in enumerate(zip(pos, flip)):
        old |= (((new >> p) & 1 if p >= 0 else 0) ^ f) << j
    old.flags.writeable = False  # shared by every caller with this key
    return old


def rewire(bits: np.ndarray, k: int, pos, flip) -> np.ndarray:
    """The int8 table of a k-input LUT whose input j now reads new input
    ``pos[j]`` (a constant 0 bit when ``pos[j] < 0``) XOR ``flip[j]``: a
    cofactor, an inverted input or two inputs merged into one, or all of
    them at once, in one gather of the old table. New inputs are numbered
    0 .. max(pos); with none, the table is its one constant entry."""
    if np.shape(bits) != (2**k,) or not len(pos) == len(flip) == k:
        raise ContractError(f"a {k}-input table needs {2**k} entries, {k} positions and flips")
    return np.asarray(bits, dtype=np.int8)[_rewire_index(tuple(pos), tuple(flip))]


def project(bits: np.ndarray, k: int, keep) -> np.ndarray | int:
    """Restrict a 2^k table to the inputs in ``keep`` (in ascending order).

    Dropped inputs must be outside the Boolean support; otherwise the
    projection would be ill-defined. Returns the constant (+/-1) when keep
    is empty.
    """
    keep = set(keep)
    if not keep <= set(range(k)):
        raise ContractError("keep positions out of range")
    lost = [j for j in support(bits, k) if j not in keep]
    if lost:
        raise ContractError(f"cannot drop inputs in the support: {lost}")
    slot = {j: m for m, j in enumerate(sorted(keep))}  # dropped inputs read 0
    table = rewire(bits, k, [slot.get(j, -1) for j in range(k)], [0] * k)
    return table if keep else int(table[0])
