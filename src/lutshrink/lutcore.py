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
* Interpolating path, otherwise: input j of every node over a block of
  rows is one contiguous (rows, N) slab of corner weights, and the forward
  pass halves the table per input, t <- t[0::2] * (1 - x_j)/2 + t[1::2] *
  (1 + x_j)/2 (rows 2i and 2i+1 differ only in the lowest input). At
  x_j = +/-1 the weights are exactly 1 and 0, so f(a) == c[index(a)] holds
  bit for bit (lo + (hi - lo) * t would round).

Every pass works in row blocks of about ``STEP_FLOATS`` floats per
temporary. Besides its (B, N) output (and, at corners, the (B, N) flat
index), a pass holds the (B, n_in) corner weights of x and one block's
working set: the forward pass the slabs of one input at a time, gathered
as the halving reaches that input, and its halving temporaries; the
backward pass the block's slabs of every input, its (2^m, rows, N)
table-gradient basis and its (rows, N * k) input-gradient terms and their
bins. So memory grows with the block, not with 2^k * B * N. The backward
pass is one pass per block: it gathers the block's slabs once, adds the
block's basis to the running table gradient, and bincounts the block's
input terms into its own rows of dx. No pass keeps anything for another,
so a batch's two passes run in any order, any number of times. The
running sum rides in as the first row of the next block's basis, so the
samples are still added in order, and the block size changes no bit.

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
ascending for a table entry, (node, input) ascending for an input.

What a batch reads is split by what it depends on. A ``Wiring``, built
from a layer's inputs and severed mask, holds what follows from them
alone: the column each (node, input) reads, the kept inputs, the fan-in
groups (built on the first batch that interpolates in them), one
input-gradient bin template that each row block slices, and the pair and
slope index tables. A layer builds it once per severance. A
``CornerBatch(x, wiring)`` holds what follows from x: the corner index or
the corner weights, the row blocks and whether to group, which read
``STEP_FLOATS``, ``GROUP_FLOATS`` and ``_at_corners`` at call time. One
LUT at one point is a batch of one:
``CornerBatch(x[None], Wiring(k, np.arange(k)[None]))``.

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


# rows per block: every pass works on one block of rows at a time, sized so
# that its largest temporary holds about this many floats (512 KB, so it
# stays in cache). Interpolating, that is the first halving of every group
# together, (2^(m-1), rows, N_g) each; the block's slabs and table-gradient
# basis are small multiples of it. At corners it is the (rows, N, k)
# input-gradient terms.
STEP_FLOATS = 1 << 16


def _blocks(b: int, floats_per_row: int) -> list[slice]:
    """Row blocks of a batch of b samples; one empty block when b is 0."""
    rows = max(1, STEP_FLOATS // max(floats_per_row, 1))
    return [slice(r, r + rows) for r in range(0, max(b, 1), rows)]


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
    """LUTs of a ``Wiring`` interpolated over m inputs each, ``inputs``
    (N_g, m) columns of x: all N nodes over all k inputs when ``rows`` is
    None, else the nodes ``rows`` that keep m inputs, over those alone.
    Node rows[i] then reads its table at the flat positions ``at[:, i]`` of
    the (2^k, N) table, the corners whose severed bits are 0, and its input
    j is term ``terms[i * m + j]`` of the kept inputs in (node, input)
    order. A group depends on the wiring alone: a batch passes in its
    (B, n_in) corner weights ``w`` = (lo, hi) of x, which the slabs of each
    block are gathered from."""

    def __init__(self, inputs: np.ndarray, rows=None, at=None, terms=None):
        self.inputs, self.rows, self.at, self.terms = inputs, rows, at, terms
        self.n, self.m = inputs.shape

    def slabs(self, w, r: slice) -> np.ndarray:
        """Input j of every node over the samples r as contiguous slabs of
        corner weights: lo, hi = out[0, j], out[1, j], (rows, N_g) each."""
        w = [wx[r] for wx in w]
        out = np.empty((2, self.m, len(w[0]), self.n))
        for wx, slabs in zip(w, out):
            for j in range(self.m):
                # mode="clip" writes straight into out; the default buffers it
                wx.take(self.inputs[:, j], axis=1, out=slabs[j], mode="clip")
        return out

    def each_slab(self, wx: np.ndarray, r: slice):
        """The slabs of ``slabs`` of one corner weight wx (lo or hi) over
        the samples r, input by input, each gathered when it is asked for
        into one (rows, N_g) buffer: a slab is read before the next."""
        wx = wx[r]
        slab = np.empty((len(wx), self.n))
        for j in range(self.m):
            wx.take(self.inputs[:, j], axis=1, out=slab, mode="clip")
            yield slab

    def columns(self, a: np.ndarray) -> np.ndarray:
        """The group's columns of a (B, N) array, C-contiguous (a[:, rows]
        would lay them out transposed)."""
        return a if self.rows is None else a.take(self.rows, axis=1)

    def table(self, table: np.ndarray) -> np.ndarray:
        """The group's own (2^m, N_g) table."""
        return table if self.rows is None else table.take(self.at)

    def pairs(self, t: np.ndarray) -> list[np.ndarray]:
        """Per input j, the (2^(m-1), N_g) differences t[hi_j] - t[lo_j]:
        one gather of the pairs ``FLIP_PAIRS[m]`` of every input."""
        if not self.m:
            return []
        lo, hi = FLIP_PAIRS[self.m]
        return np.split(t[hi] - t[lo], self.m)

    def grad_table(self, df: np.ndarray, slabs: np.ndarray, carry) -> np.ndarray:
        """The running (2^m, N_g) table gradient after one block: the
        block's corner weights times df, summed over its samples in order
        after ``carry``, the sum of the blocks before (None on the first,
        so that its sum is the one numpy would start)."""
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

    def grad_inputs(self, pairs, df: np.ndarray, slabs: np.ndarray,
                    out: np.ndarray) -> None:
        """d f / d x of every input, times df, of one block into out
        (rows, N_g, m): pair difference j interpolated over the other
        inputs."""
        lo, hi = slabs
        for j, d in enumerate(pairs):
            dfdx = _halve(d, [*lo[:j], *lo[j + 1 :]], [*hi[:j], *hi[j + 1 :]])
            out[:, :, j] = dfdx * 0.5 * df


class Wiring:
    """How N k-LUTs read n_in inputs: node n reads column ``inputs[n, j]``
    of x as its input j, except those ``severed`` (N, k) marks, which it
    ignores. Everything here follows from those arrays alone, so a layer
    builds its wiring once per severance and every ``CornerBatch`` shares
    it:

    * ``read``, the column each (node, input) reads, where a severed input
      reads the extra column n_in that a batch holds at -1, and ``kept``,
      the inputs not severed (None when none is);
    * the fan-in groups of ``groups(True)``, built on the first call that
      interpolates in them;
    * the bins of the input-gradient terms: one template per term layout,
      sized for the largest row block asked for, which smaller blocks
      slice;
    * ``slopes``, the (k, 2^k) corner index pairs d & ~2^j and d | 2^j of
      the slope rows; each fan-in group reads its pairs from
      ``FLIP_PAIRS``.
    """

    def __init__(self, n_in: int, inputs: np.ndarray,
                 severed: np.ndarray | None = None):
        self.inputs = np.asarray(inputs, dtype=np.int64)
        self.k = self.inputs.shape[1]
        _check_k(self.k)
        self.n_in = n_in
        self.kept, self.read = None, self.inputs  # every node reads all k inputs
        if severed is not None and np.any(severed):
            self.kept = ~np.asarray(severed, dtype=bool)
            self.read = np.where(self.kept, self.inputs, n_in)
        self.width = n_in + (self.kept is not None)  # columns read, the extra one included
        self.whole = [_Fanin(self.read)]
        self._fanin = None
        self._bins = {}  # grouped -> template
        d, h = np.arange(2**self.k), 1 << np.arange(self.k)[:, None]
        self.slopes = d & ~h, d | h  # rows d and d ^ h agree

    def groups(self, grouped: bool) -> list[_Fanin]:
        """One group of every node over all k inputs, or, ``grouped`` (which
        needs severance), groups of equal kept-input count, each over its
        kept inputs."""
        if not grouped:
            return self.whole
        if self._fanin is None:
            n_nodes = len(self.inputs)
            fan_in = self.kept.sum(axis=1)
            term = (np.cumsum(self.kept) - 1).reshape(self.kept.shape)
            self._fanin = []
            for m in np.unique(fan_in):
                rows = np.flatnonzero(fan_in == m)
                pos = np.nonzero(self.kept[rows])[1].reshape(len(rows), m)
                bit = (np.arange(2**m)[:, None] >> np.arange(m)) & 1  # (2^m, m)
                cols = (bit[:, :, None] << pos.T).sum(axis=1)
                self._fanin.append(_Fanin(
                    np.take_along_axis(self.inputs[rows], pos, axis=1), rows,
                    cols * n_nodes + rows,
                    np.take_along_axis(term[rows], pos, axis=1).ravel()))
        return self._fanin

    def bins(self, rows: int, grouped: bool) -> np.ndarray:
        """Bins of the input-gradient terms of ``rows`` samples: term t of
        row i, which reads column c[t] of x, goes to bin i * width + c[t].
        c is ``read`` over every (node, input), or, ``grouped``, the
        columns of the kept inputs alone, in (node, input) order."""
        t = self._bins.get(grouped)
        if t is None or len(t) < rows:
            c = self.inputs[self.kept] if grouped else self.read.reshape(-1)
            t = self._bins[grouped] = np.arange(rows)[:, None] * self.width + c
        return t[:rows]


class _InputGrad:
    """The input gradient dx (B, n_in) of a ``CornerBatch``, filled block
    by block: a block's terms (rows, T) go into that block's rows of dx by
    one bincount over the wiring's bins, which adds each sample's terms in
    order."""

    def __init__(self, batch: CornerBatch, grouped: bool):
        wiring = batch.wiring
        self.n_in, self.width = wiring.n_in, wiring.width
        self.dx = np.empty((batch.b, self.n_in))
        self.bins = wiring.bins(min(batch.blocks[0].stop, batch.b), grouped)

    def terms(self, rows: int) -> np.ndarray:
        return np.empty((rows, self.bins.shape[1]))

    def add(self, r: slice, terms: np.ndarray) -> None:
        n = len(terms)
        total = _bincount(self.bins[:n], terms, n * self.width)
        self.dx[r] = total.reshape(n, self.width)[:, : self.n_in]


# a batch with severed inputs interpolates in fan-in groups when its slabs
# hold at least this many floats (B * N); in smaller ones the calls per
# group cost more than the corners they skip. Both give the same bits.
GROUP_FLOATS = 1 << 15


class CornerBatch:
    """The k inputs of N LUTs over B samples, as ``wiring`` reads them from
    x (B, n_in).

    A node reads its table at the corners whose severed bits are 0, passes
    its severed inputs no gradient, and its table gradient is 0 at every
    other corner. A node with every input severed outputs its constant,
    table[0]. A severed input reads an extra column of x held at -1, whose
    corner bit is 0 and whose corner weights are exactly 1 and 0.

    When every input is +/-1, ``flat`` holds the table position each node
    reads and every operation gathers or bincounts over it. Otherwise
    ``flat`` is None and the nodes interpolate over slabs of the corner
    weights lo = (1 - x)/2 and hi = (1 + x)/2 of x: in one group over all
    k inputs, or, with severance from ``GROUP_FLOATS`` on, in the wiring's
    fan-in groups, each over its kept inputs only.

    Every pass runs over the row blocks ``blocks`` (``STEP_FLOATS``). Apart
    from its (B, N) output and index and the (B, n_in) corner weights of
    x, a pass holds one block's table-gradient basis and input terms, which
    each block builds for itself, and its slabs: the forward pass gathers
    those one input at a time, as the halving reaches that input, and the
    backward pass a block's all at once.
    """

    def __init__(self, x: np.ndarray, wiring: Wiring):
        x = np.asarray(x)
        self.wiring = wiring
        self.b, n_in = x.shape
        if n_in != wiring.n_in:
            raise ContractError(f"the LUTs read {wiring.n_in} inputs, x has {n_in}")
        self.n, k = wiring.read.shape
        if wiring.kept is not None:
            x = np.concatenate([x, np.full((self.b, 1), -1, dtype=x.dtype)], axis=1)
        if _at_corners(x):
            self.flat = _corner_flat(x, wiring.read)
            self.blocks = _blocks(self.b, self.n * k)
            return
        self.flat = None
        x = x.astype(np.float64, copy=False)
        self.w = (1.0 - x) * 0.5, (1.0 + x) * 0.5
        grouped = wiring.kept is not None and self.b * self.n >= GROUP_FLOATS
        self.groups = wiring.groups(grouped)
        self.blocks = _blocks(self.b, sum(g.n << max(g.m - 1, 0) for g in self.groups))

    def interpolate(self, table: np.ndarray) -> np.ndarray:
        """LUT outputs f[b, n]; shape (B, N). At corners this is the table
        entry itself, in the table's dtype. Each input's slabs are gathered
        as the halving reaches that input."""
        if self.flat is not None:
            return table.take(self.flat)
        tables = [g.table(table) for g in self.groups]
        f = np.empty((self.b, self.n))
        for r in self.blocks:
            for g, t in zip(self.groups, tables):
                lo, hi = (g.each_slab(wx, r) for wx in self.w)
                if g.rows is None:
                    f[r] = _halve(t, lo, hi)
                else:  # a node that keeps no input broadcasts its constant
                    f[r, g.rows] = _halve(t, lo, hi)
        return f

    def backward(self, table: np.ndarray, df: np.ndarray,
                 need_dx: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """Gradients of sum(df * f). The table's, sum_b df[b, n] * d f[b, n]
        / d table[d, n], (2^k, N), adds the samples in order. The inputs',
        when ``need_dx`` (else None), is the sum over the nodes reading
        x[b, i] of df * d f / d x_i, (B, n_in). d f / d x_j is half of
        table[hi_j] - table[lo_j]: at a corner, the slope row for the
        corner's index; elsewhere interpolated over the other inputs. Each
        block adds its terms to its own rows of dx by one bincount, in
        (node, input) order; those of severed inputs go to the extra
        column, or, in fan-in groups, are not made."""
        if self.flat is not None:
            return self._corner_backward(table, df, need_dx)
        whole = self.groups[0].rows is None  # one group over all k inputs
        tables = [g.table(table) for g in self.groups]
        pairs = [g.pairs(t) for g, t in zip(self.groups, tables)] if need_dx else None
        sums = [None] * len(self.groups)
        dx = _InputGrad(self, not whole) if need_dx else None
        in_order = len(self.groups) == 1  # then its terms are all, in order
        for r in self.blocks:
            dfr = df[r]
            terms = dx.terms(len(dfr)) if need_dx else None
            for i, g in enumerate(self.groups):
                s, dfg = g.slabs(self.w, r), g.columns(dfr)
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
            dtable = np.zeros((2**self.wiring.k, df.shape[1]))
            for g, s in zip(self.groups, sums):
                dtable.put(g.at, s)
        return dtable, dx.dx if need_dx else None

    def _corner_backward(self, table, df, need_dx):
        """``backward`` at corners: gathers of slope rows and bincounts."""
        n, k = df.shape[1], self.wiring.k
        dtable = _bincount(self.flat, df, n << k).reshape(2**k, n)
        if not need_dx:
            return dtable, None
        lo, hi = self.wiring.slopes
        slopes = table[hi] - table[lo]  # (k, 2^k, N)
        dx = _InputGrad(self, False)
        for r in self.blocks:
            flat, dfr = self.flat[r], df[r]
            terms = dx.terms(len(dfr)).reshape(len(dfr), n, k)
            for j, slope in enumerate(slopes):
                terms[:, :, j] = slope.take(flat) * 0.5 * dfr
            dx.add(r, terms)
        return dtable, dx.dx


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
