"""Binarized netlist extraction, local logic simplification and simulation.

Wire values are +/-1 (a Verilog bit 1 means +1). Node kinds:

* ``input``  — primary input bit.
* ``const``  — fixed +/-1.
* ``lut``    — truth-table node over its fan-in wires (input 0 = LSB).
* ``sum``    — signed accumulation of +/-1 wires with an integer offset.
* ``th``     — comparator: +1 iff its sum >= tau.
* ``out``    — named output; either a bit wire or an integer score bus.

Simplification mirrors what downstream synthesis would do locally. It
folds constant, inverted and repeated fan-ins into each reading table (one
``lutcore.rewire``) and constants and inverters into sum offsets and term
signs, drops table inputs outside the Boolean support, collapses wire LUTs,
and makes a threshold constant when its sum (n +/-1 terms plus offset o,
within [o - n, o + n]) never or always reaches it. It is exact, bit for
bit. Node ids are topological, and a node only rewrites itself from sources
already final, so one pass in id order is the fixpoint.

Simulation runs the netlist a level at a time, each wire a float32 row: a
table gather per LUT level, one exact BLAS product per sum level (wrapped to
the declared width the Verilog parser records), a compare per threshold
level. It shares no code with the model's inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from .lutcore import MAX_K, project, rewire, support
from .model import EXACT_SUM_LIMIT, Network


class NetlistError(RuntimeError):
    pass


@dataclass
class Node:
    id: int
    kind: str
    layer: str = ""
    # lut
    bits: np.ndarray | None = None
    fanin: list[int] = field(default_factory=list)
    # input
    pos: int = 0
    # const
    value: int = 0
    # sum; width is its declared signed width (0: none, never wraps)
    terms: list[tuple[int, int]] = field(default_factory=list)
    offset: int = 0
    width: int = 0
    # th
    src: int = 0
    tau: int = 0
    # out
    name: str = ""

    @property
    def k(self) -> int:
        return len(self.fanin)

    def copy(self) -> Node:
        """A node sharing no mutable state with this one."""
        return Node(
            self.id, self.kind, self.layer,
            bits=None if self.bits is None else self.bits.copy(),
            fanin=list(self.fanin), pos=self.pos, value=self.value,
            terms=list(self.terms), offset=self.offset, width=self.width, src=self.src,
            tau=self.tau, name=self.name,
        )


@dataclass
class Netlist:
    n_inputs: int
    nodes: dict[int, Node] = field(default_factory=dict)  # in id order
    outputs: list[int] = field(default_factory=list)
    _next: int = 0

    def add(self, kind: str, **kw) -> Node:
        node = Node(self._next, kind, **kw)
        self.nodes[node.id] = node
        self._next += 1
        return node

    def copy(self) -> Netlist:
        """A netlist sharing no mutable state with this one."""
        return Netlist(
            self.n_inputs,
            nodes={i: node.copy() for i, node in self.nodes.items()},
            outputs=list(self.outputs), _next=self._next,
        )


def extract_netlist(net: Network) -> Netlist:
    """Build the pre-simplification netlist of a network. LUTs are read
    through their effective truth tables, so severance need not be folded
    into the raw masks first."""
    nl = Netlist(n_inputs=net.layers[0].n_in)
    wires = [nl.add("input", pos=i).id for i in range(nl.n_inputs)]
    for lay in net.layers:
        # the +/-1 terms each output channel sums
        if lay.kind == "dense":
            wb = lay.weights_bin().astype(np.int64)
            chan_terms = [list(zip(map(wires.__getitem__, a.tolist()), wb[c, a].tolist()))
                          for c, a in enumerate(map(np.flatnonzero, lay.alive))]
        else:
            # sign of the effective masks: exactly the tables infer_bin uses
            tts = lay.truth_tables()
            chan_terms = [[] for _ in range(lay.n_out)]
            for n, (pruned, inputs) in enumerate(zip(lay.pruned.tolist(),
                                                     lay.inputs.tolist())):
                keep = [j for j in range(lay.k) if not pruned[j]]
                bits = project(tts[n], lay.k, keep)
                if not keep:
                    node = nl.add("const", value=int(bits), layer=lay.name)
                else:
                    fan = [wires[inputs[j]] for j in keep]
                    node = nl.add("lut", bits=bits, fanin=fan, layer=lay.name)
                chan_terms[lay.channel[n]].append((node.id, 1))
        taus = None if lay.is_output else lay.bn.fold_thresholds()
        wires = []
        for c, terms in enumerate(chan_terms):
            s = nl.add("sum", terms=terms, offset=0, layer=lay.name)
            if lay.is_output:
                nl.outputs.append(
                    nl.add("out", src=s.id, name=f"score_{c}", layer=lay.name).id
                )
            else:
                wires.append(nl.add("th", src=s.id, tau=int(taus[c]), layer=lay.name).id)
    return nl


# -- simplification ---------------------------------------------------------


def _sources(node: Node):
    """Ids of the wires a node reads."""
    if node.kind == "sum":
        return map(itemgetter(0), node.terms)
    if node.kind in ("th", "out"):
        return (node.src,)
    return node.fanin


def _image(node: Node) -> tuple[int, int, int]:
    """(source, polarity, constant value or 0) that readers of a simplified
    node see: a simplified one-input LUT is a wire or an inverter, read
    through to its fan-in, which was resolved when the LUT was simplified."""
    if node.kind == "lut" and node.k == 1:
        return node.fanin[0], int(node.bits[1]), 0
    return node.id, 1, node.value if node.kind == "const" else 0


def _simplify_lut(image: dict, node: Node) -> None:
    # read each fan-in through its image: constant, inverted and repeated
    # wires all fold into the table in one rewire
    slots: dict[int, int] = {}  # new fan-in wire -> its input position
    pos, flip = [], []
    for wid in node.fanin:
        src, pol, value = image[wid]
        pos.append(slots.setdefault(src, len(slots)) if not value else -1)
        flip.append(pol * value > 0 if value else pol < 0)  # a constant +1 is bit 1
    bits = rewire(node.bits, node.k, pos, flip)
    fanin = list(slots)
    # drop inputs outside the Boolean support
    keep = support(bits, len(fanin)) if fanin else []
    if not keep:
        node.kind, node.value, node.bits, node.fanin = "const", int(bits[0]), None, []
    elif len(keep) < len(fanin):
        node.bits, node.fanin = project(bits, len(fanin), keep), [fanin[j] for j in keep]
    else:
        node.bits, node.fanin = bits, fanin


def _simplify_node(nl: Netlist, image: dict, node: Node) -> None:
    if node.kind == "lut":
        _simplify_lut(image, node)
    elif node.kind == "sum":
        terms: list[tuple[int, int]] = []
        for wid, sign in node.terms:
            src, pol, value = image[wid]
            if value:
                node.offset += sign * pol * value
            else:
                terms.append((src, sign * pol))
        node.terms = terms
    elif node.kind == "th":
        s = nl.nodes[node.src]
        if s.kind == "sum":
            # a sum of n +/-1 terms lies in [offset - n, offset + n]
            n = len(s.terms)
            if node.tau <= s.offset - n:
                node.kind, node.value = "const", 1
            elif node.tau > s.offset + n:
                node.kind, node.value = "const", -1
    elif node.kind == "out":
        # outputs may pass through wires but keep a final inverter
        src, pol, _ = image[node.src]
        if pol == 1:
            node.src = src


def _garbage_collect(nl: Netlist) -> None:
    live = set(nl.outputs)
    for nid in reversed(nl.nodes):  # consumers before their sources
        if nid in live:
            live.update(_sources(nl.nodes[nid]))
    live |= {n.id for n in nl.nodes.values() if n.kind == "input"}
    nl.nodes = {i: node for i, node in nl.nodes.items() if i in live}


def simplify(nl: Netlist) -> Netlist:
    """Support reduction, constant/wire/inverter elimination and folding of
    unreachable thresholds, in one pass over the topological order: a node
    only rewrites itself, from sources that are already final, so the pass
    ends at the fixpoint."""
    nl = nl.copy()
    image: dict[int, tuple[int, int, int]] = {}
    for nid, node in nl.nodes.items():
        late = max(_sources(node), default=-1)
        if late >= nid:
            raise NetlistError(f"node {nid} reads node {late}, which is not "
                               "earlier; node ids must be in topological order")
        _simplify_node(nl, image, node)
        image[nid] = _image(node)
    _garbage_collect(nl)
    return nl


# -- simulation -------------------------------------------------------------


_KINDS = ("input", "const", "lut", "sum", "th")


def _levels(nl: Netlist) -> list[list[Node]]:
    """The netlist compiled into levels, in execution order. A node's depth
    is one more than its deepest source; the nodes of one depth, kind and
    fan-in form a level, which only reads levels before it."""
    depth: dict[int, int] = {}
    levels: dict[tuple, list[Node]] = {}
    for nid, node in nl.nodes.items():
        try:
            depth[nid] = 1 + max(map(depth.__getitem__, _sources(node)), default=-1)
        except KeyError as e:
            raise NetlistError(f"node {nid} reads node {e.args[0]}, which is not "
                               "earlier in the order") from None
        if node.kind != "out":
            key = (depth[nid], _KINDS.index(node.kind), node.k)
            levels.setdefault(key, []).append(node)
    return [levels[key] for key in sorted(levels)]


def _sum_level(nodes: list[Node], rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """offset + sum of sign * wire for each sum node, one float32 product of
    a +/-1 incidence matrix with the distinct source rows, wrapped to each
    sum's declared width (32 bits without one: no sum below 2^24 wraps)."""
    count = [len(node.terms) for node in nodes]
    offset = np.array([node.offset for node in nodes], dtype=np.int64)
    span = np.add(count, np.abs(offset))
    if span.max() >= EXACT_SUM_LIMIT:
        raise NetlistError(f"sum n{nodes[int(span.argmax())].id}: {span.max()} "
                           "terms plus |offset| reach 2**24, beyond exact float32")
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(
        node.terms for node in nodes)), dtype=np.int32)
    read = rows[flat[0::2]]
    used = np.zeros(len(v), dtype=bool)
    used[read] = True
    src = np.flatnonzero(used)
    cell = (np.cumsum(used) - 1)[read]  # column of each term's source
    cell += np.repeat(np.arange(len(nodes)) * len(src), count)
    incidence = np.bincount(cell, weights=flat[1::2], minlength=len(nodes) * len(src))
    acc = incidence.reshape(len(nodes), -1).astype(np.float32) @ v[src]
    half = 2.0 ** (np.array([[min(node.width or 32, 32)] for node in nodes]) - 1)
    return (acc + offset[:, None] + half) % (2 * half) - half


def simulate(nl: Netlist, x: np.ndarray) -> dict[str, np.ndarray]:
    """Evaluate all outputs on a batch of +/-1 input vectors.

    Returns {output name: array}; +/-1 for bit outputs, integers for score
    outputs. Each wire is one float32 row, written a level at a time.
    """
    x = np.atleast_2d(np.asarray(x))
    if x.shape[1] != nl.n_inputs:
        raise NetlistError(
            f"expected {nl.n_inputs} inputs, got {x.shape[1]}"
        )
    if not np.all(np.abs(x) == 1):
        raise NetlistError("simulation inputs must be +/-1")
    levels = _levels(nl)
    ids = [node.id for nodes in levels for node in nodes]
    rows = np.zeros(max(nl.nodes, default=0) + 1, dtype=np.int64)
    rows[ids] = np.arange(len(ids))
    v = np.empty((len(ids), x.shape[0]), dtype=np.float32)
    a = 0
    for nodes in levels:
        kind, b = nodes[0].kind, a + len(nodes)
        if kind == "input":
            v[a:b] = x.T[[node.pos for node in nodes]]
        elif kind == "const":
            v[a:b] = [[node.value] for node in nodes]
        elif kind == "lut":
            fanin = rows[np.array([node.fanin for node in nodes])]
            code = sum((v[fanin[:, j]] > 0) << j for j in range(nodes[0].k))
            v[a:b] = np.take_along_axis(np.array([node.bits for node in nodes]), code, 1)
        elif kind == "sum":
            v[a:b] = _sum_level(nodes, rows, v)
        else:
            srcs = rows[[node.src for node in nodes]]
            v[a:b] = np.where(v[srcs] >= [[node.tau] for node in nodes], 1, -1)
        a = b
    return {nl.nodes[o].name: v[rows[nl.nodes[o].src]].astype(np.int64)
            for o in nl.outputs}


def scores(nl: Netlist, x: np.ndarray) -> np.ndarray:
    """The score outputs as columns in class order, (B, classes)."""
    res = simulate(nl, x)
    names = sorted(res, key=lambda s: int(s.split("_")[-1]))
    return np.stack([res[n] for n in names], axis=1)


def classify(nl: Netlist, x: np.ndarray) -> np.ndarray:
    """Argmax over score outputs (lowest class wins ties)."""
    return np.argmax(scores(nl, x), axis=1)


# -- area report ------------------------------------------------------------


@dataclass
class AreaReport:
    layers: list[str]
    pre: dict[str, np.ndarray]  # layer -> counts by size class 0..MAX_K
    post: dict[str, np.ndarray]
    pre_inputs: int
    post_inputs: int
    area_terms: int  # post_inputs plus the terms of every sum after simplify

    @property
    def pre_total(self) -> np.ndarray:
        return np.sum(list(self.pre.values()), axis=0)

    @property
    def post_total(self) -> np.ndarray:
        return np.sum(list(self.post.values()), axis=0)

    def multi_input(self) -> dict[str, int]:
        """LUTs of each layer that keep 2 or more inputs after simplify."""
        return {layer: int(self.post[layer][2:].sum()) for layer in self.layers}

    @staticmethod
    def majority_class(counts: np.ndarray) -> int:
        return int(np.argmax(counts))  # ties, all-zero counts too, go to the smallest

    def to_tsv(self) -> str:
        lines = ["layer\tsize_class\tpre_count\tpost_count"]
        for layer in self.layers:
            for size in range(MAX_K + 1):
                lines.append(
                    f"{layer}\t{size}\t{self.pre[layer][size]}\t{self.post[layer][size]}"
                )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        head = "layer      " + "".join(f"{s}-LUT".rjust(9) for s in range(MAX_K + 1))
        lines = [head + "  (pre / post)"]
        for layer in self.layers:
            pre = " ".join(str(int(c)).rjust(8) for c in self.pre[layer])
            post = " ".join(str(int(c)).rjust(8) for c in self.post[layer])
            lines.append(f"{layer:<10} {pre}")
            lines.append(f"{'':<10} {post}")
        tot_pre, tot_post = self.pre_total, self.post_total
        lines.append(f"{'total':<10} " + " ".join(str(int(c)).rjust(8) for c in tot_pre))
        lines.append(f"{'':<10} " + " ".join(str(int(c)).rjust(8) for c in tot_post))
        lines.append(
            f"LUT inputs: pre {self.pre_inputs}, post {self.post_inputs}; "
            f"majority class pre {self.majority_class(tot_pre)}, "
            f"post {self.majority_class(tot_post)}"
        )
        return "\n".join(lines) + "\n"


def _count_by_size(nl: Netlist) -> tuple[dict[str, np.ndarray], int]:
    """LUT counts of each layer by size (a constant of a layer has size 0),
    and the total size."""
    sizes: dict[str, list[int]] = {}
    for node in nl.nodes.values():
        if node.kind == "lut" or (node.kind == "const" and node.layer):
            sizes.setdefault(node.layer, []).append(node.k)
    return ({layer: np.bincount(s, minlength=MAX_K + 1) for layer, s in sizes.items()},
            sum(map(sum, sizes.values())))


def area_report(pre: Netlist, post: Netlist) -> AreaReport:
    pre_counts, pre_inputs = _count_by_size(pre)
    post_counts, post_inputs = _count_by_size(post)
    layers = sorted(set(pre_counts) | set(post_counts))
    zero = np.zeros(MAX_K + 1, dtype=np.int64)
    return AreaReport(
        layers,
        {l: pre_counts.get(l, zero.copy()) for l in layers},
        {l: post_counts.get(l, zero.copy()) for l in layers},
        pre_inputs,
        post_inputs,
        post_inputs + sum(len(n.terms) for n in post.nodes.values() if n.kind == "sum"),
    )
