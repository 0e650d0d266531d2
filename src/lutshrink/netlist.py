"""Binarized netlist extraction, local logic simplification and simulation.

Wire values are +/-1 (a Verilog bit 1 means +1). Node kinds:

* ``input``  — primary input bit.
* ``const``  — fixed +/-1.
* ``lut``    — truth-table node over its fan-in wires (input 0 = LSB).
* ``sum``    — signed accumulation of +/-1 wires with an integer offset.
* ``th``     — comparator: +1 iff its sum >= tau.
* ``out``    — named output; either a bit wire or an integer score bus.

Simplification mirrors what downstream synthesis would do locally: drop
truth-table inputs outside the Boolean support, propagate constants (into
consumer tables and into sum offsets), collapse wire LUTs, and absorb
inverter LUTs into consuming tables or term signs. It is exact: the
simplified netlist computes the same function, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lutcore import project, support, table_view
from .model import Network


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
    # sum
    terms: list[tuple[int, int]] = field(default_factory=list)
    offset: int = 0
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
            terms=list(self.terms), offset=self.offset, src=self.src,
            tau=self.tau, name=self.name,
        )


@dataclass
class Netlist:
    n_inputs: int
    nodes: dict[int, Node] = field(default_factory=dict)
    order: list[int] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)
    _next: int = 0

    def add(self, kind: str, **kw) -> Node:
        node = Node(self._next, kind, **kw)
        self.nodes[node.id] = node
        self.order.append(node.id)
        self._next += 1
        return node

    def copy(self) -> Netlist:
        """A netlist sharing no mutable state with this one."""
        return Netlist(
            self.n_inputs,
            nodes={i: node.copy() for i, node in self.nodes.items()},
            order=list(self.order), outputs=list(self.outputs), _next=self._next,
        )

    def lut_nodes(self) -> list[Node]:
        return [self.nodes[i] for i in self.order if self.nodes[i].kind == "lut"]

    def total_lut_inputs(self) -> int:
        return sum(n.k for n in self.lut_nodes())


def _fold_check(net: Network) -> None:
    for lay in net.layers:
        if lay.kind == "lut" and not np.allclose(
            lay.effective_masks(), lay.masks, rtol=0, atol=1e-9
        ):
            raise NetlistError(
                f"layer {lay.name!r} has unfolded severance transforms; "
                "finalize the model before extraction"
            )


def extract_netlist(net: Network) -> Netlist:
    """Build the pre-simplification netlist of a finalized network."""
    _fold_check(net)
    nl = Netlist(n_inputs=net.layers[0].n_in)
    wires = [nl.add("input", pos=i).id for i in range(nl.n_inputs)]
    for lay in net.layers:
        if lay.kind == "dense":
            wb = np.where(lay.shadow >= 0, 1, -1) * lay.alive
            taus = None if lay.is_output else lay.bn.fold_thresholds()
            new_wires = []
            for c in range(lay.n_out):
                terms = [
                    (wires[p], int(wb[c, p]))
                    for p in range(lay.n_in)
                    if lay.alive[c, p]
                ]
                s = nl.add("sum", terms=terms, offset=0, layer=lay.name)
                if lay.is_output:
                    nl.outputs.append(
                        nl.add("out", src=s.id, name=f"score_{c}", layer=lay.name).id
                    )
                else:
                    th = nl.add("th", src=s.id, tau=int(taus[c]), layer=lay.name)
                    new_wires.append(th.id)
            wires = new_wires
        else:
            # sign of the effective masks: exactly the tables infer_bin uses
            tts = lay.truth_tables()
            taus = None if lay.is_output else lay.bn.fold_thresholds()
            chan_terms: list[list[tuple[int, int]]] = [[] for _ in range(lay.n_out)]
            for n in range(lay.n_nodes):
                keep = [j for j in range(lay.k) if not lay.pruned[n, j]]
                bits = project(tts[n], lay.k, keep)
                if not keep:
                    node = nl.add("const", value=int(bits), layer=lay.name)
                else:
                    fan = [wires[lay.inputs[n, j]] for j in keep]
                    node = nl.add("lut", bits=bits, fanin=fan, layer=lay.name)
                chan_terms[lay.channel[n]].append((node.id, 1))
            new_wires = []
            for c in range(lay.n_out):
                s = nl.add("sum", terms=chan_terms[c], offset=0, layer=lay.name)
                if lay.is_output:
                    nl.outputs.append(
                        nl.add("out", src=s.id, name=f"score_{c}", layer=lay.name).id
                    )
                else:
                    th = nl.add("th", src=s.id, tau=int(taus[c]), layer=lay.name)
                    new_wires.append(th.id)
            wires = new_wires
    return nl


# -- simplification ---------------------------------------------------------


def _is_wire(node: Node) -> bool:
    return node.kind == "lut" and node.k == 1 and node.bits[0] == -1 and node.bits[1] == 1


def _is_inverter(node: Node) -> bool:
    return node.kind == "lut" and node.k == 1 and node.bits[0] == 1 and node.bits[1] == -1


def _flip_axis(bits: np.ndarray, k: int, j: int) -> np.ndarray:
    view = table_view(bits.copy(), k)
    view[:] = np.flip(view, axis=j)
    return view.reshape(-1, order="F")


def _cofactor(bits: np.ndarray, k: int, j: int, value: int) -> np.ndarray | int:
    view = table_view(bits, k)
    view = np.take(view, 1 if value > 0 else 0, axis=j)
    if k == 1:
        return int(view)
    return np.asarray(view.reshape(-1, order="F"), dtype=np.int8)


def _resolve(nl: Netlist, wid: int, through_inverters: bool) -> tuple[int, int]:
    """Follow wire (and optionally inverter) chains; returns (id, polarity)."""
    pol = 1
    seen = 0
    while True:
        node = nl.nodes[wid]
        if _is_wire(node):
            wid = node.fanin[0]
        elif through_inverters and _is_inverter(node):
            pol = -pol
            wid = node.fanin[0]
        else:
            return wid, pol
        seen += 1
        if seen > len(nl.nodes):
            raise NetlistError("cycle detected in wire chain")


def _simplify_pass(nl: Netlist) -> bool:
    changed = False
    for nid in list(nl.order):
        node = nl.nodes[nid]
        if node.kind == "lut":
            # fold constant and inverted/aliased fan-ins into the table
            j = 0
            while j < node.k:
                src, pol = _resolve(nl, node.fanin[j], through_inverters=True)
                src_node = nl.nodes[src]
                if src_node.kind == "const":
                    res = _cofactor(node.bits, node.k, j, pol * src_node.value)
                    if isinstance(res, int):
                        node.kind, node.value, node.bits, node.fanin = (
                            "const", res, None, [])
                        changed = True
                        break
                    node.bits = res
                    node.fanin.pop(j)
                    changed = True
                    continue
                if src != node.fanin[j] or pol != 1:
                    if pol != 1:
                        node.bits = _flip_axis(node.bits, node.k, j)
                    node.fanin[j] = src
                    changed = True
                j += 1
            if node.kind != "lut":
                continue
            # merge fan-ins that now name the same wire (the table's diagonal)
            uniq = list(dict.fromkeys(node.fanin))
            if len(uniq) < node.k:
                idx = np.arange(2 ** len(uniq))
                old = sum(((idx >> uniq.index(w)) & 1) << j
                          for j, w in enumerate(node.fanin))
                node.bits = node.bits[old]
                node.fanin = uniq
                changed = True
            # drop inputs outside the Boolean support
            keep = support(node.bits, node.k)
            if len(keep) < node.k:
                res = project(node.bits, node.k, keep)
                if not keep:
                    node.kind, node.value, node.bits, node.fanin = (
                        "const", int(res), None, [])
                else:
                    node.bits = res
                    node.fanin = [node.fanin[j] for j in keep]
                changed = True
        elif node.kind == "sum":
            new_terms: list[tuple[int, int]] = []
            for wid, sign in node.terms:
                src, pol = _resolve(nl, wid, through_inverters=True)
                src_node = nl.nodes[src]
                if src_node.kind == "const":
                    node.offset += sign * pol * src_node.value
                    changed = True
                else:
                    if src != wid or pol != 1:
                        changed = True
                    new_terms.append((src, sign * pol))
            node.terms = new_terms
        elif node.kind == "th":
            s = nl.nodes[node.src]
            if s.kind == "sum" and not s.terms:
                node.kind = "const"
                node.value = 1 if s.offset >= node.tau else -1
                changed = True
        elif node.kind == "out":
            # outputs may pass through wires but keep a final inverter
            src, pol = _resolve(nl, node.src, through_inverters=False)
            if src != node.src:
                node.src = src
                changed = True
    return changed


def _garbage_collect(nl: Netlist) -> None:
    live = set()
    stack = list(nl.outputs)
    while stack:
        nid = stack.pop()
        if nid in live:
            continue
        live.add(nid)
        node = nl.nodes[nid]
        stack.extend(node.fanin)
        stack.extend(w for w, _ in node.terms)
        if node.kind in ("th", "out"):
            stack.append(node.src)
    live |= {n.id for n in nl.nodes.values() if n.kind == "input"}
    nl.order = [i for i in nl.order if i in live]
    nl.nodes = {i: nl.nodes[i] for i in nl.order}


def simplify(nl: Netlist) -> Netlist:
    """Fixpoint of support reduction, constant/wire/inverter elimination."""
    nl = nl.copy()
    while _simplify_pass(nl):
        pass
    _garbage_collect(nl)
    return nl


# -- simulation -------------------------------------------------------------


def simulate(nl: Netlist, x: np.ndarray) -> dict[str, np.ndarray]:
    """Evaluate all outputs on a batch of +/-1 input vectors.

    Returns {output name: array}; +/-1 for bit outputs, integers for score
    outputs.
    """
    x = np.atleast_2d(np.asarray(x))
    if x.shape[1] != nl.n_inputs:
        raise NetlistError(
            f"expected {nl.n_inputs} inputs, got {x.shape[1]}"
        )
    if not np.all(np.abs(x) == 1):
        raise NetlistError("simulation inputs must be +/-1")
    b = x.shape[0]
    vals: dict[int, np.ndarray] = {}
    for nid in nl.order:
        node = nl.nodes[nid]
        if node.kind == "input":
            vals[nid] = x[:, node.pos].astype(np.int64)
        elif node.kind == "const":
            vals[nid] = np.full(b, node.value, dtype=np.int64)
        elif node.kind == "lut":
            idx = np.zeros(b, dtype=np.int64)
            for j, f in enumerate(node.fanin):
                idx |= (vals[f] > 0).astype(np.int64) << j
            vals[nid] = node.bits.astype(np.int64)[idx]
        elif node.kind == "sum":
            acc = np.full(b, node.offset, dtype=np.int64)
            for wid, sign in node.terms:
                acc = acc + sign * vals[wid]
            vals[nid] = acc
        elif node.kind == "th":
            vals[nid] = np.where(vals[node.src] >= node.tau, 1, -1).astype(np.int64)
        elif node.kind == "out":
            vals[nid] = vals[node.src]
    return {nl.nodes[o].name: vals[o] for o in nl.outputs}


def classify(nl: Netlist, x: np.ndarray) -> np.ndarray:
    """Argmax over score outputs (lowest class wins ties)."""
    res = simulate(nl, x)
    names = sorted(res, key=lambda s: int(s.split("_")[-1]))
    scores = np.stack([res[n] for n in names], axis=1)
    return np.argmax(scores, axis=1)


# -- area report ------------------------------------------------------------


@dataclass
class AreaReport:
    layers: list[str]
    pre: dict[str, np.ndarray]  # layer -> counts by size class 0..6
    post: dict[str, np.ndarray]
    pre_inputs: int
    post_inputs: int

    MAX_SIZE = 6

    @property
    def pre_total(self) -> np.ndarray:
        return np.sum(list(self.pre.values()), axis=0)

    @property
    def post_total(self) -> np.ndarray:
        return np.sum(list(self.post.values()), axis=0)

    @staticmethod
    def majority_class(counts: np.ndarray) -> int:
        if counts.sum() == 0:
            return 0
        return int(np.argmax(counts))

    def mean_size(self, which: str = "pre") -> float:
        counts = self.pre_total if which == "pre" else self.post_total
        total = counts.sum()
        if total == 0:
            return 0.0
        return float((counts * np.arange(len(counts))).sum() / total)

    def to_tsv(self) -> str:
        lines = ["layer\tsize_class\tpre_count\tpost_count"]
        for layer in self.layers:
            for size in range(self.MAX_SIZE + 1):
                lines.append(
                    f"{layer}\t{size}\t{self.pre[layer][size]}\t{self.post[layer][size]}"
                )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        head = "layer      " + "".join(f"{s}-LUT".rjust(9) for s in range(self.MAX_SIZE + 1))
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
    counts: dict[str, np.ndarray] = {}
    n_inputs = 0
    for nid in nl.order:
        node = nl.nodes[nid]
        if node.kind == "lut" or (node.kind == "const" and node.layer):
            size = node.k if node.kind == "lut" else 0
            layer = node.layer
            counts.setdefault(layer, np.zeros(AreaReport.MAX_SIZE + 1, dtype=np.int64))
            counts[layer][size] += 1
            n_inputs += size
    return counts, n_inputs


def area_report(pre: Netlist, post: Netlist) -> AreaReport:
    pre_counts, pre_inputs = _count_by_size(pre)
    post_counts, post_inputs = _count_by_size(post)
    layers = sorted(set(pre_counts) | set(post_counts))
    zero = np.zeros(AreaReport.MAX_SIZE + 1, dtype=np.int64)
    return AreaReport(
        layers,
        {l: pre_counts.get(l, zero.copy()) for l in layers},
        {l: post_counts.get(l, zero.copy()) for l in layers},
        pre_inputs,
        post_inputs,
    )
