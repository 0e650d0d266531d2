"""Structural Verilog emission and a parser for the emitted subset.

Encoding: a wire bit 1 means +1 and 0 means -1. Truth-table nodes become
sum-of-products assigns (minterms in index order, no two-level
minimization). Accumulations become balanced binary adder trees over signed
literals of width ceil(log2(range))+1, thresholds become signed compares.
Emission order is the netlist's topological order, so output text is
byte-stable for a given netlist.

The parser understands exactly this subset; it exists so emitted text can be
re-simulated and checked for equivalence without any vendor tool. It reads
literals as a Verilog tool does: ``W'sdV`` is V truncated to W bits and
sign-extended, before any unary minus, and each sum keeps its declared
width, at which the simulator wraps it. The emitter refuses a literal whose
magnitude does not fit its signed width. A sum is split on its leaves, and
the text between them must reduce to one leaf.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .netlist import Netlist, NetlistError, Node


def _sum_width(node: Node) -> int:
    span = len(node.terms) + abs(node.offset)
    return max(1, math.floor(math.log2(max(span, 1)))) + 2


def _wire(nid: int) -> str:
    return f"n{nid}"


def _lut_expr(node: Node, names: dict[int, str]) -> str:
    k = node.k
    lits = [names[f] for f in node.fanin]
    minterms = []
    for idx in range(2**k):
        if node.bits[idx] > 0:
            parts = [
                lits[j] if (idx >> j) & 1 else f"~{lits[j]}" for j in range(k)
            ]
            minterms.append("(" + " & ".join(parts) + ")" if k > 1 else parts[0])
    if not minterms:
        return "1'b0"
    if len(minterms) == 2**k:
        return "1'b1"
    return " | ".join(minterms)


def _tree(leaves: list[str]) -> str:
    if len(leaves) == 1:
        return leaves[0]
    mid = (len(leaves) + 1) // 2
    return f"({_tree(leaves[:mid])} + {_tree(leaves[mid:])})"


def _lit(value: int, width: int, name: str) -> str:
    """``value`` as a signed literal of ``width`` bits, written as a minus
    and a magnitude; the magnitude must read back as itself at that width."""
    if abs(value) >= 1 << (width - 1):
        raise NetlistError(
            f"{name}: literal {value} does not fit signed width {width}")
    return f"{'-' if value < 0 else ''}{width}'sd{abs(value)}"


def _decl(node: Node) -> str:
    """Declaration of the wire node drives: signed at its width for a sum."""
    return f"wire signed [{_sum_width(node) - 1}:0]" if node.kind == "sum" else "wire"


def _sum_expr(node: Node, names: dict[int, str]) -> str:
    width = _sum_width(node)
    one = _lit(1, width, _wire(node.id))
    branches = {1: f"{one} : -{one}", -1: f"-{one} : {one}"}  # by term sign
    leaves = [f"({names[wid]} ? {branches[sign]})" for wid, sign in node.terms]
    if node.offset or not leaves:
        leaves.append(_lit(node.offset, width, _wire(node.id)))
    return _tree(leaves)


def emit_verilog(nl: Netlist, top_name: str = "top") -> str:
    """Single self-contained structural module for a (simplified) netlist."""
    ports = [f"    input wire [{nl.n_inputs - 1}:0] in"]
    for oid in nl.outputs:
        out = nl.nodes[oid]
        ports.append(f"    output {_decl(nl.nodes[out.src])} {out.name}")
    lines = [f"module {top_name} (", ",\n".join(ports), ");"]

    names: dict[int, str] = {}
    for nid in sorted(nl.order):  # ids are assigned in topological order
        node = nl.nodes[nid]
        name = names[nid] = f"in[{node.pos}]" if node.kind == "input" else _wire(nid)
        if node.kind in ("input", "out"):
            continue
        if node.kind == "const":
            expr = f"1'b{1 if node.value > 0 else 0}"
        elif node.kind == "lut":
            if len(set(node.fanin)) != node.k:
                raise NetlistError(
                    f"LUT {name} reads one wire twice in fan-in {node.fanin}; "
                    "the parser would re-read it with a smaller k"
                )
            expr = _lut_expr(node, names)
        elif node.kind == "sum":
            expr = _sum_expr(node, names)
        elif node.kind == "th":
            src = nl.nodes[node.src]
            if src.kind != "sum":
                raise NetlistError(f"threshold {name} compares node {src.id} of "
                                   f"kind {src.kind!r}; only a sum can be compared")
            expr = f"({names[src.id]} >= {_lit(node.tau, _sum_width(src), name)})"
        else:
            raise NetlistError(f"cannot emit node kind {node.kind!r}")
        lines += [f"  {_decl(node)} {name};", f"  assign {name} = {expr};"]
    for oid in nl.outputs:
        out = nl.nodes[oid]
        lines.append(f"  assign {out.name} = {names[out.src]};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


# -- parser for the emitted subset -------------------------------------------

_LIT = r"-?[1-9]\d*'sd\d+"
_RE_CONST = re.compile(r"^1'b([01])$")
_RE_TH = re.compile(rf"^\((\w+) >= ({_LIT})\)$")
_RE_LUT_LIT = re.compile(r"^~?(?:n\d+|in\[\d+\])$")
_RE_LIT = re.compile(_LIT)
# a sum leaf: a term (w ? a : b), captured as w and "a : b", or a literal
_RE_SUM_LEAF = re.compile(rf"\((\w+(?:\[\d+\])?) \? ({_LIT} : {_LIT})\)|({_LIT})")
_RE_SIGNED_WIRE = re.compile(r"wire signed \[(\d+):0\] (\w+);")


def _wrap(value: int, width: int) -> int:
    """``value`` as a ``width``-bit two's complement number."""
    half = 1 << (width - 1)
    return ((value + half) & (2 * half - 1)) - half


def _lit_value(lit: str) -> tuple[int, int]:
    """(value, width) of a literal such as -9'sd3, read as Verilog does: the
    digits truncated to the width and sign-extended, then any minus."""
    width, _, digits = lit.lstrip("-").partition("'sd")
    value = _wrap(int(digits), int(width))
    return (-value if lit[0] == "-" else value), int(width)


def _parse_sum(expr: str):
    """Balanced adder tree -> (terms, offset), terms in left-to-right leaf
    order.

    Grammar: ``e := leaf | "(" e ")" | "(" e " + " e ")"``. A leaf is a
    literal, or ``(w ? a : b)``: the term +w when a = 1 and b = -1, -w when
    a = -1 and b = 1. The expression is split on its leaves, and what lies
    between them must reduce to one leaf ``L`` by rewriting ``(L + L)`` and
    ``(L)`` to ``L``.
    """
    parts = _RE_SUM_LEAF.split(expr)
    skeleton = "L".join(parts[::4])
    # an "L" in the text itself would pass for a leaf
    ok = skeleton.count("L") == len(parts) // 4
    while ok and skeleton != "L":
        reduced = skeleton.replace("(L + L)", "L").replace("(L)", "L")
        ok, skeleton = reduced != skeleton, reduced
    if not ok:
        raise NetlistError(f"cannot parse sum expression: {expr!r}")
    wires, branches, lits = parts[1::4], parts[2::4], parts[3::4]
    sign_of = {}  # the sign of each distinct "a : b"
    for ab in set(filter(None, branches)):
        a, _, b = ab.partition(" : ")
        sign = _lit_value(a)[0]
        if sign not in (1, -1) or _lit_value(b)[0] != -sign:
            raise NetlistError(f"cannot parse sum expression: {expr!r}")
        sign_of[ab] = sign
    terms = list(zip(filter(None, wires), map(sign_of.__getitem__, filter(None, branches))))
    return terms, sum(_lit_value(lit)[0] for lit in filter(None, lits))


def _parse_lut(lhs: str, expr: str):
    """SOP over bit wires -> (fanin names in input order, table bits); a
    bare wire name is a one-input wire LUT."""
    fanin: list[str] = []
    minterm_lits: list[list[tuple[str, bool]]] = []
    for term in expr.split("|"):
        term = term.strip()
        if term.startswith("(") and term.endswith(")"):
            term = term[1:-1]
        lits = []
        for lit in term.split("&"):
            lit = lit.strip()
            if not _RE_LUT_LIT.match(lit):
                raise NetlistError(f"assign {lhs}: malformed LUT expression {expr!r}")
            neg = lit.startswith("~")
            name = lit[1:] if neg else lit
            if name not in fanin:
                fanin.append(name)
            lits.append((name, neg))
        minterm_lits.append(lits)
    k = len(fanin)
    bits = -np.ones(2**k, dtype=np.int8)
    for idx in range(2**k):
        assign = {name: bool((idx >> j) & 1) for j, name in enumerate(fanin)}
        for lits in minterm_lits:
            if all(assign[name] != neg for name, neg in lits):
                bits[idx] = 1
                break
    return fanin, bits


class _Wires(dict):
    """Wire name -> node id; reading a name not yet assigned is an error."""

    def __missing__(self, name: str):
        raise NetlistError(f"use of undefined wire {name!r}")


def parse_verilog(text: str) -> Netlist:
    """Rebuild a simulatable netlist from text produced by emit_verilog."""
    m = re.search(r"input wire \[(\d+):0\] in", text)
    if not m:
        raise NetlistError("no input port found")
    n_inputs = int(m.group(1)) + 1
    out_names = set(re.findall(r"output wire (?:signed \[\d+:0\] )?(\w+)", text))
    widths = {name: int(msb) + 1 for msb, name in _RE_SIGNED_WIRE.findall(text)}

    nl = Netlist(n_inputs=n_inputs)
    by_name = _Wires((f"in[{i}]", nl.add("input", pos=i).id) for i in range(n_inputs))
    for lhs, rhs in re.findall(r"assign (\S+) = (.+);", text):
        rhs = rhs.strip()
        if lhs in out_names and rhs in by_name:  # an output aliasing a wire
            nid = by_name[rhs]
        elif mc := _RE_CONST.match(rhs):
            nid = nl.add("const", value=1 if mc.group(1) == "1" else -1).id
        elif mt := _RE_TH.match(rhs):
            src = nl.nodes[by_name[mt.group(1)]]
            tau, w = _lit_value(mt.group(2))
            if src.width:  # the compare runs at the wider of the two widths
                tau = _wrap(tau, max(w, src.width))
            nid = nl.add("th", src=src.id, tau=tau).id
        elif "?" in rhs or _RE_LIT.search(rhs):
            if lhs not in widths:
                raise NetlistError(f"sum {lhs} has no signed width declaration")
            terms, offset = _parse_sum(rhs)
            terms = [(by_name[n], s) for n, s in terms]
            nid = nl.add("sum", terms=terms, offset=offset, width=widths[lhs]).id
        else:
            fanin, bits = _parse_lut(lhs, rhs)
            nid = nl.add("lut", bits=bits, fanin=[by_name[n] for n in fanin]).id
        if lhs in out_names:
            nl.outputs.append(nl.add("out", src=nid, name=lhs).id)
        else:
            by_name[lhs] = nid
    return nl
