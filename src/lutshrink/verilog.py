"""Structural Verilog emission and a parser for the emitted subset.

Encoding: a wire bit 1 means +1 and 0 means -1. Truth-table nodes become
sum-of-products assigns (minterms in index order, no two-level
minimization). Accumulations become balanced binary adder trees over signed
literals of width ceil(log2(range))+1, thresholds become signed compares.
Emission order is the netlist's topological order, so output text is
byte-stable for a given netlist.

The parser understands exactly this subset; it exists so emitted text can be
re-simulated and checked for equivalence without any vendor tool.
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


def _sum_expr(node: Node, names: dict[int, str], width: int) -> str:
    one = f"{width}'sd1"
    leaves = []
    for wid, sign in node.terms:
        w = names[wid]
        if sign > 0:
            leaves.append(f"({w} ? {one} : -{one})")
        else:
            leaves.append(f"({w} ? -{one} : {one})")
    if node.offset:
        mag = abs(node.offset)
        leaves.append(f"{'-' if node.offset < 0 else ''}{width}'sd{mag}")
    if not leaves:
        return f"{width}'sd0"
    return _tree(leaves)


def emit_verilog(nl: Netlist, top_name: str = "top") -> str:
    """Single self-contained structural module for a (simplified) netlist."""
    names: dict[int, str] = {}
    sum_width: dict[int, int] = {}
    ports = [f"    input wire [{nl.n_inputs - 1}:0] in"]
    for oid in nl.outputs:
        out = nl.nodes[oid]
        src = nl.nodes[out.src]
        if src.kind == "sum":
            w = _sum_width(src)
            ports.append(f"    output wire signed [{w - 1}:0] {out.name}")
        else:
            ports.append(f"    output wire {out.name}")
    lines = [f"module {top_name} (", ",\n".join(ports), ");"]

    order = sorted(nl.order)  # ids are assigned in topological order
    for nid in order:
        node = nl.nodes[nid]
        if node.kind == "input":
            names[nid] = f"in[{node.pos}]"
    for nid in order:
        node = nl.nodes[nid]
        if node.kind in ("input", "out"):
            continue
        name = _wire(nid)
        names[nid] = name
        if node.kind == "const":
            lines.append(f"  wire {name};")
            lines.append(f"  assign {name} = 1'b{1 if node.value > 0 else 0};")
        elif node.kind == "lut":
            if len(set(node.fanin)) != node.k:
                raise NetlistError(
                    f"LUT {name} reads one wire twice in fan-in {node.fanin}; "
                    "the parser would re-read it with a smaller k"
                )
            lines.append(f"  wire {name};")
            lines.append(f"  assign {name} = {_lut_expr(node, names)};")
        elif node.kind == "sum":
            w = _sum_width(node)
            sum_width[nid] = w
            lines.append(f"  wire signed [{w - 1}:0] {name};")
            lines.append(f"  assign {name} = {_sum_expr(node, names, w)};")
        elif node.kind == "th":
            w = sum_width[node.src]
            tau = node.tau
            lit = f"{'-' if tau < 0 else ''}{w}'sd{abs(tau)}"
            lines.append(f"  wire {name};")
            lines.append(f"  assign {name} = ({names[node.src]} >= {lit});")
        else:
            raise NetlistError(f"cannot emit node kind {node.kind!r}")
    for oid in nl.outputs:
        out = nl.nodes[oid]
        lines.append(f"  assign {out.name} = {names[out.src]};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


# -- parser for the emitted subset -------------------------------------------

_RE_CONST = re.compile(r"^1'b([01])$")
_RE_TH = re.compile(r"^\((\w+) >= (-?)(\d+)'sd(\d+)\)$")
_RE_LUT_LIT = re.compile(r"^~?(?:n\d+|in\[\d+\])$")
_RE_LIT = re.compile(r"(-?)(\d+)'sd(\d+)")


_RE_SUM_TOKEN = re.compile(
    r"\s*(?:"
    r"\(\s*(?P<cond>\w+(?:\[\d+\])?)\s*\?\s*(?P<a>-?\d+'sd\d+)\s*:"
    r"\s*(?P<b>-?\d+'sd\d+)\s*\)"  # ternary leaf (w ? a : b)
    r"|(?P<lit>-?\d+'sd\d+)"
    r"|(?P<op>[()+])"
    r"|(?P<bad>\S)"
    r")"
)


def _lit_value(lit: str) -> int:
    """Signed value of a literal such as -9'sd3; the width is not applied."""
    value = int(lit.partition("'sd")[2])
    return -value if lit[0] == "-" else value


def _parse_sum(expr: str):
    """One pass over the balanced adder tree -> (terms, offset).

    Grammar: ``e := leaf | lit | "(" e ")" | "(" e " + " e ")"``, where a
    leaf ``(w ? a : b)`` is the term +w when a = 1 and b = -1, or -w when
    a = -1 and b = 1. Terms come out in left-to-right leaf order. ``open_``
    holds one flag per unclosed parenthesis: whether its "+" was read.
    """
    terms: list[tuple[str, int]] = []
    offset = 0
    open_: list[bool] = []
    want_operand = True
    for cond, a, b, lit, op, _bad in _RE_SUM_TOKEN.findall(expr):
        if want_operand:
            if cond:
                sign = _lit_value(a)
                if sign not in (1, -1) or _lit_value(b) != -sign:
                    break
                terms.append((cond, sign))
            elif lit:
                offset += _lit_value(lit)
            elif op == "(":
                open_.append(False)
                continue
            else:
                break
            want_operand = False
        elif op == "+" and open_ and not open_[-1]:
            open_[-1] = True
            want_operand = True
        elif op == ")" and open_:
            open_.pop()
        else:
            break
    else:
        if not want_operand and not open_:
            return terms, offset
    raise NetlistError(f"cannot parse sum expression: {expr!r}")


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


def parse_verilog(text: str) -> Netlist:
    """Rebuild a simulatable netlist from text produced by emit_verilog."""
    m = re.search(r"input wire \[(\d+):0\] in", text)
    if not m:
        raise NetlistError("no input port found")
    n_inputs = int(m.group(1)) + 1
    out_names = re.findall(r"output wire (?:signed \[\d+:0\] )?(\w+)", text)

    nl = Netlist(n_inputs=n_inputs)
    by_name: dict[str, int] = {}
    for i in range(n_inputs):
        node = nl.add("input", pos=i)
        by_name[f"in[{i}]"] = node.id

    def resolve(name: str) -> int:
        if name not in by_name:
            raise NetlistError(f"use of undefined wire {name!r}")
        return by_name[name]

    assigns = re.findall(r"assign (\S+) = (.+);", text)
    for lhs, rhs in assigns:
        rhs = rhs.strip()
        if lhs in out_names:
            if rhs in by_name:
                src = by_name[rhs]
            else:
                mc = _RE_CONST.match(rhs)
                if not mc:
                    raise NetlistError(f"unparseable output assign: {rhs!r}")
                src = nl.add("const", value=1 if mc.group(1) == "1" else -1).id
            nl.outputs.append(nl.add("out", src=src, name=lhs).id)
            continue
        mc = _RE_CONST.match(rhs)
        if mc:
            node = nl.add("const", value=1 if mc.group(1) == "1" else -1)
            by_name[lhs] = node.id
            continue
        mt = _RE_TH.match(rhs)
        if mt:
            tau = int(mt.group(4))
            if mt.group(2) == "-":
                tau = -tau
            node = nl.add("th", src=resolve(mt.group(1)), tau=tau)
            by_name[lhs] = node.id
            continue
        if "?" in rhs or _RE_LIT.search(rhs):
            terms, offset = _parse_sum(rhs)
            node = nl.add(
                "sum",
                terms=[(resolve(n), s) for n, s in terms],
                offset=offset,
            )
            by_name[lhs] = node.id
            continue
        fanin, bits = _parse_lut(lhs, rhs)
        node = nl.add("lut", bits=bits, fanin=[resolve(n) for n in fanin])
        by_name[lhs] = node.id
    return nl
