"""Structural Verilog emission and a parser for the emitted subset.

Encoding: a wire bit 1 means +1 and 0 means -1. A k-input LUT is one
2^k-bit constant, as an FPGA LUT's INIT, and one bit-select of it::

    localparam [7:0] Tn46 = 8'h96;
    wire n46;
    assign n46 = Tn46[{n30, n18, in[2]}];

Bit i of the constant is the output at corner i; the index concatenates
the fan-in with input 0 last, as the LSB, so a wire read twice indexes as
in the netlist. Thresholds become signed compares. A sum of +/-1 terms plus
an offset is written as two popcounts over its 1-bit wires,
``((p0 + p1 - (q0 + q1)) <<< 1) + C``: each term s * (2 b - 1) adds 2 b to
the sum when s = +1 and takes 2 b from it when s = -1, so with P and N the
counts of true bits among the positive and negative terms the sum is
2 (P - N) + C, with C = offset - |positive| + |negative|. An empty popcount
is written ``1'b0``, and no bit is inverted inside the arithmetic. Each sum
is declared signed at width max(1, floor(log2(terms + |offset|))) + 2, and C
is one signed literal of that width. Emission order is the netlist's topological
order, so output text is byte-stable for a given netlist.

The parser understands exactly this subset; it exists so emitted text can be
re-simulated and checked for equivalence without any vendor tool. It reads
the text as a Verilog tool does (IEEE 1364-2005, 5.4 and 5.5). A literal
``W'sdV`` is V truncated to W bits and sign-extended, before any unary
minus. In a sum, three width rules apply: each 1-bit unsigned operand
extends to the context width, the sum's declared width; one unsigned
operand makes the whole expression unsigned, so C must be at exactly that
width, or it would be zero-extended; and the result wraps at the declared
width, at which the simulator wraps it. So the parser refuses a C of
another width, and ``~w`` inside a sum, which a tool reads as -1 - w. It
gives back each sum's terms as a multiset, the positive ones first: the
text does not keep the order in which they were interleaved. The emitter
refuses a literal whose magnitude does not fit its signed width. A LUT is
read only in the form above, its constant decoded with Python ints (a
6-input table is 64 bits). In one line naming the LUT, the parser refuses
a constant not declared and sized at 2^k bits or too wide for them, an
unknown table, an index operand that is not a 1-bit wire, and other LUT
text; the sum-of-products text of older exports is told to re-run
``lutshrink export``. A bare wire on the right is a copy of it. A second
assign to a wire or output, or one to an input, is refused: a tool would
see two drivers. So are a second ``localparam`` of one table name, which
a tool refuses, and an output port that no assign drives, which a tool
leaves undriven.
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


_ZERO = "1'b0"  # an empty popcount


def _sum_expr(node: Node, names: dict[int, str]) -> str:
    pos = [names[wid] for wid, sign in node.terms if sign > 0]
    neg = [names[wid] for wid, sign in node.terms if sign < 0]
    c = _lit(node.offset - len(pos) + len(neg), _sum_width(node), _wire(node.id))
    return f"(({' + '.join(pos) or _ZERO} - ({' + '.join(neg) or _ZERO})) <<< 1) + {c}"


def emit_verilog(nl: Netlist, top_name: str = "top") -> str:
    """Single self-contained structural module for a (simplified) netlist."""
    ports = [f"    input wire [{nl.n_inputs - 1}:0] in"]
    for oid in nl.outputs:
        out = nl.nodes[oid]
        ports.append(f"    output {_decl(nl.nodes[out.src])} {out.name}")
    lines = [f"module {top_name} (", ",\n".join(ports), ");"]

    names: dict[int, str] = {}
    for nid, node in nl.nodes.items():  # ids are assigned in topological order
        name = names[nid] = f"in[{node.pos}]" if node.kind == "input" else _wire(nid)
        if node.kind in ("input", "out"):
            continue
        if node.kind == "const":
            expr = f"1'b{1 if node.value > 0 else 0}"
        elif node.kind == "lut":  # bit i of the table is the output at corner i
            size = 2**node.k
            value = sum(1 << i for i in np.flatnonzero(node.bits > 0).tolist())
            lines.append(f"  localparam [{size - 1}:0] T{name} = "
                         f"{size}'h{value:0{-(-size // 4)}x};")
            expr = f"T{name}[{{{', '.join(names[f] for f in reversed(node.fanin))}}}]"
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
_BIT = r"(?:n\d+|in\[\d+\])"
_RE_LUT = re.compile(r"(\w+)\[\{([^{}]*)\}\]")
_RE_TABLE = re.compile(r"localparam \[(\d+):0\] (\w+) = ([^;]*);")
# a sum: two popcounts, each 1'b0 or a chain of bit wires, and one literal
_CHAIN = rf"1'b0|{_BIT}(?: \+ {_BIT})*"
_RE_SUM = re.compile(rf"\(\(({_CHAIN}) - \(({_CHAIN})\)\) <<< 1\) \+ ({_LIT})")
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


def _parse_sum(lhs: str, expr: str, widths: dict[str, int], by_name: dict[str, int]):
    """Two popcounts -> (terms, offset), the positive terms first. The
    literal must be at the sum's declared width, and every operand a 1-bit
    wire."""
    m = _RE_SUM.fullmatch(expr)
    if not m:
        hint = ("; Verilog reads ~w in a sum as -1 - w, so write w in the other "
                "popcount" if "~" in expr else "")
        raise NetlistError(f"sum {lhs}: cannot parse {expr!r}, expected "
                           f"((a + b - (c + d)) <<< 1) + C over 1-bit wires{hint}")
    c, width = _lit_value(m[3])
    if width != widths[lhs]:
        raise NetlistError(f"sum {lhs}: literal {m[3]} is not at the sum's "
                           f"declared width {widths[lhs]}")
    pos, neg = ([] if side == _ZERO else side.split(" + ") for side in m.group(1, 2))
    names = pos + neg
    if not widths.keys().isdisjoint(names):
        wide = min(widths.keys() & names)
        raise NetlistError(f"sum {lhs}: operand {wide} is not a 1-bit wire")
    signs = [1] * len(pos) + [-1] * len(neg)
    return list(zip(map(by_name.__getitem__, names), signs)), c + len(pos) - len(neg)


def _parse_lut(lhs: str, expr: str, tables: dict[str, tuple[str, str]],
               widths: dict[str, int]):
    """``T[{a, b, c}]`` -> (fan-in names, input 0 first; table bits)."""
    m = _RE_LUT.fullmatch(expr)
    if not m:
        remedy = ("; the sum-of-products form of older exports is no longer read, "
                  "re-run `lutshrink export`" if re.search(r"[&|~]", expr) else "")
        raise NetlistError(f"LUT {lhs}: cannot parse {expr!r}, expected "
                           f"T[{{a, b, c}}] of a localparam T{remedy}")
    if m[1] not in tables:
        raise NetlistError(f"LUT {lhs}: unknown table {m[1]}")
    operands = [op.strip() for op in m[2].split(",")]
    for op in operands:
        if not re.fullmatch(_BIT, op) or op in widths:
            raise NetlistError(f"LUT {lhs}: index operand {op!r} is not a 1-bit wire")
    size, (msb, const) = 2 ** len(operands), tables[m[1]]
    mh = re.fullmatch(r"(\d+)'[hH]([0-9a-fA-F]+)", const)
    if int(msb) + 1 != size or not mh or int(mh[1]) != size:
        raise NetlistError(f"LUT {lhs}: table {m[1]} is [{msb}:0] {const}; "
                           f"{len(operands)} inputs need [{size - 1}:0] {size}'h...")
    value = int(mh[2], 16)  # a Python int: a 6-input table is 64 bits
    if value >> size:
        raise NetlistError(f"LUT {lhs}: table {m[1]} = {const} does not fit {size} bits")
    bits = np.array([1 if value >> i & 1 else -1 for i in range(size)], dtype=np.int8)
    return operands[::-1], bits


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
    tables = {}
    for msb, name, const in _RE_TABLE.findall(text):
        if name in tables:
            raise NetlistError(f"table {name} is declared twice; a Verilog tool "
                               "refuses a second localparam of one name")
        tables[name] = (msb, const)

    nl = Netlist(n_inputs=n_inputs)
    by_name = _Wires((f"in[{i}]", nl.add("input", pos=i).id) for i in range(n_inputs))
    assigned: set[str] = set()
    for lhs, rhs in re.findall(r"assign (\S+) = (.+);", text):
        if lhs == "in" or lhs.startswith("in["):
            raise NetlistError(f"assign to input {lhs}, which only the caller drives")
        if lhs in assigned:
            raise NetlistError(f"{'output' if lhs in out_names else 'wire'} {lhs} is "
                               "assigned twice; a Verilog tool sees two drivers")
        assigned.add(lhs)
        rhs = rhs.strip()
        if rhs in by_name:  # a copy of a wire
            nid = by_name[rhs]
        elif mc := _RE_CONST.match(rhs):
            nid = nl.add("const", value=1 if mc.group(1) == "1" else -1).id
        elif mt := _RE_TH.match(rhs):
            src = nl.nodes[by_name[mt.group(1)]]
            tau, w = _lit_value(mt.group(2))
            if src.width:  # the compare runs at the wider of the two widths
                tau = _wrap(tau, max(w, src.width))
            nid = nl.add("th", src=src.id, tau=tau).id
        elif lhs in widths or "'sd" in rhs:
            if lhs not in widths:
                raise NetlistError(f"sum {lhs} has no signed width declaration")
            terms, offset = _parse_sum(lhs, rhs, widths, by_name)
            nid = nl.add("sum", terms=terms, offset=offset, width=widths[lhs]).id
        else:
            fanin, bits = _parse_lut(lhs, rhs, tables, widths)
            nid = nl.add("lut", bits=bits, fanin=[by_name[n] for n in fanin]).id
        if lhs in out_names:
            nl.outputs.append(nl.add("out", src=nid, name=lhs).id)
        else:
            by_name[lhs] = nid
    if undriven := sorted(out_names - assigned):
        raise NetlistError(f"output {undriven[0]} is declared but never assigned; "
                           "a Verilog tool leaves it undriven")
    return nl
