"""The export path against frozen copies of the code it replaced.

``simulate`` (levelized, float32 BLAS) and ``simplify`` (one topological
pass) are checked against the node-by-node simulator and the fixpoint loop
of simplification passes they replaced. The oracles below are copies of
that code and must not be edited to follow the library. The fixpoint
oracle adds one step the old passes did not have: folding thresholds that
their sum cannot reach, the rule ``simplify`` now applies. It is written
here on its own, so the old passes stay verbatim. The table helpers the
old passes called (``table_view``, ``_cofactor``, ``_flip_axis``, the wire
and inverter tests, the fan-in merge) are frozen here too, and
``lutcore.rewire`` and ``project`` are checked against them. Since
``Netlist.order`` was dropped, the oracles walk ``nl.nodes``, which is
kept in the same id order; what they compute is unchanged.

Sums are emitted as two popcounts, ``((P - N) <<< 1) + C``. The text keeps
which terms are positive and which negative, not how they were interleaved,
so the parser is checked against the netlist the text was emitted from,
with terms compared as multisets, and against values worked out by hand as
a Verilog tool computes them.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lutshrink import netlist
from lutshrink.lutcore import ContractError, project, rewire
from lutshrink.netlist import (
    Netlist,
    NetlistError,
    Node,
    simplify,
    simulate,
)
from lutshrink.verilog import emit_verilog, parse_verilog

from test_netlist import (all_patterns, netlist_state, random_netlist, sum_netlist,
                          sums_by_position)

# -- frozen oracles -----------------------------------------------------------


def table_view(bits: np.ndarray, k: int) -> np.ndarray:
    """Reshape a 2^k table to shape (2,)*k with axis j = input j."""
    return np.asarray(bits).reshape((2,) * k, order="F")


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


def _is_wire(node: Node) -> bool:
    return node.kind == "lut" and node.k == 1 and node.bits[0] == -1 and node.bits[1] == 1


def _is_inverter(node: Node) -> bool:
    return node.kind == "lut" and node.k == 1 and node.bits[0] == 1 and node.bits[1] == -1


def oracle_merge(bits: np.ndarray, fanin: list[int]) -> tuple[np.ndarray, list[int]]:
    """Merge fan-ins that name the same wire (the table's diagonal)."""
    uniq = list(dict.fromkeys(fanin))
    idx = np.arange(2 ** len(uniq))
    old = sum(((idx >> uniq.index(w)) & 1) << j for j, w in enumerate(fanin))
    return bits[old], uniq


def oracle_simulate(nl: Netlist, x: np.ndarray) -> dict[str, np.ndarray]:
    x = np.atleast_2d(np.asarray(x))
    if x.shape[1] != nl.n_inputs:
        raise NetlistError(
            f"expected {nl.n_inputs} inputs, got {x.shape[1]}"
        )
    if not np.all(np.abs(x) == 1):
        raise NetlistError("simulation inputs must be +/-1")
    b = x.shape[0]
    vals: dict[int, np.ndarray] = {}
    for nid, node in nl.nodes.items():
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


def oracle_support(bits: np.ndarray, k: int) -> list[int]:
    view = table_view(bits, k)
    return [j for j in range(k)
            if np.any(np.take(view, 0, axis=j) != np.take(view, 1, axis=j))]


def oracle_project(bits: np.ndarray, k: int, keep) -> np.ndarray | int:
    keep = set(keep)
    if not keep <= set(range(k)):
        raise ContractError("keep positions out of range")
    lost = set(oracle_support(bits, k)) - keep
    if lost:
        raise ContractError(f"cannot drop inputs in the support: {sorted(lost)}")
    view = table_view(bits, k)
    for j in reversed(range(k)):
        if j not in keep:
            view = np.take(view, 0, axis=j)
    if not keep:
        return int(view)
    return np.asarray(view.reshape(-1, order="F"), dtype=np.int8)


def oracle_resolve(nl: Netlist, wid: int, through_inverters: bool) -> tuple[int, int]:
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


def oracle_simplify_pass(nl: Netlist) -> bool:
    changed = False
    for nid in list(nl.nodes):
        node = nl.nodes[nid]
        if node.kind == "lut":
            j = 0
            while j < node.k:
                src, pol = oracle_resolve(nl, node.fanin[j], through_inverters=True)
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
            uniq = list(dict.fromkeys(node.fanin))
            if len(uniq) < node.k:
                idx = np.arange(2 ** len(uniq))
                old = sum(((idx >> uniq.index(w)) & 1) << j
                          for j, w in enumerate(node.fanin))
                node.bits = node.bits[old]
                node.fanin = uniq
                changed = True
            keep = oracle_support(node.bits, node.k)
            if len(keep) < node.k:
                res = oracle_project(node.bits, node.k, keep)
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
                src, pol = oracle_resolve(nl, wid, through_inverters=True)
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
            src, pol = oracle_resolve(nl, node.src, through_inverters=False)
            if src != node.src:
                node.src = src
                changed = True
    return changed


def oracle_garbage_collect(nl: Netlist) -> None:
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
    nl.nodes = {i: node for i, node in nl.nodes.items() if i in live}


def fold_unreachable(nl: Netlist) -> bool:
    """The added rule: a threshold its sum of n +/-1 terms cannot reach, or
    always reaches, is a constant."""
    changed = False
    for node in nl.nodes.values():
        if node.kind == "th" and nl.nodes[node.src].kind == "sum":
            s = nl.nodes[node.src]
            lo, hi = s.offset - len(s.terms), s.offset + len(s.terms)
            if not lo < node.tau <= hi:
                node.kind, node.value = "const", 1 if node.tau <= lo else -1
                changed = True
    return changed


def oracle_simplify(nl: Netlist) -> tuple[Netlist, bool]:
    """The fixpoint, and whether the added rule fired."""
    nl = nl.copy()
    folded = False
    while True:
        changed = oracle_simplify_pass(nl)
        if fold_unreachable(nl):
            folded = changed = True
        if not changed:
            break
    oracle_garbage_collect(nl)
    return nl, folded


# -- table rewiring ----------------------------------------------------------


def random_tables(k: int, count: int = 8):
    rng = np.random.default_rng(k)
    return [rng.choice([-1, 1], size=2**k).astype(np.int8) for _ in range(count)]


def assert_same_table(got: np.ndarray, want) -> None:
    assert got.dtype == np.int8
    assert np.array_equal(got, np.atleast_1d(want))


@pytest.mark.parametrize("k", range(1, 7))
def test_rewire_matches_frozen_cofactor_and_flip(k):
    for bits in random_tables(k):
        for j in range(k):
            rest = [m - (m > j) for m in range(k)]  # the others keep their order
            for value in (-1, 1):
                pos = [-1 if m == j else rest[m] for m in range(k)]
                flip = [m == j and value > 0 for m in range(k)]
                assert_same_table(rewire(bits, k, pos, flip), _cofactor(bits, k, j, value))
            flip = [m == j for m in range(k)]
            assert_same_table(rewire(bits, k, range(k), flip), _flip_axis(bits, k, j))


@pytest.mark.parametrize("k", range(2, 7))
def test_rewire_matches_frozen_merge_of_every_pair(k):
    for bits in random_tables(k):
        for i, j in itertools.combinations(range(k), 2):
            fanin = [10 + m for m in range(k)]
            fanin[j] = fanin[i]
            want, uniq = oracle_merge(bits, fanin)
            got = rewire(bits, k, [uniq.index(w) for w in fanin], [0] * k)
            assert_same_table(got, want)


@pytest.mark.parametrize("k", range(1, 7))
def test_project_matches_frozen_oracle(k):
    rng = np.random.default_rng(100 + k)
    idx = np.arange(2**k)
    for bits in random_tables(k, 30):
        for j in np.flatnonzero(rng.random(k) < 0.5):
            bits = bits[idx & ~(1 << j)]  # input j no longer matters
        keep = oracle_support(bits, k)
        keep += [j for j in range(k) if j not in keep and rng.random() < 0.5]
        got, want = project(bits, k, keep), oracle_project(bits, k, keep)
        if keep:
            assert_same_table(got, want)
        else:  # the constant itself
            assert type(got) is int and got == want


# -- simulate -----------------------------------------------------------------


def random_pm1(rng: np.random.Generator, b: int, n: int) -> np.ndarray:
    return np.where(rng.random((b, n)) < 0.5, 1, -1).astype(np.int64)


def assert_same_outputs(got: dict, want: dict, msg: str) -> None:
    assert list(got) == list(want), msg
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=f"{msg}, {name}")
        assert got[name].dtype == np.int64


@pytest.mark.parametrize("b", [0, 1, 7, 300])
def test_simulate_matches_frozen_simulator(b):
    kinds = set()
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n_inputs = int(rng.integers(2, 7))
        nl = random_netlist(rng, n_inputs)
        x = random_pm1(rng, b, n_inputs)
        for net in (nl, simplify(nl)):
            assert_same_outputs(simulate(net, x), oracle_simulate(net, x), f"seed {seed}")
            kinds |= {n.kind for n in net.nodes.values()}
            kinds |= {"inverted" for n in net.nodes.values() if any(s < 0 for _, s in n.terms)}
    assert kinds >= {"input", "const", "lut", "sum", "th", "out", "inverted"}


@pytest.mark.parametrize("n_terms", [1, 196, 1000])
def test_simulate_matches_frozen_simulator_on_wide_sums(n_terms):
    rng = np.random.default_rng(n_terms)
    for offset in (-5, 0, 3):
        nl = sum_netlist(n_terms, offset, seed=n_terms)
        x = random_pm1(rng, 300, 64)
        assert_same_outputs(simulate(nl, x), oracle_simulate(nl, x), f"offset {offset}")


def test_simulate_rejects_a_node_that_reads_a_later_node():
    nl = Netlist(n_inputs=1)
    a = nl.add("input", pos=0)
    s = nl.add("sum", terms=[(a.id, 1)], offset=0)
    nl.outputs.append(nl.add("out", src=s.id, name="score_0").id)
    s.terms.append((nl.outputs[0] + 1, 1))
    nl.add("const", value=1)
    with pytest.raises(NetlistError, match="node 1 reads node 3") as exc:
        simulate(nl, np.ones((1, 1)))
    assert "\n" not in str(exc.value)


def test_sum_at_the_exactness_limit_is_refused(monkeypatch):
    monkeypatch.setattr(netlist, "EXACT_SUM_LIMIT", 4)
    x = all_patterns(3)
    ok = sum_netlist(3, 0)  # 3 terms, |offset| 0
    assert simulate(ok, x[:, :1].repeat(64, axis=1))
    with pytest.raises(NetlistError, match=r"sum n64: 4 terms plus \|offset\| reach") as exc:
        simulate(sum_netlist(3, 1), x[:, :1].repeat(64, axis=1))
    assert "\n" not in str(exc.value)


# -- simplify -----------------------------------------------------------------


def test_one_pass_simplify_matches_frozen_fixpoint():
    folded = 0
    for seed in range(600):
        rng = np.random.default_rng(seed)
        nl = random_netlist(rng, int(rng.integers(2, 7)))
        want, fired = oracle_simplify(nl)
        assert netlist_state(simplify(nl)) == netlist_state(want), f"seed {seed}"
        folded += fired
    assert 0 < folded < 600  # both with and without unreachable thresholds


def test_simplify_folds_unreachable_thresholds():
    for tau, kind, value in [(-2, "const", 1), (-1, "th", 0), (2, "th", 0),
                             (3, "const", -1)]:
        nl = Netlist(n_inputs=2)
        a, b = nl.add("input", pos=0), nl.add("input", pos=1)
        s = nl.add("sum", terms=[(a.id, 1), (b.id, -1)], offset=0, layer="L")
        th = nl.add("th", src=s.id, tau=tau, layer="L")
        nl.outputs.append(nl.add("out", src=th.id, name="y").id)
        post = simplify(nl)
        assert (post.nodes[th.id].kind, post.nodes[th.id].value) == (kind, value)
        assert (s.id in post.nodes) == (kind == "th")  # a dead sum is dropped
        x = all_patterns(2)
        np.testing.assert_array_equal(simulate(post, x)["y"], simulate(nl, x)["y"])


def test_simplify_rejects_a_node_that_reads_a_later_node():
    nl = Netlist(n_inputs=1)
    a = nl.add("input", pos=0)
    w = nl.add("lut", bits=np.array([-1, 1], dtype=np.int8), fanin=[a.id])
    nl.add("lut", bits=np.array([-1, 1], dtype=np.int8), fanin=[w.id])
    w.fanin[0] = 2  # a wire cycle 1 -> 2 -> 1
    nl.outputs.append(nl.add("out", src=w.id, name="y").id)
    with pytest.raises(NetlistError, match="node 1 reads node 2, which is not earlier") as exc:
        simplify(nl)
    assert "\n" not in str(exc.value)


# -- parser and literals ------------------------------------------------------


def test_parse_gives_back_emitted_sums_as_multisets():
    nets = [simplify(random_netlist(np.random.default_rng(seed))) for seed in range(100)]
    want = list(map(sums_by_position, nets))
    assert sum(map(len, want)) > 250
    for nl, sums in zip(nets, want):
        assert sums_by_position(parse_verilog(emit_verilog(nl))) == sums


def popcount_netlist(pos: list[int], neg: list[int], offset: int) -> Netlist:
    """One score sum of +in[i] for i in pos and -in[i] for i in neg."""
    nl = Netlist(n_inputs=4)
    for i in range(4):
        nl.add("input", pos=i)
    s = nl.add("sum", terms=[(i, 1) for i in pos] + [(i, -1) for i in neg], offset=offset)
    nl.outputs.append(nl.add("out", src=s.id, name="score_0").id)
    return nl


def spellings(lit: str) -> list[str]:
    """``lit`` and literals of its width that a Verilog tool reads as the
    same value modulo 2^width: the digits taken modulo 2^width, plus 2^width
    (truncated away), and with the sign moved onto the digits."""
    width, _, digits = lit.lstrip("-").partition("'sd")
    w, value = int(width), int(digits) * (-1 if lit[0] == "-" else 1)
    return [lit, f"{w}'sd{value % 2**w}", f"{w}'sd{value % 2**w + 2**w}",
            f"-{w}'sd{-value % 2**w}"]


@settings(max_examples=200, deadline=None)
@given(pos=st.lists(st.integers(0, 3), max_size=12),
       neg=st.lists(st.integers(0, 3), max_size=12),
       edge=st.integers(-1, 0), power=st.integers(0, 5), sign=st.sampled_from([-1, 1]))
def test_round_trip_of_random_popcounts(pos, neg, edge, power, sign):
    """Terms and offset come back as a multiset and a number, and every
    spelling of C a tool reads as the same value simulates the same, at the
    widths where the span of terms plus |offset| crosses a power of two."""
    n = len(pos) + len(neg)
    offset = sign * max(0, 2**power + edge - n)
    nl = popcount_netlist(pos, neg, offset)
    text = emit_verilog(nl)
    want = oracle_simulate(nl, all_patterns(4))
    (line,) = [l for l in text.splitlines() if l.startswith("  assign n4 = ")]
    head, c = line[:-1].rsplit(" ", 1)
    for lit in spellings(c):
        back = parse_verilog(text.replace(line, f"{head} {lit};"))
        assert_same_outputs(simulate(back, all_patterns(4)), want, f"C spelt {lit}")
    back = parse_verilog(text)
    terms = [(("in", i), 1) for i in pos] + [(("in", i), -1) for i in neg]
    assert sums_by_position(back) == [(sorted(terms), offset)]
    assert back.nodes[4].width == int(c.lstrip("-").partition("'")[0])


SUM_MODULE = """module top (
    input wire [1:0] in,
    output wire signed [{msb}:0] score_0,
    output wire signed [{msb}:0] score_1
);
  wire signed [{msb}:0] n2;
  assign n2 = {expr};
  wire n3;
  assign n3 = (n2 >= {tau});
  wire signed [{msb}:0] n4;
  assign n4 = ((n3 - (1'b0)) <<< 1) + -{w}'sd1;
  assign score_0 = n2;
  assign score_1 = n4;
endmodule
"""


# values a Verilog tool computes: each 1-bit operand zero-extends to the
# sum's width, the arithmetic is taken modulo 2^width, and the result is
# read back as signed
@pytest.mark.parametrize("width, expr, tau, score, bit", [
    # 3'sd5 is 3'b101: -3 once truncated and sign-extended, so -3'sd5 is 3
    (3, "((in[0] - (in[1])) <<< 1) + 3'sd0", "-3'sd5", [0, 2, -2, 0], [-1, -1, -1, -1]),
    # as C, 3'sd5 is -3: 2 in[0] - 3; 3'sd6 is -2
    (3, "((in[0] - (1'b0)) <<< 1) + 3'sd5", "3'sd6", [-3, -1, -3, -1], [-1, 1, -1, 1]),
    # 2'sd2 is -2 and -2'sd2 is 2: 2 (in[0] + in[1]) + 2, where 2 and 6 wrap
    # to -2 in a 2-bit sum
    (2, "((in[0] + in[1] - (1'b0)) <<< 1) + -2'sd2", "2'sd0", [-2, 0, 0, -2],
     [-1, 1, 1, -1]),
    # 2 in[0] + 7: 9 wraps to -7 at 4 bits
    (4, "((in[0] - (1'b0)) <<< 1) + 4'sd7", "4'sd0", [7, -7, 7, -7], [1, -1, 1, -1]),
    # 4'sd8 is -8 and the minus gives 8, which is -8 at 4 bits: 8 - 2 in[1]
    # reads -8 or 6; in the 4-bit compare, 8 wraps back to -8
    (4, "((1'b0 - (in[1])) <<< 1) + -4'sd8", "-4'sd8", [-8, -8, 6, 6], [1, 1, 1, 1]),
    # (P - N) <<< 1 leaves the signed range before C brings it back:
    # 2 (in[0] + in[1]) is 4 (-4 at 3 bits), and 4 - 2 is 2
    (3, "((in[0] + in[1] - (1'b0)) <<< 1) + -3'sd2", "3'sd1", [-2, 0, 0, 2],
     [-1, -1, -1, 1]),
    # 2 (in[0] - 3 in[1]) + 2: a wire may repeat, and 4 wraps to -4
    (3, "((in[0] - (in[1] + in[1] + in[1])) <<< 1) + 3'sd2", "3'sd0", [2, -4, -4, -2],
     [1, -1, -1, -1]),
], ids=["negated-3sd5-threshold-is-3", "3sd5-offset-is-minus-3", "2-bit-sum-wraps",
        "4-bit-sum-wraps", "negated-4sd8-is-minus-8", "shifted-popcount-wraps-back",
        "repeated-wire"])
def test_parser_reads_literals_and_widths_as_verilog_does(width, expr, tau, score, bit):
    text = SUM_MODULE.format(msb=width - 1, w=width, expr=expr, tau=tau)
    out = simulate(parse_verilog(text), all_patterns(2))
    np.testing.assert_array_equal(out["score_0"], score)
    np.testing.assert_array_equal(out["score_1"], bit)


def test_parse_rejects_a_sum_without_a_declared_width():
    text = SUM_MODULE.format(msb=2, w=3, expr="((in[0] - (1'b0)) <<< 1) + -3'sd1",
                             tau="3'sd0")
    with pytest.raises(NetlistError, match="sum n2 has no signed width declaration"):
        parse_verilog(text.replace("  wire signed [2:0] n2;\n", ""))


def test_emit_rejects_a_literal_wider_than_its_sum():
    nl = Netlist(n_inputs=2)
    a, b = nl.add("input", pos=0), nl.add("input", pos=1)
    s = nl.add("sum", terms=[(a.id, 1), (b.id, -1)], offset=0)
    th = nl.add("th", src=s.id, tau=-5)  # unreachable: simplify would fold it
    nl.outputs.append(nl.add("out", src=th.id, name="y").id)
    with pytest.raises(NetlistError, match="n3: literal -5 does not fit signed width 3") as exc:
        emit_verilog(nl)
    assert "\n" not in str(exc.value)
    assert "'sd5" not in emit_verilog(simplify(nl))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_inputs=st.integers(2, 6))
def test_round_trip_through_width_faithful_parse(seed, n_inputs):
    nl = random_netlist(np.random.default_rng(seed), n_inputs)
    x = all_patterns(n_inputs)
    back = parse_verilog(emit_verilog(simplify(nl)))
    assert all(n.width > 0 for n in back.nodes.values() if n.kind == "sum")
    assert_same_outputs(simulate(back, x), oracle_simulate(nl, x), f"seed {seed}")


def one_lut_netlist(k: int, table: int, picks: list[int]) -> Netlist:
    """Output y is a k-input LUT whose bit i is bit i of ``table``. Its
    fan-in is picked, repeats allowed, from six inputs (ids 0-5), a 2-input
    LUT (id 6) and a threshold (id 8)."""
    nl = Netlist(n_inputs=6)
    for i in range(6):
        nl.add("input", pos=i)
    nl.add("lut", bits=np.array([1, -1, -1, 1], dtype=np.int8), fanin=[0, 1])
    s = nl.add("sum", terms=[(2, 1), (3, -1), (4, 1)], offset=0)
    nl.add("th", src=s.id, tau=1)
    bits = np.array([1 if table >> i & 1 else -1 for i in range(2**k)], dtype=np.int8)
    pool = [0, 1, 2, 3, 4, 5, 6, 8]
    lut = nl.add("lut", bits=bits, fanin=[pool[p] for p in picks])
    nl.outputs.append(nl.add("out", src=lut.id, name="y").id)
    return nl


@st.composite
def one_lut(draw):
    k = draw(st.integers(1, 6))
    return (k, draw(st.integers(0, 2 ** 2**k - 1)),
            draw(st.lists(st.integers(0, 7), min_size=k, max_size=k)))


@settings(max_examples=200, deadline=None)
@given(case=one_lut())
@example(case=(6, 1 << 63, [0, 1, 2, 3, 4, 5]))  # the top corner of a 64-bit table
@example(case=(6, (1 << 63) | 0x96, [6, 7, 0, 6, 5, 7]))  # LUT, threshold, repeats
@example(case=(2, 0b0110, [3, 3]))  # one wire read twice: in[3] ^ in[3]
@example(case=(3, 0b00000010, [7, 6, 2]))
def test_round_trip_of_one_lut(case):
    """emit -> parse gives back the LUT's table bits and fan-in order, and
    simulates bit for bit as the netlist does, on every input corner."""
    k, table, picks = case
    nl = one_lut_netlist(k, table, picks)
    text = emit_verilog(nl)
    size = 2**k
    assert f"  localparam [{size - 1}:0] Tn9 = {size}'h{table:0{-(-size // 4)}x};\n" in text
    back = parse_verilog(text)
    assert ([(n.id, n.kind, n.fanin) for n in back.nodes.values()]
            == [(n.id, n.kind, n.fanin) for n in nl.nodes.values()])
    assert back.nodes[9].bits.dtype == np.int8
    np.testing.assert_array_equal(back.nodes[9].bits, nl.nodes[9].bits)
    x = all_patterns(6)
    assert_same_outputs(simulate(back, x), oracle_simulate(nl, x), f"case {case}")
