import gc

import numpy as np
import pytest

from lutshrink.lutcore import ContractError
from lutshrink.model import LutLayer, Network
from lutshrink.netlist import (
    AreaReport,
    Netlist,
    NetlistError,
    area_report,
    classify,
    extract_netlist,
    simplify,
    simulate,
)
from lutshrink.verilog import emit_verilog, parse_verilog


def all_patterns(n: int) -> np.ndarray:
    idx = np.arange(2**n)[:, None]
    return np.where((idx >> np.arange(n)) & 1, 1, -1).astype(np.int64)


def and_netlist() -> Netlist:
    nl = Netlist(n_inputs=2)
    a = nl.add("input", pos=0)
    b = nl.add("input", pos=1)
    g = nl.add("lut", bits=np.array([-1, -1, -1, 1], dtype=np.int8),
               fanin=[a.id, b.id], layer="L")
    nl.outputs.append(nl.add("out", src=g.id, name="y").id)
    return nl


def random_netlist(rng: np.random.Generator, n_inputs: int = 4) -> Netlist:
    nl = Netlist(n_inputs=n_inputs)
    wires = [nl.add("input", pos=i).id for i in range(n_inputs)]
    wires.append(nl.add("const", value=1, layer="L").id)
    wires.append(nl.add("const", value=-1, layer="L").id)
    for _ in range(int(rng.integers(5, 12))):
        kind = int(rng.integers(0, 4))
        if kind == 0:  # alias
            bits = np.array([-1, 1], dtype=np.int8)
            fan = [int(rng.choice(wires))]
        elif kind == 1:  # inverter
            bits = np.array([1, -1], dtype=np.int8)
            fan = [int(rng.choice(wires))]
        else:
            k = int(rng.integers(1, min(4, len(wires)) + 1))
            fan = [int(w) for w in rng.choice(wires, size=k, replace=False)]
            bits = rng.choice([-1, 1], size=2**k).astype(np.int8)
        wires.append(nl.add("lut", bits=bits, fanin=fan, layer="L").id)
    for _ in range(2):
        terms = [(int(w), int(rng.choice([-1, 1])))
                 for w in rng.choice(wires, size=3, replace=False)]
        s = nl.add("sum", terms=terms, offset=int(rng.integers(-2, 3)), layer="L")
        th = nl.add("th", src=s.id, tau=int(rng.integers(-2, 3)), layer="L")
        wires.append(th.id)
    for c in range(2):
        terms = [(int(w), int(rng.choice([-1, 1])))
                 for w in rng.choice(wires, size=4, replace=False)]
        s = nl.add("sum", terms=terms, offset=int(rng.integers(-1, 2)), layer="L")
        nl.outputs.append(nl.add("out", src=s.id, name=f"score_{c}").id)
    nl.outputs.append(nl.add("out", src=int(rng.choice(wires)), name="bit_0").id)
    return nl


def test_and_gate_simulation():
    nl = and_netlist()
    x = all_patterns(2)
    y = simulate(nl, x)["y"]
    np.testing.assert_array_equal(y, [-1, -1, -1, 1])


def test_simulate_rejects_non_pm1_inputs():
    with pytest.raises(NetlistError):
        simulate(and_netlist(), np.array([[0, 1]]))
    with pytest.raises(NetlistError):
        simulate(and_netlist(), np.array([[1, 1, 1]]))


def test_simplify_preserves_function_on_random_netlists():
    x = all_patterns(4)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        nl = random_netlist(rng)
        want = simulate(nl, x)
        post = simplify(nl)
        got = simulate(post, x)
        assert set(want) == set(got)
        for name in want:
            np.testing.assert_array_equal(want[name], got[name], err_msg=f"seed {seed}, {name}")
        assert post.total_lut_inputs() <= nl.total_lut_inputs()


def netlist_state(nl: Netlist):
    """Every field of the netlist and of each node, arrays as lists."""
    return (nl.n_inputs, nl._next, list(nl.order), list(nl.outputs), [
        (i, n.id, n.kind, n.layer, None if n.bits is None else n.bits.tolist(),
         list(n.fanin), n.pos, n.value, list(n.terms), n.offset, n.src, n.tau,
         n.name)
        for i, n in nl.nodes.items()])


def test_simplify_leaves_its_input_unchanged():
    for seed in range(20):
        nl = random_netlist(np.random.default_rng(seed))
        before = netlist_state(nl)
        out = simplify(nl)
        assert netlist_state(nl) == before
        assert netlist_state(out) != before  # simplify did change its copy
        for nid, node in out.nodes.items():
            old = nl.nodes[nid]
            assert node is not old and node.fanin is not old.fanin
            assert node.terms is not old.terms
            assert node.bits is None or not np.shares_memory(node.bits, old.bits)


def test_simplify_collapses_wire_chains():
    nl = Netlist(n_inputs=1)
    a = nl.add("input", pos=0)
    w1 = nl.add("lut", bits=np.array([-1, 1], dtype=np.int8), fanin=[a.id], layer="L")
    w2 = nl.add("lut", bits=np.array([-1, 1], dtype=np.int8), fanin=[w1.id], layer="L")
    s = nl.add("sum", terms=[(w2.id, 1)], offset=0, layer="L")
    nl.outputs.append(nl.add("out", src=s.id, name="score_0").id)
    post = simplify(nl)
    assert len(post.lut_nodes()) == 0
    sum_node = next(n for n in post.nodes.values() if n.kind == "sum")
    assert sum_node.terms == [(a.id, 1)]


def test_simplify_absorbs_inverter_into_term_sign():
    nl = Netlist(n_inputs=1)
    a = nl.add("input", pos=0)
    inv = nl.add("lut", bits=np.array([1, -1], dtype=np.int8), fanin=[a.id], layer="L")
    s = nl.add("sum", terms=[(inv.id, 1)], offset=0, layer="L")
    nl.outputs.append(nl.add("out", src=s.id, name="score_0").id)
    post = simplify(nl)
    assert len(post.lut_nodes()) == 0
    sum_node = next(n for n in post.nodes.values() if n.kind == "sum")
    assert sum_node.terms == [(a.id, -1)]


def test_simplify_folds_constants_into_offset_and_tables():
    nl = Netlist(n_inputs=1)
    a = nl.add("input", pos=0)
    cp = nl.add("const", value=1, layer="L")
    # OR(a, +1) is constantly +1
    g = nl.add("lut", bits=np.array([-1, 1, 1, 1], dtype=np.int8),
               fanin=[a.id, cp.id], layer="L")
    s = nl.add("sum", terms=[(g.id, 1), (cp.id, -1)], offset=0, layer="L")
    nl.outputs.append(nl.add("out", src=s.id, name="score_0").id)
    post = simplify(nl)
    sum_node = next(n for n in post.nodes.values() if n.kind == "sum")
    assert sum_node.terms == []
    assert sum_node.offset == 0  # +1 (folded lut) - 1 (folded const)


def test_simplify_drops_inputs_outside_support():
    nl = Netlist(n_inputs=2)
    a = nl.add("input", pos=0)
    b = nl.add("input", pos=1)
    # table equals x_0 regardless of x_1
    g = nl.add("lut", bits=np.array([-1, 1, -1, 1], dtype=np.int8),
               fanin=[a.id, b.id], layer="L")
    s = nl.add("sum", terms=[(g.id, 1)], offset=0, layer="L")
    nl.outputs.append(nl.add("out", src=s.id, name="score_0").id)
    post = simplify(nl)
    assert len(post.lut_nodes()) == 0  # shrinks to a wire, then collapses
    sum_node = next(n for n in post.nodes.values() if n.kind == "sum")
    assert sum_node.terms == [(a.id, 1)]


def test_simplify_merges_fanins_that_name_one_wire():
    nl = Netlist(n_inputs=2)
    a = nl.add("input", pos=0)
    b = nl.add("input", pos=1)
    w = nl.add("lut", bits=np.array([-1, 1], dtype=np.int8), fanin=[a.id], layer="L")
    inv = nl.add("lut", bits=np.array([1, -1], dtype=np.int8), fanin=[b.id], layer="L")
    bits = np.random.default_rng(3).choice([-1, 1], size=16).astype(np.int8)
    g = nl.add("lut", bits=bits, fanin=[a.id, b.id, w.id, inv.id], layer="L")
    nl.outputs.append(nl.add("out", src=g.id, name="y").id)
    post = simplify(nl)
    for node in post.lut_nodes():
        assert len(set(node.fanin)) == node.k
    x = all_patterns(2)
    np.testing.assert_array_equal(simulate(post, x)["y"], simulate(nl, x)["y"])
    back = parse_verilog(emit_verilog(post))
    np.testing.assert_array_equal(simulate(back, x)["y"], simulate(nl, x)["y"])


def test_simplify_const_folds_empty_threshold():
    nl = Netlist(n_inputs=1)
    nl.add("input", pos=0)
    s = nl.add("sum", terms=[], offset=2, layer="L")
    th = nl.add("th", src=s.id, tau=1, layer="L")
    s2 = nl.add("sum", terms=[(th.id, 1)], offset=0, layer="L")
    nl.outputs.append(nl.add("out", src=s2.id, name="score_0").id)
    post = simplify(nl)
    sum_node = post.nodes[nl.outputs[0]]
    sum_node = post.nodes[sum_node.src]
    assert sum_node.terms == [] and sum_node.offset == 1


def test_classify_argmax_and_tiebreak():
    nl = Netlist(n_inputs=1)
    a = nl.add("input", pos=0)
    s0 = nl.add("sum", terms=[(a.id, 1)], offset=0)
    s1 = nl.add("sum", terms=[(a.id, 1)], offset=0)
    s2 = nl.add("sum", terms=[(a.id, -1)], offset=0)
    nl.outputs.append(nl.add("out", src=s0.id, name="score_0").id)
    nl.outputs.append(nl.add("out", src=s1.id, name="score_1").id)
    nl.outputs.append(nl.add("out", src=s2.id, name="score_2").id)
    pred = classify(nl, np.array([[1], [-1]]))
    np.testing.assert_array_equal(pred, [0, 2])  # ties go to the lowest class


# -- Verilog round trip -------------------------------------------------------


def test_emit_is_deterministic():
    a = emit_verilog(simplify(random_netlist(np.random.default_rng(0))))
    b = emit_verilog(simplify(random_netlist(np.random.default_rng(0))))
    assert a == b


def test_round_trip_matches_simulation():
    x = all_patterns(4)
    for seed in range(20):
        nl = simplify(random_netlist(np.random.default_rng(seed)))
        want = simulate(nl, x)
        back = parse_verilog(emit_verilog(nl))
        got = simulate(back, x)
        assert set(want) == set(got)
        for name in want:
            np.testing.assert_array_equal(want[name], got[name], err_msg=f"seed {seed}, {name}")


def test_round_trip_and_gate():
    nl = and_netlist()
    text = emit_verilog(nl, "andtop")
    assert "module andtop (" in text
    back = parse_verilog(text)
    x = all_patterns(2)
    np.testing.assert_array_equal(simulate(back, x)["y"], [-1, -1, -1, 1])


def test_parse_rejects_garbage():
    with pytest.raises(NetlistError):
        parse_verilog("module x (); endmodule")


def sum_netlist(n_terms: int, offset: int, seed: int = 0) -> Netlist:
    """One score sum over random input wires (repeats allowed), plus a
    threshold of the same sum driving a second score."""
    rng = np.random.default_rng(seed)
    nl = Netlist(n_inputs=64)
    for i in range(64):
        nl.add("input", pos=i)
    terms = [(int(w), int(s)) for w, s in zip(rng.integers(0, 64, size=n_terms),
                                                rng.choice([-1, 1], size=n_terms))]
    s = nl.add("sum", terms=terms, offset=offset)
    th = nl.add("th", src=s.id, tau=offset // 2)
    s2 = nl.add("sum", terms=[(th.id, -1)], offset=-offset)
    nl.outputs.append(nl.add("out", src=s.id, name="score_0").id)
    nl.outputs.append(nl.add("out", src=s2.id, name="score_1").id)
    return nl


def sums_by_position(nl: Netlist) -> list[tuple[list, int]]:
    """Each sum's (terms, offset) in order; a term names its wire by input
    position, or by its source's position in the node order."""
    def key(wid):
        node = nl.nodes[wid]
        return ("in", node.pos) if node.kind == "input" else ("node", nl.order.index(wid))
    return [([(key(w), sgn) for w, sgn in n.terms], n.offset)
            for n in (nl.nodes[i] for i in nl.order) if n.kind == "sum"]


@pytest.mark.parametrize("offset", [-5, 0, 3])
@pytest.mark.parametrize("n_terms", [1, 2, 3, 196, 1000])
def test_round_trip_keeps_sum_terms_and_offset(n_terms, offset):
    nl = sum_netlist(n_terms, offset, seed=n_terms)
    back = parse_verilog(emit_verilog(nl))
    assert sums_by_position(back) == sums_by_position(nl)
    assert [back.nodes[i].tau for i in back.order if back.nodes[i].kind == "th"] == [offset // 2]


SUM_MODULE = """module top (
    input wire [1:0] in,
    output wire signed [3:0] score_0
);
  wire signed [3:0] n2;
  assign n2 = {expr};
  assign score_0 = n2;
endmodule
"""


def test_parse_reads_hand_written_sum():
    nl = parse_verilog(SUM_MODULE.format(
        expr="((in[0] ? 4'sd1 : -4'sd1) + ((in[1] ? -4'sd1 : 4'sd1) + -4'sd3))"))
    (node,) = [n for n in nl.nodes.values() if n.kind == "sum"]
    assert node.terms == [(0, 1), (1, -1)] and node.offset == -3


@pytest.mark.parametrize("expr", [
    "((in[0] ? 4'sd1 : -4'sd1) + (in[1] ? 4'sd1 : -4'sd1)",  # unbalanced (
    "(in[0] ? 4'sd1 : -4'sd1))",  # unbalanced )
    "((in[0] ? 4'sd1 : -4'sd1) + )",  # missing operand
    "( + (in[1] ? 4'sd1 : -4'sd1))",  # missing operand
    "((in[0] ? 4'sd1 : -4'sd1) + ())",  # missing operand
    "(in[0] ? 4'sd1 : -4'sd1) 4'sd2",  # trailing token
    "(in[0] ? 4'sd1 : -4'sd1) + 4'sd2",  # trailing token
    "((in[0] ? 4'sd1 : -4'sd1) + 4'sd1 + 4'sd1)",  # trailing token in a pair
    "(in[0] ? 4'sd1)",  # ? leaf without its : branch
    "(in[0] ? 4'sd1 : 4'sd1)",  # branches are not +/-1 of opposite sign
    "(in[0] ? 4'sd2 : -4'sd2)",
    "(in[0] ? 4'sd1 : -4'sd1) $",  # stray character
    "(L + (in[0] ? 4'sd1 : -4'sd1))",  # a letter where an operand belongs
])
def test_parse_rejects_malformed_sum(expr):
    with pytest.raises(NetlistError, match="cannot parse sum expression"):
        parse_verilog(SUM_MODULE.format(expr=expr))


def test_parse_rejects_undefined_wire_in_sum():
    with pytest.raises(NetlistError, match="undefined wire 'n7'"):
        parse_verilog(SUM_MODULE.format(expr="(n7 ? 4'sd1 : -4'sd1)"))


LUT_MODULE = """module top (
    input wire [1:0] in,
    output wire y
);
  wire n2;
  wire n3;
  assign n2 = in[0];
  assign n3 = {expr};
  assign y = n3;
endmodule
"""


def test_parse_reads_hand_written_lut():
    nl = parse_verilog(LUT_MODULE.format(expr="(n2 & ~in[1]) | (~n2 & in[1])"))
    np.testing.assert_array_equal(simulate(nl, all_patterns(2))["y"], [-1, 1, 1, -1])


@pytest.mark.parametrize("expr", ["()", "n2 & & n2", "(n2 &)", "n2 |", "n2 & 1'b1"])
def test_parse_rejects_malformed_lut(expr):
    with pytest.raises(NetlistError, match="assign n3: malformed LUT expression") as exc:
        parse_verilog(LUT_MODULE.format(expr=expr))
    assert "\n" not in str(exc.value)


def test_parse_leaves_no_cyclic_garbage():
    text = emit_verilog(sum_netlist(1000, 3)) + emit_verilog(
        simplify(random_netlist(np.random.default_rng(1))))
    parse_verilog(text)  # warm the regex cache outside the measured parse
    gc.collect()
    gc.disable()
    try:
        nl = parse_verilog(text)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert nl.outputs and garbage == 0


def test_emit_rejects_lut_reading_one_wire_twice():
    nl = Netlist(n_inputs=2)
    a = nl.add("input", pos=0)
    nl.add("input", pos=1)
    g = nl.add("lut", bits=np.array([-1, 1, 1, 1], dtype=np.int8), fanin=[a.id, a.id])
    nl.outputs.append(nl.add("out", src=g.id, name="y").id)
    with pytest.raises(NetlistError, match="n2 reads one wire twice") as exc:
        emit_verilog(nl)
    assert "\n" not in str(exc.value)


def test_emit_rejects_a_threshold_over_a_non_sum():
    nl = Netlist(n_inputs=1)
    a = nl.add("input", pos=0)
    th = nl.add("th", src=a.id, tau=0)
    nl.outputs.append(nl.add("out", src=th.id, name="y").id)
    with pytest.raises(NetlistError, match="threshold n1 compares node 0 of kind "
                       "'input'; only a sum can be compared") as exc:
        emit_verilog(nl)
    assert "\n" not in str(exc.value)


# -- area report --------------------------------------------------------------


def test_area_report_counts_and_summary():
    pre = Netlist(n_inputs=2)
    a = pre.add("input", pos=0)
    b = pre.add("input", pos=1)
    g = pre.add("lut", bits=np.array([-1, 1, -1, 1], dtype=np.int8),
                fanin=[a.id, b.id], layer="fc2")
    s = pre.add("sum", terms=[(g.id, 1)], offset=0, layer="fc2")
    pre.outputs.append(pre.add("out", src=s.id, name="score_0").id)
    post = simplify(pre)
    rep = area_report(pre, post)
    assert rep.pre["fc2"][2] == 1 and rep.pre_inputs == 2
    assert rep.post_total.sum() == 0 and rep.post_inputs == 0
    assert AreaReport.majority_class(rep.pre_total) == 2
    tsv = rep.to_tsv().strip().splitlines()
    assert tsv[0].split("\t") == ["layer", "size_class", "pre_count", "post_count"]
    assert len(tsv) == 1 + 7  # one layer, size classes 0..6
    assert "LUT inputs: pre 2, post 0" in rep.to_table()


def test_area_report_counts_multi_input_luts():
    pre = Netlist(n_inputs=2)
    a = pre.add("input", pos=0)
    b = pre.add("input", pos=1)
    g = pre.add("lut", bits=np.array([-1, 1, 1, -1], dtype=np.int8),  # XOR
                fanin=[a.id, b.id], layer="fc2")
    s = pre.add("sum", terms=[(g.id, 1)], offset=0, layer="fc2")
    pre.outputs.append(pre.add("out", src=s.id, name="score_0").id)
    assert area_report(pre, simplify(pre)).multi_input() == {"fc2": 1}


def test_fully_severed_lut_counts_as_zero_input():
    pre = Netlist(n_inputs=1)
    pre.add("input", pos=0)
    c = pre.add("const", value=1, layer="fc2")
    s = pre.add("sum", terms=[(c.id, 1)], offset=0, layer="fc2")
    pre.outputs.append(pre.add("out", src=s.id, name="score_0").id)
    rep = area_report(pre, simplify(pre))
    assert rep.pre["fc2"][0] == 1


def test_extract_refuses_to_drop_an_input_in_the_support(monkeypatch):
    lay = LutLayer(2, 2, 2, inputs=np.array([[0, 1]]), channel=np.array([0]),
                   masks=np.array([[-0.9, -0.1, -0.8, 0.2]]), name="fc2",
                   is_output=True)
    lay.set_pruned(np.array([[False, True]]))
    lay.fold_transforms()
    net = Network([lay])
    assert extract_netlist(net).total_lut_inputs() == 1
    # a table that still reads severed input 1 (AND) cannot be projected
    monkeypatch.setattr(lay, "truth_tables",
                        lambda: np.array([[-1, -1, -1, 1]], dtype=np.int8))
    with pytest.raises(ContractError, match=r"in the support: \[1\]"):
        extract_netlist(net)
