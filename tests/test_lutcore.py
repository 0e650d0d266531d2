import itertools

import numpy as np
import pytest

from lutshrink.lutcore import (
    ContractError,
    LutMask,
    TruthTable,
    binarize_mask,
    effective_inputs,
    index_pattern,
    lut_forward,
    lut_grad_inputs,
    lut_grad_params,
    pattern_index,
    project,
    project_table,
    support,
)

# Table-1-style AND mask, indexed (-1,-1),(1,-1),(-1,1),(1,1)
AND_MASK = LutMask(2, [-0.90, -0.01, -0.85, 0.05])
# x0 XOR x2 as a 3-input table: input 1 is outside the support
XOR02 = np.array([-1, 1, -1, 1, 1, -1, 1, -1], dtype=np.int8)


def brute_forward(params, x):
    """Direct expansion of the interpolation sum (independent oracle)."""
    k = len(x)
    total = 0.0
    for d in itertools.product([-1, 1], repeat=k):
        term = params[pattern_index(d)]
        for dj, xj in zip(d, x):
            term *= 1 + dj * xj
        total += term
    return total / 2**k


def central_diff(f, x, step=1e-5):
    g = np.empty(len(x))
    for j in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        g[j] = (f(xp) - f(xm)) / (2 * step)
    return g


def test_pattern_index_roundtrip():
    for k in range(1, 7):
        for idx in range(2**k):
            assert pattern_index(index_pattern(idx, k)) == idx


def test_forward_corner_k1():
    mask = LutMask(1, [0.5, -0.5])
    assert lut_forward(mask, [1.0]) == -0.5
    assert lut_forward(mask, [-1.0]) == 0.5


def test_forward_and_corner():
    assert lut_forward(AND_MASK, [1.0, 1.0]) == pytest.approx(0.05, abs=1e-15)


def test_forward_origin_is_mean():
    # frozen from brute_forward(AND_MASK.params, (0,0)) = mean of entries
    assert lut_forward(AND_MASK, [0.0, 0.0]) == pytest.approx(-0.4275, abs=1e-15)


def test_forward_matches_brute_force():
    rng = np.random.default_rng(0)
    for k in range(1, 7):
        for _ in range(20):
            mask = LutMask(k, rng.uniform(-1, 1, 2**k))
            x = rng.uniform(-1, 1, k)
            assert lut_forward(mask, x) == pytest.approx(
                brute_forward(mask.params, x), rel=1e-12
            )


def test_corner_identity():
    rng = np.random.default_rng(1)
    for k in range(1, 7):
        mask = LutMask(k, rng.uniform(-1, 1, 2**k))
        for idx in range(2**k):
            a = index_pattern(idx, k).astype(float)
            assert abs(lut_forward(mask, a) - mask.params[idx]) <= 1e-12


def test_linearity_in_params():
    rng = np.random.default_rng(2)
    for k in range(1, 5):
        c1 = rng.uniform(-1, 1, 2**k)
        c2 = rng.uniform(-1, 1, 2**k)
        x = rng.uniform(-1, 1, k)
        a, b = 0.3, -1.7
        lhs = lut_forward(LutMask(k, a * c1 + b * c2), x)
        rhs = a * lut_forward(LutMask(k, c1), x) + b * lut_forward(LutMask(k, c2), x)
        assert abs(lhs - rhs) <= 1e-12


def test_grad_params_trivial_cases():
    mask = LutMask(1, [0.3, 0.7])
    np.testing.assert_allclose(lut_grad_params(mask, [1.0]), [0.0, 1.0])
    mask2 = LutMask(2, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(lut_grad_params(mask2, [0.0, 0.0]), [0.25] * 4)


def test_grad_inputs_k1_linear():
    a, b = -0.4, 0.9
    mask = LutMask(1, [a, b])
    for x in (-1.0, 0.0, 0.7):
        np.testing.assert_allclose(lut_grad_inputs(mask, [x]), [(b - a) / 2])


def test_grad_inputs_and_mask_corner():
    # hand expansion: df/dx1 at (1,1) = (c11 - c01)/2 = (0.05 + 0.85)/2
    g = lut_grad_inputs(AND_MASK, [1.0, 1.0])
    assert g[0] == pytest.approx(0.45, abs=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gradients_match_finite_differences(k):
    rng = np.random.default_rng(10 + k)
    for _ in range(100):
        params = rng.uniform(-1, 1, 2**k)
        mask = LutMask(k, params)
        x = rng.uniform(-0.9, 0.9, k)

        gx = lut_grad_inputs(mask, x)
        fd_x = central_diff(lambda xv: lut_forward(mask, xv), x)
        np.testing.assert_allclose(gx, fd_x, rtol=1e-5, atol=1e-9)

        gp = lut_grad_params(mask, x)
        fd_p = central_diff(
            lambda pv: lut_forward(LutMask(k, pv), x), params.copy()
        )
        np.testing.assert_allclose(gp, fd_p, rtol=1e-5, atol=1e-9)


def test_binarize_and_gate():
    tt = binarize_mask(AND_MASK)
    np.testing.assert_array_equal(tt.bits, [-1, -1, -1, 1])


def test_binarize_tie_rule():
    tt = binarize_mask(LutMask(2, [0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_array_equal(tt.bits, [1, 1, 1, 1])


def test_binarize_after_input_removal_gives_wire():
    # AND mask with input 1 (0-based) mean-merged: c' = (-0.875, 0.02)x2
    merged = LutMask(2, [-0.875, 0.02, -0.875, 0.02])
    tt = binarize_mask(merged)
    np.testing.assert_array_equal(tt.bits, [-1, 1, -1, 1])  # y = x_0, a wire


def test_effective_inputs_examples():
    and_tt = TruthTable(2, [-1, -1, -1, 1])
    assert effective_inputs(and_tt) == {0, 1}
    assert support(and_tt.bits, 2) == [0, 1]
    wire = TruthTable(2, [-1, 1, -1, 1])
    assert effective_inputs(wire) == {0}
    assert support(wire.bits, 2) == [0]
    const = TruthTable(2, [1, 1, 1, 1])
    assert effective_inputs(const) == set()
    assert support(const.bits, 2) == []
    assert support(XOR02, 3) == [0, 2]


def test_support_soundness_exhaustive():
    rng = np.random.default_rng(3)
    for k in range(1, 7):
        idx = np.arange(2**k)
        for _ in range(20):
            bits = rng.choice([-1, 1], 2**k).astype(np.int8)
            for j in np.flatnonzero(rng.random(k) < 0.4):
                bits = bits[idx & ~(1 << j)]  # input j no longer matters
            tt = TruthTable(k, bits)
            dead = set(range(k)) - effective_inputs(tt)
            for j in dead:
                for i in range(2**k):
                    assert bits[i] == bits[i ^ (1 << j)]
            keep = support(bits, k)
            assert set(keep) == effective_inputs(tt)
            assert all(np.any(bits != bits[idx ^ (1 << j)]) for j in keep)
            # the projection reads input keep[m] as its input m
            proj = project(bits, k, keep)
            sub = sum(((idx >> j) & 1) << m for m, j in enumerate(keep))
            np.testing.assert_array_equal(np.take(proj, sub), bits)


def test_project_table():
    wire = TruthTable(2, [-1, 1, -1, 1])
    proj = project_table(wire, [0])
    np.testing.assert_array_equal(proj.bits, [-1, 1])
    const = TruthTable(2, [1, 1, 1, 1])
    assert project_table(const, []) == 1
    and_tt = TruthTable(2, [-1, -1, -1, 1])
    with pytest.raises(ContractError):
        project_table(and_tt, [0])
    np.testing.assert_array_equal(project(wire.bits, 2, [0]), [-1, 1])
    assert project(const.bits, 2, []) == 1
    np.testing.assert_array_equal(project(XOR02, 3, [2, 0]), [-1, 1, 1, -1])
    with pytest.raises(ContractError, match=r"in the support: \[1\]"):
        project(and_tt.bits, 2, [0])
    with pytest.raises(ContractError, match="out of range"):
        project(wire.bits, 2, [0, 2])


def test_contract_errors():
    with pytest.raises(ContractError):
        LutMask(2, [1.0, 2.0, 3.0])
    with pytest.raises(ContractError):
        LutMask(1, [np.nan, 0.0])
    with pytest.raises(ContractError):
        LutMask(7, np.zeros(128))
    with pytest.raises(ContractError):
        lut_forward(AND_MASK, [1.0])
