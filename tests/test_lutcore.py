import itertools

import numpy as np
import pytest

from lutshrink.lutcore import ContractError, CornerBatch, Wiring, project, rewire, support
from lutshrink.model import sign_bits, sign_pm1
from lutshrink.shrink import build_U, salience_rows

# Table-1-style AND mask, indexed (-1,-1),(1,-1),(-1,1),(1,1)
AND_MASK = np.array([-0.90, -0.01, -0.85, 0.05])
# x0 XOR x2 as a 3-input table: input 1 is outside the support
XOR02 = np.array([-1, 1, -1, 1, 1, -1, 1, -1], dtype=np.int8)


def pattern_index(d) -> int:
    """Corner index of sign pattern d in {-1,1}^k (input 0 = LSB)."""
    return sum(1 << j for j, dj in enumerate(d) if dj > 0)


def index_pattern(idx: int, k: int) -> np.ndarray:
    """Inverse of pattern_index."""
    return np.array([1 if (idx >> j) & 1 else -1 for j in range(k)], dtype=np.int8)


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


def one_lut(x) -> CornerBatch:
    """One sample of one LUT that reads x[j] as its input j."""
    x = np.asarray(x, dtype=np.float64)
    return CornerBatch(x[None], Wiring(len(x), np.arange(len(x))[None]))


def forward(params, x) -> float:
    return float(one_lut(x).interpolate(np.asarray(params)[:, None])[0, 0])


def grad_params(x) -> np.ndarray:
    """d f / d c: the interpolation weights of every corner."""
    table = np.zeros((2 ** len(x), 1))  # read for dx only
    return one_lut(x).backward(table, np.ones((1, 1)), need_dx=False)[0][:, 0]


def grad_inputs(params, x) -> np.ndarray:
    return one_lut(x).backward(np.asarray(params)[:, None], np.ones((1, 1)))[1][0]


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
            d = index_pattern(idx, k)
            assert pattern_index(d) == idx
            # the kernel reads the same entry at that corner
            batch = one_lut(d.astype(np.float64))
            assert batch.flat.tolist() == [[idx]]


def test_forward_corner_k1():
    mask = [0.5, -0.5]
    assert forward(mask, [1.0]) == -0.5
    assert forward(mask, [-1.0]) == 0.5


def test_forward_and_corner():
    assert forward(AND_MASK, [1.0, 1.0]) == pytest.approx(0.05, abs=1e-15)


def test_forward_origin_is_mean():
    # frozen from brute_forward(AND_MASK, (0,0)) = mean of entries
    assert forward(AND_MASK, [0.0, 0.0]) == pytest.approx(-0.4275, abs=1e-15)


def test_forward_matches_brute_force():
    rng = np.random.default_rng(0)
    for k in range(1, 7):
        for _ in range(20):
            params = rng.uniform(-1, 1, 2**k)
            x = rng.uniform(-1, 1, k)
            assert forward(params, x) == pytest.approx(
                brute_forward(params, x), rel=1e-12
            )


def test_corner_identity():
    rng = np.random.default_rng(1)
    for k in range(1, 7):
        params = rng.uniform(-1, 1, 2**k)
        for idx in range(2**k):
            a = index_pattern(idx, k).astype(float)
            assert abs(forward(params, a) - params[idx]) <= 1e-12


def test_linearity_in_params():
    rng = np.random.default_rng(2)
    for k in range(1, 5):
        c1 = rng.uniform(-1, 1, 2**k)
        c2 = rng.uniform(-1, 1, 2**k)
        x = rng.uniform(-1, 1, k)
        a, b = 0.3, -1.7
        lhs = forward(a * c1 + b * c2, x)
        rhs = a * forward(c1, x) + b * forward(c2, x)
        assert abs(lhs - rhs) <= 1e-12


def test_grad_params_trivial_cases():
    np.testing.assert_allclose(grad_params([1.0]), [0.0, 1.0])
    np.testing.assert_allclose(grad_params([0.0, 0.0]), [0.25] * 4)


def test_grad_inputs_k1_linear():
    a, b = -0.4, 0.9
    for x in (-1.0, 0.0, 0.7):
        np.testing.assert_allclose(grad_inputs([a, b], [x]), [(b - a) / 2])


def test_grad_inputs_and_mask_corner():
    # hand expansion: df/dx1 at (1,1) = (c11 - c01)/2 = (0.05 + 0.85)/2
    g = grad_inputs(AND_MASK, [1.0, 1.0])
    assert g[0] == pytest.approx(0.45, abs=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gradients_match_finite_differences(k):
    rng = np.random.default_rng(10 + k)
    for _ in range(100):
        params = rng.uniform(-1, 1, 2**k)
        x = rng.uniform(-0.9, 0.9, k)

        gx = grad_inputs(params, x)
        fd_x = central_diff(lambda xv: forward(params, xv), x)
        np.testing.assert_allclose(gx, fd_x, rtol=1e-5, atol=1e-9)

        gp = grad_params(x)
        fd_p = central_diff(lambda pv: forward(pv, x), params.copy())
        np.testing.assert_allclose(gp, fd_p, rtol=1e-5, atol=1e-9)


def test_binarize_and_gate():
    np.testing.assert_array_equal(sign_bits(AND_MASK), [-1, -1, -1, 1])


def test_binarize_tie_rule():
    np.testing.assert_array_equal(sign_bits(np.zeros(4)), [1, 1, 1, 1])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sign_helpers_zero_nan_and_dtype(dtype):
    """-0.0 maps to +1 and NaN to -1, like np.where(x >= 0, 1, -1)."""
    x = np.array([-0.0, 0.0, np.nan, -np.inf, np.inf, -1e-30, 1e-30, -2.5, 3.0],
                 dtype=dtype)
    want = [1, 1, -1, -1, 1, -1, 1, -1, 1]
    pm1, bits = sign_pm1(x), sign_bits(x)
    assert pm1.dtype == dtype and bits.dtype == np.int8
    np.testing.assert_array_equal(pm1, want)
    np.testing.assert_array_equal(bits, want)
    rng = np.random.default_rng(0)
    y = rng.standard_normal((64, 33)).astype(dtype)
    y[rng.random(y.shape) < 0.1] = -0.0
    y[rng.random(y.shape) < 0.1] = np.nan
    ref = np.where(y >= 0, 1, -1)
    assert sign_pm1(y).tobytes() == ref.astype(dtype).tobytes()
    assert sign_bits(y).tobytes() == ref.astype(np.int8).tobytes()


def test_binarize_after_input_removal_gives_wire():
    # AND mask with input 1 (0-based) mean-merged: c' = (-0.875, 0.02)x2
    merged = np.array([-0.875, 0.02, -0.875, 0.02])
    np.testing.assert_array_equal(sign_bits(merged), [-1, 1, -1, 1])  # y = x_0


def test_effective_inputs_examples():
    assert support([-1, -1, -1, 1], 2) == [0, 1]  # AND
    assert support([-1, 1, -1, 1], 2) == [0]  # wire
    assert support([1, 1, 1, 1], 2) == []  # constant
    assert support(XOR02, 3) == [0, 2]


def test_support_soundness_exhaustive():
    rng = np.random.default_rng(3)
    for k in range(1, 7):
        idx = np.arange(2**k)
        for _ in range(20):
            bits = rng.choice([-1, 1], 2**k).astype(np.int8)
            for j in np.flatnonzero(rng.random(k) < 0.4):
                bits = bits[idx & ~(1 << j)]  # input j no longer matters
            keep = support(bits, k)
            for j in set(range(k)) - set(keep):
                for i in range(2**k):
                    assert bits[i] == bits[i ^ (1 << j)]
            assert all(np.any(bits != bits[idx ^ (1 << j)]) for j in keep)
            # the projection reads input keep[m] as its input m
            proj = project(bits, k, keep)
            sub = sum(((idx >> j) & 1) << m for m, j in enumerate(keep))
            np.testing.assert_array_equal(np.take(proj, sub), bits)


def test_project_table():
    wire = np.array([-1, 1, -1, 1], dtype=np.int8)
    const = np.ones(4, dtype=np.int8)
    and_tt = np.array([-1, -1, -1, 1], dtype=np.int8)
    np.testing.assert_array_equal(project(wire, 2, [0]), [-1, 1])
    assert project(const, 2, []) == 1
    np.testing.assert_array_equal(project(XOR02, 3, [2, 0]), [-1, 1, 1, -1])
    with pytest.raises(ContractError, match=r"in the support: \[1\]"):
        project(and_tt, 2, [0])
    with pytest.raises(ContractError, match="out of range"):
        project(wire, 2, [0, 2])


def test_contract_errors():
    with pytest.raises(ContractError, match=r"fan-in must be in \[1, 6\], got 7"):
        CornerBatch(np.zeros((1, 7)), Wiring(7, np.arange(7)[None]))
    with pytest.raises(ContractError, match="needs 4 entries"):
        rewire([1, -1, 1], 2, [0, 1], [0, 0])
    with pytest.raises(ContractError, match="expected 4 columns"):
        salience_rows(np.zeros((1, 3)), 2)
    with pytest.raises(ContractError, match="out of range"):
        build_U(2, 2)
