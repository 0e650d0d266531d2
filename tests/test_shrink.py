import itertools

import numpy as np
import pytest

from lutshrink.lutcore import ContractError, pair_indices
from lutshrink.model import sign_bits
from lutshrink.shrink import (
    build_U,
    build_prune_mask,
    compose_transforms,
    salience_rows,
)

AND_MASK = np.array([-0.90, -0.01, -0.85, 0.05])


def pattern_index(d) -> int:
    """Corner index of sign pattern d in {-1,1}^k (input 0 = LSB)."""
    return sum(1 << j for j, dj in enumerate(d) if dj > 0)


def salience(params) -> np.ndarray:
    """Salience of each input of one mask."""
    return salience_rows(params, len(params).bit_length() - 1)[0]


def kron_U(k, i):
    """The single-input operator as the Kronecker product it is defined by
    (frozen; do not optimize)."""
    return np.kron(np.kron(np.eye(2 ** (k - i - 1)), np.ones((2, 2))), np.eye(2**i)) / 2.0


def brute_salience(params, k):
    """Enumerate every pair differing in one input (independent oracle)."""
    s = np.zeros(k)
    for i in range(k):
        for d in itertools.product([-1, 1], repeat=k):
            if d[i] == 1:
                d_lo = list(d)
                d_lo[i] = -1
                s[i] += abs(params[pattern_index(d)] - params[pattern_index(d_lo)])
    return s


def loop_salience_rows(params, k):
    """The per-input loop salience_rows was, frozen."""
    params = np.atleast_2d(np.asarray(params, dtype=np.float64))
    s = np.empty((params.shape[0], k))
    for i in range(k):
        lo, hi = pair_indices(k, i)
        s[:, i] = np.abs(params[:, hi] - params[:, lo]).sum(axis=1)
    return s


@pytest.mark.parametrize("n", [0, 1, 7, 820, 5000])
@pytest.mark.parametrize("k", range(1, 7))
def test_salience_rows_matches_frozen_loop(k, n):
    params = np.random.default_rng(10 * k + n).normal(size=(n, 2**k))
    got = salience_rows(params, k)
    assert got.shape == (n, k)
    assert np.array_equal(got, loop_salience_rows(params, k))


def test_salience_and_gate_table_values():
    s = salience(AND_MASK)
    # column sums 0.89 + 0.90 and 0.05 + 0.06
    np.testing.assert_allclose(s, [1.79, 0.11], atol=1e-12)


def test_salience_constant_mask_is_zero():
    np.testing.assert_array_equal(salience(np.full(8, 0.37)), np.zeros(3))


def test_salience_matches_brute_force():
    rng = np.random.default_rng(4)
    for k in range(1, 7):
        for _ in range(25):
            params = rng.uniform(-1, 1, 2**k)
            np.testing.assert_allclose(
                salience(params), brute_salience(params, k), atol=1e-12
            )


def test_U_k2_matches_displayed_matrices():
    # input 0: averages index pairs {0,1} and {2,3}
    expected0 = 0.5 * np.array(
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=float
    )
    np.testing.assert_array_equal(build_U(2, 0), expected0)
    # input 1: averages index pairs {0,2} and {1,3}
    expected1 = 0.5 * np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float
    )
    np.testing.assert_array_equal(build_U(2, 1), expected1)


def test_U_k1_collapses_to_constant():
    np.testing.assert_array_equal(build_U(1, 0), np.full((2, 2), 0.5))


@pytest.mark.parametrize("k", range(1, 7))
def test_U_operator_properties(k):
    us = [build_U(k, i) for i in range(k)]
    for u in us:
        np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-12)  # row-stochastic
        np.testing.assert_allclose(u.sum(axis=0), 1.0, atol=1e-12)  # doubly
        np.testing.assert_allclose(u, u.T, atol=1e-12)  # symmetric
        np.testing.assert_allclose(u @ u, u, atol=1e-12)  # idempotent
    for a, b in itertools.combinations(us, 2):
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-12)  # commute


@pytest.mark.parametrize("k", range(1, 7))
def test_compose_matches_frozen_kron_product(k):
    """Every subset of positions, in every order given: the same dtype,
    shape and bits as the sorted product of Kronecker-built operators."""
    for m in range(k + 1):
        for pos in itertools.permutations(range(k), m):
            want = np.eye(2**k)
            for i in sorted(pos):
                want = want @ kron_U(k, i)
            got = compose_transforms(k, pos)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), pos


def test_compose_refuses_out_of_range():
    for k, pos in ((0, []), (7, []), (2, [2]), (3, [-1]), (3, [0, 3])):
        with pytest.raises(ContractError, match="out of range"):
            compose_transforms(k, pos)


def test_compose_empty_is_identity():
    np.testing.assert_array_equal(compose_transforms(3, []), np.eye(8))


def test_compose_all_is_global_mean():
    np.testing.assert_allclose(compose_transforms(2, [0, 1]), np.full((4, 4), 0.25),
                               atol=1e-12)


def test_compose_order_independent():
    a = build_U(2, 0) @ build_U(2, 1)
    b = build_U(2, 1) @ build_U(2, 0)
    np.testing.assert_allclose(a, b, atol=1e-12)
    np.testing.assert_allclose(compose_transforms(2, [0, 1]), a, atol=1e-12)
    np.testing.assert_array_equal(compose_transforms(2, [1, 0]),
                                  compose_transforms(2, [0, 1]))


def test_compose_zeroes_targeted_salience_only():
    rng = np.random.default_rng(5)
    v = compose_transforms(4, [1, 3])
    np.testing.assert_allclose(v @ v, v, atol=1e-12)
    for _ in range(20):
        params = rng.uniform(-1, 1, 16)
        s_before = salience(params)
        s_after = salience(params @ v)
        assert s_after[1] == 0.0 and s_after[3] == 0.0
        # averaging merges signed differences, so untouched positions can
        # only lose salience, never gain it
        assert np.all(s_after[[0, 2]] <= s_before[[0, 2]] + 1e-12)


def test_apply_transform_table_example():
    # severing input 1 (0-based) of the AND mask, rounds to -0.88 / 0.02
    out = AND_MASK @ compose_transforms(2, [1])
    np.testing.assert_allclose(out, [-0.875, 0.02, -0.875, 0.02], atol=1e-12)


def test_apply_transform_identity_and_idempotence():
    rng = np.random.default_rng(6)
    ident = compose_transforms(3, [])
    v = compose_transforms(3, [0, 2])
    masks = rng.uniform(-1, 1, (1000, 8))  # one mask per row
    np.testing.assert_array_equal(masks @ ident, masks)
    once = masks @ v
    np.testing.assert_allclose(once @ v, once, atol=1e-12)


def test_mean_preservation():
    rng = np.random.default_rng(7)
    for k in range(1, 6):
        v = compose_transforms(k, rng.choice(k, size=max(1, k // 2), replace=False))
        params = rng.uniform(-1, 1, 2**k)
        assert abs((params @ v).mean() - params.mean()) <= 1e-12


def test_zero_salience_severance_preserves_function():
    rng = np.random.default_rng(8)
    for k in range(2, 7):
        for _ in range(100):
            params = rng.uniform(-1, 1, 2**k)
            # plant a dead input by pre-averaging a random position
            dead = int(rng.integers(k))
            params = params @ build_U(k, dead)
            s = salience(params)
            zero_pos = [i for i in range(k) if s[i] == 0.0]
            assert dead in zero_pos
            out = params @ compose_transforms(k, zero_pos)
            np.testing.assert_array_equal(sign_bits(out), sign_bits(params))


def test_min_salience_severance_bounded_table_change():
    rng = np.random.default_rng(9)
    for k in range(2, 7):
        for _ in range(100):
            params = rng.uniform(-1, 1, 2**k)
            i = int(np.argmin(salience(params)))
            out = params @ compose_transforms(k, [i])
            diff = sign_bits(out) != sign_bits(params)
            assert diff.sum() <= 2 ** (k - 1)


def test_prune_mask_trivial_fractions():
    s = np.array([[1.79, 0.11], [0.50, 0.40]])
    prev = np.zeros((2, 2), dtype=bool)
    assert build_prune_mask(s, 0.0, prev).count == 0
    np.testing.assert_array_equal(
        build_prune_mask(s, 1.0, prev).mask, np.ones((2, 2), dtype=bool)
    )


def test_prune_mask_ranks_ascending():
    s = np.array([[1.79, 0.11], [0.50, 0.40]])
    m = build_prune_mask(s, 0.5, None)
    # hand sort: 0.11 < 0.40 < 0.50 < 1.79 -> (0,1) and (1,1) pruned
    np.testing.assert_array_equal(m.mask, [[False, True], [False, True]])
    assert m.count == 2


def test_prune_mask_monotone_and_exact_count():
    rng = np.random.default_rng(11)
    scores = rng.uniform(0, 1, (50, 4))
    prev = None
    for t in range(1, 5):
        delta_t = 0.8 * t / 4
        # severed entries report zero salience from then on
        sc = scores.copy()
        if prev is not None:
            sc[prev] = 0.0
        cur = build_prune_mask(sc, delta_t, prev).mask
        assert cur.sum() == int(np.floor(delta_t * 200))
        if prev is not None:
            assert np.all(cur[prev])
        prev = cur


def test_prune_mask_stable_tiebreak():
    m = build_prune_mask(np.zeros((2, 3)), 0.5, None)  # floor(3) of 6 equal
    np.testing.assert_array_equal(m.mask, [[True, True, True], [False, False, False]])


def test_prune_mask_refuses_bad_arguments():
    s = np.array([[0.5, 0.1]])
    for args, match in (((s, 1.5), r"delta_t must be in \[0,1\]"),
                        ((-s, 0.5), "non-negative"),
                        ((s[0], 0.5), "2-D"),
                        ((s, 0.5, np.zeros((2, 1), dtype=bool)), "shape mismatch")):
        with pytest.raises(ContractError, match=match):
            build_prune_mask(*args)


def test_salience_rows_matches_single():
    rng = np.random.default_rng(12)
    params = rng.uniform(-1, 1, (10, 8))
    rows = salience_rows(params, 3)
    for n in range(10):
        np.testing.assert_array_equal(rows[n], salience_rows(params[n], 3)[0])
        np.testing.assert_allclose(rows[n], brute_salience(params[n], 3), atol=1e-15)
