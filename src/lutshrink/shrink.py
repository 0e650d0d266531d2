"""Learned LUT input removal.

Salience of input i is the total absolute difference between mask entry
pairs that differ only in input i. Low-salience inputs are severed by a
mean-merge: every such pair is replaced by its average, implemented as a
matrix-vector product with the averaging operator

    U_i = 1/2 * I(2^(k-i-1)) (x) ones(2,2) (x) I(2^i)

(input 0 = least-significant axis; (x) is the Kronecker product). The U_i
are symmetric, idempotent, doubly stochastic and pairwise commuting, so
multi-input removal is their plain product in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lutcore import FLIP_PAIRS, MAX_K, ContractError, LutMask


def salience_rows(params: np.ndarray, k: int) -> np.ndarray:
    """Per-input salience for a stack of masks; params shape (n, 2^k). One
    gather of the corner pairs of every input, summed per input."""
    params = np.atleast_2d(np.asarray(params, dtype=np.float64))
    if params.shape[1] != 2**k:
        raise ContractError(f"expected {2**k} columns for k={k}")
    lo, hi = FLIP_PAIRS[k]
    diff = np.abs(params[:, hi] - params[:, lo])
    return diff.reshape(len(params), k, 2 ** (k - 1)).sum(axis=2)


def salience(mask: LutMask) -> np.ndarray:
    """Salience of each input of a single LUT."""
    return salience_rows(mask.params[None, :], mask.k)[0]


@dataclass(frozen=True)
class TransformMatrix:
    """Dense 2^k x 2^k averaging operator severing a set of LUT inputs."""

    k: int
    entries: np.ndarray

    def apply(self, params: np.ndarray) -> np.ndarray:
        """Matrix-vector (or batched: rows of params) application."""
        params = np.asarray(params, dtype=np.float64)
        if params.shape[-1] != 2**self.k:
            raise ContractError("mask length does not match transform size")
        # entries is symmetric, so right-multiplication handles row batches
        return params @ self.entries


def build_U(k: int, i: int) -> TransformMatrix:
    """Averaging operator removing input i (0-based) of a k-LUT."""
    if not 0 <= i < k:
        raise ContractError(f"input position {i} out of range for k={k}")
    if not 1 <= k <= MAX_K:
        raise ContractError(f"k={k} out of range")
    u = np.kron(
        np.kron(np.eye(2 ** (k - i - 1)), np.ones((2, 2))),
        np.eye(2**i),
    ) / 2.0
    return TransformMatrix(k, u)


def compose_transforms(k: int, positions) -> TransformMatrix:
    """Product of U_i over the given positions (identity when empty)."""
    v = np.eye(2**k)
    for i in sorted(set(positions)):
        v = v @ build_U(k, i).entries
    return TransformMatrix(k, v)


def apply_transform(v: TransformMatrix, mask: LutMask) -> LutMask:
    """Sever inputs of one mask: c' = V c."""
    if mask.k != v.k:
        raise ContractError("transform and mask sizes disagree")
    return LutMask(mask.k, v.apply(mask.params))


@dataclass(frozen=True)
class SalienceMatrix:
    """Per-LUT, per-input salience scores; shape (n_luts, k)."""

    scores: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if s.ndim != 2 or np.any(s < 0):
            raise ContractError("salience matrix must be 2-D and non-negative")
        object.__setattr__(self, "scores", s)


@dataclass(frozen=True)
class PruneMask:
    """Binary matrix of severed (lut, input) pairs plus its target fraction."""

    mask: np.ndarray
    target_fraction: float

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def build_prune_mask(
    s: SalienceMatrix, delta_t: float, previous: PruneMask | None = None
) -> PruneMask:
    """Mark the floor(delta_t * n * k) lowest-salience entries for removal.

    Ranking is ascending with a stable (lut index, input position) tiebreak;
    entries already in `previous` rank strictly first (their salience is 0 by
    construction), so with a non-decreasing schedule the result is a superset
    of `previous` and its popcount is exactly the floored target.
    """
    if not 0.0 <= delta_t <= 1.0:
        raise ContractError(f"delta_t must be in [0,1], got {delta_t}")
    scores = s.scores
    n, k = scores.shape
    if previous is None:
        prev = np.zeros((n, k), dtype=bool)
    else:
        prev = previous.mask.astype(bool)
        if prev.shape != scores.shape:
            raise ContractError("previous mask shape mismatch")
    key = scores.ravel().copy()
    key[prev.ravel()] = -1.0  # already-severed entries stay ahead of all ties
    order = np.argsort(key, kind="stable")
    n_prune = int(np.floor(delta_t * n * k))
    mask = np.zeros(n * k, dtype=bool)
    mask[order[:n_prune]] = True
    mask |= prev.ravel()  # monotone even if the schedule ever regressed
    return PruneMask(mask.reshape(n, k), float(delta_t))
