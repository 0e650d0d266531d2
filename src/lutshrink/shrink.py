"""Learned LUT input removal, on whole stacks of masks.

Salience of input i of a LUT is the total absolute difference between its
mask entry pairs that differ only in input i; ``salience_rows`` scores an
(n, 2^k) stack at once. Low-salience inputs are severed by a mean-merge:
every such pair is replaced by its average. Severing a set S of m inputs
is one symmetric 2^k x 2^k averaging operator V, applied to rows of masks
as ``masks @ V``: entry (r, c) is 2^-m where corners r and c agree on
every input outside S, and 0 elsewhere. V is the product over S of the
single-input operators

    U_i = 1/2 * I(2^(k-i-1)) (x) ones(2,2) (x) I(2^i)

(input 0 = least-significant axis; (x) is the Kronecker product), which
are symmetric, idempotent, doubly stochastic and pairwise commuting. Each
entry of that product is a single power of two, so building V directly
gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lutcore import FLIP_PAIRS, MAX_K, ContractError


def salience_rows(params: np.ndarray, k: int) -> np.ndarray:
    """Per-input salience for a stack of masks; params shape (n, 2^k). One
    gather of the corner pairs of every input, summed per input."""
    params = np.atleast_2d(np.asarray(params, dtype=np.float64))
    if params.shape[1] != 2**k:
        raise ContractError(f"expected {2**k} columns for k={k}")
    lo, hi = FLIP_PAIRS[k]
    diff = np.abs(params[:, hi] - params[:, lo])
    return diff.reshape(len(params), k, 2 ** (k - 1)).sum(axis=2)


def compose_transforms(k: int, positions) -> np.ndarray:
    """The averaging operator V severing the inputs at ``positions`` of a
    k-LUT (the identity when there are none)."""
    if not 1 <= k <= MAX_K:
        raise ContractError(f"k={k} out of range")
    positions = set(positions)
    if not positions <= set(range(k)):
        raise ContractError(f"input positions {sorted(positions)} out of range for k={k}")
    rest = np.arange(2**k) & ~sum(1 << int(i) for i in positions)
    return (rest[:, None] == rest[None, :]) * 2.0 ** -len(positions)


def build_U(k: int, i: int) -> np.ndarray:
    """Averaging operator U_i removing input i (0-based) of a k-LUT."""
    return compose_transforms(k, [i])


@dataclass(frozen=True)
class PruneMask:
    """Boolean (n_luts, k) matrix of severed (lut, input) pairs."""

    mask: np.ndarray

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def build_prune_mask(scores: np.ndarray, delta_t: float,
                     previous: np.ndarray | None = None) -> PruneMask:
    """Mark the floor(delta_t * n * k) lowest entries of the (n, k) salience
    ``scores`` for removal.

    Ranking is ascending with a stable (lut index, input position) tiebreak;
    entries already severed in ``previous`` rank strictly first (their
    salience is 0 by construction), so with a non-decreasing schedule the
    result is a superset of ``previous`` and its popcount is exactly the
    floored target.
    """
    if not 0.0 <= delta_t <= 1.0:
        raise ContractError(f"delta_t must be in [0,1], got {delta_t}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or np.any(scores < 0):
        raise ContractError("salience scores must be 2-D and non-negative")
    n, k = scores.shape
    prev = np.zeros((n, k), dtype=bool) if previous is None else previous.astype(bool)
    if prev.shape != scores.shape:
        raise ContractError("previous mask shape mismatch")
    key = scores.ravel().copy()
    key[prev.ravel()] = -1.0  # already-severed entries stay ahead of all ties
    order = np.argsort(key, kind="stable")
    n_prune = int(np.floor(delta_t * n * k))
    mask = np.zeros(n * k, dtype=bool)
    mask[order[:n_prune]] = True
    mask |= prev.ravel()  # monotone even if the schedule ever regressed
    return PruneMask(mask.reshape(n, k))
