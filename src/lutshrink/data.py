"""Dataset ingestion: MNIST-style IDX files and synthetic Boolean tasks."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

SYNTH_MAX_INPUTS = 20  # exhaustion bound for synthetic tasks


class DataError(ValueError):
    pass


@dataclass
class Dataset:
    """Feature vectors in [-1,1] with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise DataError("features/labels shape mismatch")
        if len(self.labels) and not (
            0 <= self.labels.min() and self.labels.max() < self.num_classes
        ):
            raise DataError("labels out of range")

    def __len__(self) -> int:
        return len(self.labels)


def _read_header(raw: bytes, path: str, magic: int, ndim: int) -> tuple[int, ...]:
    need = 4 * (1 + ndim)
    if len(raw) < need:
        raise DataError(f"{path}: truncated header")
    got = struct.unpack(">I", raw[:4])[0]
    if got != magic:
        raise DataError(f"{path}: bad IDX magic {got:#010x}, expected {magic:#010x}")
    return struct.unpack(f">{ndim}I", raw[4:need])


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label pair; pixels scaled to [-1,1] by x/127.5 - 1."""
    with open(images_path, "rb") as f:
        img_raw = f.read()
    with open(labels_path, "rb") as f:
        lab_raw = f.read()

    n, rows, cols = _read_header(img_raw, images_path, IDX_IMAGES_MAGIC, 3)
    (n_lab,) = _read_header(lab_raw, labels_path, IDX_LABELS_MAGIC, 1)
    if n != n_lab:
        raise DataError(f"count mismatch: {n} images vs {n_lab} labels")
    if len(img_raw) != 16 + n * rows * cols:
        raise DataError(f"{images_path}: truncated pixel data")
    if len(lab_raw) != 8 + n:
        raise DataError(f"{labels_path}: truncated label data")

    pixels = np.frombuffer(img_raw, dtype=np.uint8, offset=16).reshape(n, rows * cols)
    features = pixels.astype(np.float32) / 127.5 - 1.0
    labels = np.frombuffer(lab_raw, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(features, labels, 10)


def _boolean_label(fn: str, patterns: np.ndarray, rng: np.random.Generator):
    m = patterns.shape[1]
    ones = (patterns > 0).sum(axis=1)
    if fn in ("parity", "xor"):
        return (ones % 2).astype(np.int64)
    if fn == "majority":
        return (2 * ones > m).astype(np.int64)
    if fn == "random":
        table = rng.integers(0, 2, size=2**m).astype(np.int64)
        idx = ((patterns > 0) << np.arange(m)).sum(axis=1)
        return table[idx]
    raise DataError(f"unknown boolean function {fn!r}")


def synth_boolean(fn: str, m: int, n_samples: int, seed: int = 0) -> Dataset:
    """Deterministic labeled dataset for a Boolean function over m +/-1 inputs.

    Exhaustive (all 2^m patterns, index order) when 2^m <= n_samples,
    otherwise n_samples seeded uniform draws.
    """
    if m > SYNTH_MAX_INPUTS:
        raise DataError(f"refusing m={m} > {SYNTH_MAX_INPUTS} inputs")
    rng = np.random.default_rng(seed)
    if 2**m <= n_samples:
        idx = np.arange(2**m)
        patterns = np.where((idx[:, None] >> np.arange(m)) & 1 == 1, 1.0, -1.0)
    else:
        patterns = rng.choice([-1.0, 1.0], size=(n_samples, m))
    labels = _boolean_label(fn, patterns, rng)
    return Dataset(patterns.astype(np.float32), labels, 2)

