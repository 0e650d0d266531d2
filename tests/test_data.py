import struct

import numpy as np
import pytest

from lutshrink.data import (
    DataError,
    load_idx,
    synth_boolean,
)


def write_idx_pair(tmp_path, pixels: np.ndarray, labels: np.ndarray,
                   img_magic=0x803, lab_magic=0x801, lab_count=None):
    n, rows, cols = pixels.shape
    img = tmp_path / "images"
    lab = tmp_path / "labels"
    img.write_bytes(
        struct.pack(">IIII", img_magic, n, rows, cols) + pixels.astype(np.uint8).tobytes()
    )
    lab.write_bytes(
        struct.pack(">II", lab_magic, lab_count if lab_count is not None else n)
        + labels.astype(np.uint8).tobytes()
    )
    return str(img), str(lab)


def test_idx_round_trip_and_scaling(tmp_path):
    pixels = np.zeros((3, 2, 2), dtype=np.uint8)
    pixels[0] = 0
    pixels[1] = 255
    pixels[2] = 128
    labels = np.array([7, 0, 9])
    ds = load_idx(*write_idx_pair(tmp_path, pixels, labels))
    assert ds.features.shape == (3, 4) and ds.num_classes == 10
    np.testing.assert_allclose(ds.features[0], -1.0)
    np.testing.assert_allclose(ds.features[1], 1.0)
    np.testing.assert_allclose(ds.features[2], 128 / 127.5 - 1.0, atol=1e-6)
    np.testing.assert_array_equal(ds.labels, labels)


def test_idx_bad_magic(tmp_path):
    pixels = np.zeros((1, 2, 2), dtype=np.uint8)
    labels = np.zeros(1)
    img, lab = write_idx_pair(tmp_path, pixels, labels, img_magic=0x804)
    with pytest.raises(DataError, match="bad IDX magic"):
        load_idx(img, lab)
    img, lab = write_idx_pair(tmp_path, pixels, labels, lab_magic=0x802)
    with pytest.raises(DataError, match="bad IDX magic"):
        load_idx(img, lab)


def test_idx_count_mismatch(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.zeros(2)
    img, lab = write_idx_pair(tmp_path, pixels, labels, lab_count=3)
    with pytest.raises(DataError, match="count mismatch"):
        load_idx(img, lab)


def test_idx_truncated(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.zeros(2)
    img, lab = write_idx_pair(tmp_path, pixels, labels)
    raw = open(img, "rb").read()
    open(img, "wb").write(raw[:-1])
    with pytest.raises(DataError, match="truncated pixel data"):
        load_idx(img, lab)
    open(img, "wb").write(raw[:10])
    with pytest.raises(DataError, match="truncated header"):
        load_idx(img, lab)


def test_synth_parity_exhaustive():
    ds = synth_boolean("parity", 3, 8)
    assert len(ds) == 8 and ds.num_classes == 2
    # index order: input j is bit j of the pattern index
    for i in range(8):
        bits = [(i >> j) & 1 for j in range(3)]
        np.testing.assert_array_equal(ds.features[i], [1.0 if b else -1.0 for b in bits])
        assert ds.labels[i] == sum(bits) % 2


def test_synth_majority():
    ds = synth_boolean("majority", 3, 8)
    for x, y in zip(ds.features, ds.labels):
        assert y == (1 if (x > 0).sum() * 2 > 3 else 0)


def test_synth_random_is_seed_deterministic():
    a = synth_boolean("random", 4, 16, seed=5)
    b = synth_boolean("random", 4, 16, seed=5)
    c = synth_boolean("random", 4, 16, seed=6)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a.labels, c.labels)


def test_synth_subsampled_when_space_is_large():
    ds = synth_boolean("parity", 12, 100, seed=1)
    assert len(ds) == 100
    assert set(np.unique(ds.features)) == {-1.0, 1.0}


def test_synth_refuses_huge_input_counts():
    with pytest.raises(DataError, match="refusing"):
        synth_boolean("parity", 21, 10)


def test_synth_unknown_function():
    with pytest.raises(DataError, match="unknown boolean function"):
        synth_boolean("nand3", 3, 8)

