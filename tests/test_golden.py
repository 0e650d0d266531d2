"""Golden hashes of whole pipeline runs of the shipped presets.

A refactor or speed-up must leave both files byte-identical. A change that
alters numerics on purpose updates the hashes and says why in CHANGES.md.
The Verilog hashes predate the corner-major LUT kernel (its binarized path
is bit-exact); the checkpoint hashes were taken after it, because its
high-precision phases round differently in the last ulp and the checkpoint
no longer records the removed ``binarize_inputs`` knob. They were taken again
for checkpoint format 2 (arrays as base64 of raw little-endian bytes, no
shrink-plan saliences or masks): a new format on purpose, while every layer
array loads bit for bit as the format-1 checkpoint did.
"""

import hashlib
import os

import pytest

from lutshrink.cli import main

GOLDEN = {
    "xor-smoke": (
        "de7df30b598013f4064ca59e37dae199cb709fed383c267f4ea3e1f2a1d313eb",
        "7082743a3da12eb794a6353e5fecf784328bf2a102a8493afc6930b7ece140b4",
    ),
    "parity8": (
        "793f3578167476f12fbc137906f7a4e76edbac71911808093e41fb98afd33da3",
        "0797ea17ae5bd38d816c025fe76708fb1659872761aabe1b061dad5e7772f188",
    ),
}


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_preset_pipeline_is_byte_identical(preset, tmp_path):
    out = str(tmp_path)
    ckpt = os.path.join(out, "checkpoint.json")
    assert main(["train", "--preset", preset, "--out", out]) == 0
    for command in ("expand", "shrink", "finalize"):
        assert main([command, ckpt]) == 0
    assert main(["export", ckpt, "--out", out, "--cert-samples", "256"]) == 0
    verilog, checkpoint = GOLDEN[preset]
    assert _sha256(os.path.join(out, "netlist.v")) == verilog
    assert _sha256(ckpt) == checkpoint
