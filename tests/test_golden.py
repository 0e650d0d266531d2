"""Golden hashes of whole pipeline runs of the shipped presets.

A refactor or speed-up must leave both files byte-identical. A change that
alters numerics on purpose updates the hashes and says why in CHANGES.md.
The Verilog hashes predate the corner-major LUT kernel (its binarized path
is bit-exact); the checkpoint hashes were taken after it, because its
high-precision phases round differently in the last ulp and the checkpoint
no longer records the removed ``binarize_inputs`` knob.
"""

import hashlib
import os

import pytest

from lutshrink.cli import main

GOLDEN = {
    "xor-smoke": (
        "de7df30b598013f4064ca59e37dae199cb709fed383c267f4ea3e1f2a1d313eb",
        "f46f5df63705ea1e0b0137e5f8586d0d620ff503de656cfbfe10299ec3cff4c1",
    ),
    "parity8": (
        "793f3578167476f12fbc137906f7a4e76edbac71911808093e41fb98afd33da3",
        "f70a528f153a77647f4012b8bee2f39aa5009628d5777fc53cd75db5085897db",
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
