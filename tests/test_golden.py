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

The xor-smoke Verilog hash changed once more when ``simplify`` began to
fold thresholds a sum cannot reach. Its old text compared a 3-bit sum with
``-3'sd5``, which a Verilog tool reads as 3 (``3'sd5`` is ``3'b101``, that
is -3), not as -5; that threshold is now the constant it always was in the
model, and its sum is gone. ``XOR_SMOKE_OLD`` keeps the old text, which the
width-faithful certificate now fails.

The parity8 checkpoint hash was taken again when the high-precision LUT
kernel stopped reading severed inputs: before, a severed input still
reached the LUT output and the input gradient through rounding. After
shrink, the LUT masks and the dense shadows below them differ by at most
1.1e-16 and 2.8e-17, with the same inputs severed. The Verilog, accuracy
and area did not change, and neither did either xor-smoke hash. The
checkpoint bytes depend on the summation order of the installed numpy and
BLAS.

Both checkpoint hashes were taken again for checkpoint format 3, which moved
the schema only. It no longer stores what the config or the layer order
fixes: each layer's ``alpha`` (1/sqrt(n_in)) and ``is_output`` (the last
layer), the dense ``shrinkable`` (``[model] shrink_layers``), the network's
``num_classes`` (the last layer's ``n_out``) and the shrink plan's
``random_mode`` (``[shrink] random_prune``). Every layer array, the config
and the RNG state are bit for bit those of format 2 after each phase, and
both Verilog hashes did not change.
"""

import hashlib
import os

import numpy as np
import pytest

from lutshrink import verilog
from lutshrink.checkpoint import load as load_checkpoint
from lutshrink.cli import main
from lutshrink.config import load_datasets
from lutshrink.netlist import classify
from lutshrink.verilog import parse_verilog

GOLDEN = {
    "xor-smoke": (
        "e2d9b39f62993d1548af6e3c91da07405f7b8c65b9e3de85f6307211aadf9872",
        "95c04e2f01de786c2ab8693affa62db4da7c93d15c86b200026765aba32cf9af",
    ),
    "parity8": (
        "793f3578167476f12fbc137906f7a4e76edbac71911808093e41fb98afd33da3",
        "476e5454e657e5a2235cc1727ee366b21cd96a404382b1e45acfc32bf9c1d7b3",
    ),
}


# the xor-smoke Verilog before unreachable thresholds were folded
XOR_SMOKE_OLD = """\
module top (
    input wire [1:0] in,
    output wire signed [3:0] score_0,
    output wire signed [3:0] score_1
);
  wire signed [2:0] n4;
  assign n4 = ((in[0] ? 3'sd1 : -3'sd1) + (in[1] ? -3'sd1 : 3'sd1));
  wire n5;
  assign n5 = (n4 >= -3'sd5);
  wire signed [2:0] n6;
  assign n6 = ((in[0] ? 3'sd1 : -3'sd1) + (in[1] ? 3'sd1 : -3'sd1));
  wire n7;
  assign n7 = (n6 >= 3'sd1);
  wire signed [2:0] n10;
  assign n10 = ((in[0] ? 3'sd1 : -3'sd1) + (in[1] ? 3'sd1 : -3'sd1));
  wire n11;
  assign n11 = (n10 >= 3'sd0);
  wire signed [2:0] n12;
  assign n12 = ((in[0] ? -3'sd1 : 3'sd1) + (in[1] ? -3'sd1 : 3'sd1));
  wire n13;
  assign n13 = (n12 >= 3'sd1);
  wire signed [2:0] n14;
  assign n14 = ((in[0] ? -3'sd1 : 3'sd1) + (in[1] ? -3'sd1 : 3'sd1));
  wire n15;
  assign n15 = (n14 >= -3'sd1);
  wire signed [2:0] n16;
  assign n16 = ((in[0] ? 3'sd1 : -3'sd1) + (in[1] ? -3'sd1 : 3'sd1));
  wire n17;
  assign n17 = (n16 >= 3'sd1);
  wire signed [3:0] n30;
  assign n30 = ((((n5 ? 4'sd1 : -4'sd1) + (n7 ? 4'sd1 : -4'sd1)) + (n11 ? -4'sd1 : 4'sd1)) + (((n13 ? 4'sd1 : -4'sd1) + (n15 ? -4'sd1 : 4'sd1)) + (n17 ? -4'sd1 : 4'sd1)));
  wire signed [3:0] n32;
  assign n32 = ((((n5 ? -4'sd1 : 4'sd1) + (n7 ? -4'sd1 : 4'sd1)) + (n11 ? 4'sd1 : -4'sd1)) + (((n13 ? -4'sd1 : 4'sd1) + (n15 ? 4'sd1 : -4'sd1)) + (n17 ? 4'sd1 : -4'sd1)));
  assign score_0 = n30;
  assign score_1 = n32;
endmodule
"""


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _final_checkpoint(preset: str, out: str) -> str:
    ckpt = os.path.join(out, "checkpoint.json")
    assert main(["train", "--preset", preset, "--out", out]) == 0
    for command in ("expand", "shrink", "finalize"):
        assert main([command, ckpt]) == 0
    return ckpt


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_preset_pipeline_is_byte_identical(preset, tmp_path):
    out = str(tmp_path)
    ckpt = _final_checkpoint(preset, out)
    assert main(["export", ckpt, "--out", out]) == 0
    text, checkpoint = GOLDEN[preset]
    assert _sha256(os.path.join(out, "netlist.v")) == text
    assert _sha256(ckpt) == checkpoint


def test_old_xor_smoke_text_fails_the_certificate(tmp_path, monkeypatch):
    out = str(tmp_path)
    ckpt = _final_checkpoint("xor-smoke", out)
    monkeypatch.setattr(verilog, "emit_verilog", lambda nl, top: XOR_SMOKE_OLD)
    assert main(["export", ckpt, "--out", out]) == 1
    with open(os.path.join(out, "certificate.txt")) as f:
        assert f.read() == "samples\t4\nmismatches\t4\nstatus\tFAIL\n"
    # every score is off by two, yet no class changes: a certificate on
    # classes alone would pass
    net, cfg, *_ = load_checkpoint(ckpt)
    x = load_datasets(cfg)[1].features
    old = classify(parse_verilog(XOR_SMOKE_OLD), np.where(x >= 0, 1, -1))
    np.testing.assert_array_equal(old, net.predict_bin(x))
