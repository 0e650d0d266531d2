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

Both checkpoint hashes were taken again for checkpoint format 4, which again
moved the schema only. A layer no longer stores its ``name`` (layer i is
``fc{i+1}``), the shrink plan no longer stores its ``deltas`` (iteration t
targets ``delta * t / iterations``), and the config no longer holds
``epochs_bnn``, ``lr_decay`` and ``momentum``: the xor-smoke preset writes
its 200 BNN epochs at rate 0.05 as ``lr_schedule = 0.05:200``, and the decay
0.5 and momentum 0.9 are constants. Every layer array, every other config
value and the RNG state are bit for bit those of format 3 after each phase,
and both Verilog hashes did not change.

Both checkpoint hashes were taken again for checkpoint format 5. A LUT layer
no longer stores its ``k`` (it is ``[expand] k``), and ``finalize`` no
longer folds the severance averaging into the masks: a ``final`` checkpoint
stores the raw masks and ``pruned``, as every earlier phase does, and
``effective_masks()`` applies the averaging when they are read. The loaded
network's ``effective_masks()`` equal the format-4 stored final masks bit
for bit; every other layer array, the config and the RNG state are those of
format 4 after each phase, and both Verilog hashes did not change.

``LUT_HIDDEN`` covers a LUT layer that is hidden, with a batch norm and a
dense layer after it, which neither preset has: two hidden layers with
``fc2`` expanded, from an INI file the test writes. Its two hashes were
recorded on the code from before the layer constructors took the arrays a
checkpoint stores, and that change left them as they were.

The three Verilog hashes (xor-smoke, parity8 and ``LUT_HIDDEN``) were taken
again when each sum began to be emitted as two popcounts,
``((P - N) <<< 1) + C``, in place of a balanced adder tree of
``(w ? W'sd1 : -W'sd1)`` leaves. Every sum keeps its terms, offset and
declared width, and every LUT, threshold and output assign is unchanged;
no checkpoint hash moved. ``XOR_SMOKE_OLD`` was rewritten in the same form,
with its ``-3'sd5`` compare kept.

The ``LUT_HIDDEN`` Verilog hash was taken again when each LUT began to be
emitted as its truth-table constant and a bit-select of it,
``localparam [3:0] Tn46 = 4'h8;`` and ``assign n46 = Tn46[{n30, n18}];``,
in place of a sum of minterms. Its 13 two-input and 8 three-input LUTs are
the only lines that changed, and its certificate still passes on all 128
samples. The xor-smoke and parity8 hashes did not move: after ``simplify``
neither netlist holds a LUT node, only inputs, sums, thresholds and
outputs. No checkpoint hash moved.

The checkpoint bytes also depend on the BLAS kernel. OpenBLAS picks one for
the CPU when it loads, and its SkylakeX, Haswell (which Zen shares) and
Sandybridge kernels sum float64 products in different orders: the parity8
checkpoint differs between SkylakeX and Haswell, and the ``LUT_HIDDEN`` one
under Sandybridge. So each golden pipeline runs in one child interpreter
with ``OPENBLAS_CORETYPE=Haswell``, which needs only AVX2, and the parity8
checkpoint hash was taken again under it (it was ``70a1152b...`` under
SkylakeX). The xor-smoke and ``LUT_HIDDEN`` checkpoint hashes and all three
Verilog hashes are the same under both. ``OPENBLAS_VERBOSE=2`` makes the
child name the kernel it ran on a ``Core:`` line, which a failed assertion
shows.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lutshrink import cli, train, verilog
from lutshrink.checkpoint import load as load_checkpoint
from lutshrink.cli import main
from lutshrink.config import load_datasets
from lutshrink.netlist import classify
from lutshrink.verilog import parse_verilog

GOLDEN = {
    "xor-smoke": (
        "d96f1c48f35b11ef486ab5e407b6f7c8a660eb024cad0fac980441aa7b042626",
        "270c6a6c061910f3d63e414702da773fa2ba529b1d688586bc3853f302ad67ae",
    ),
    "parity8": (
        "8bda601ee3ba7c7e86270b634d0928eebc5f6f03f95b9e09a7b8c0d76af4523f",
        "aba8962ebe7f3a704a0adeb99048d91bb204e72fb0a79a6d752d6f2f3bb39c5c",
    ),
}

# (Verilog, checkpoint) sha256 of a run of LUT_HIDDEN_INI
LUT_HIDDEN = (
    "06994d17a52a8e928aed7b49b7e341b8bbe128450923dddcd891d5fa2dbf649b",
    "6bbc4e073c53f4f10fe76cfea0128a5e2abf6af1144f4c8b22d0d4a10bab20da",
)
LUT_HIDDEN_INI = """\
[data]
dataset = synth
function = majority
inputs = 7
samples = 128

[model]
hidden = 16, 16
shrink_layers = fc2

[train]
seed = 0
lr = 0.05
lr_schedule = 0.05:150
batch_size = 4

[prune]
theta = 0.5
epochs = 20

[expand]
k = 3
epochs = 20

[shrink]
delta = 0.4
iterations = 2
epochs_per_iter = 10

[finalize]
epochs = 20
"""


# the xor-smoke Verilog before unreachable thresholds were folded, its sums
# written as popcounts
XOR_SMOKE_OLD = """\
module top (
    input wire [1:0] in,
    output wire signed [3:0] score_0,
    output wire signed [3:0] score_1
);
  wire signed [2:0] n4;
  assign n4 = ((in[0] - (in[1])) <<< 1) + 3'sd0;
  wire n5;
  assign n5 = (n4 >= -3'sd5);
  wire signed [2:0] n6;
  assign n6 = ((in[0] + in[1] - (1'b0)) <<< 1) + -3'sd2;
  wire n7;
  assign n7 = (n6 >= 3'sd1);
  wire signed [2:0] n10;
  assign n10 = ((in[0] + in[1] - (1'b0)) <<< 1) + -3'sd2;
  wire n11;
  assign n11 = (n10 >= 3'sd0);
  wire signed [2:0] n12;
  assign n12 = ((1'b0 - (in[0] + in[1])) <<< 1) + 3'sd2;
  wire n13;
  assign n13 = (n12 >= 3'sd1);
  wire signed [2:0] n14;
  assign n14 = ((1'b0 - (in[0] + in[1])) <<< 1) + 3'sd2;
  wire n15;
  assign n15 = (n14 >= -3'sd1);
  wire signed [2:0] n16;
  assign n16 = ((in[0] - (in[1])) <<< 1) + 3'sd0;
  wire n17;
  assign n17 = (n16 >= 3'sd1);
  wire signed [3:0] n30;
  assign n30 = ((n5 + n7 + n13 - (n11 + n15 + n17)) <<< 1) + 4'sd0;
  wire signed [3:0] n32;
  assign n32 = ((n11 + n15 + n17 - (n5 + n7 + n13)) <<< 1) + 4'sd0;
  assign score_0 = n30;
  assign score_1 = n32;
endmodule
"""


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# the BLAS kernel every golden hash was taken on, and its name on stderr
PINNED_BLAS = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_VERBOSE": "2"}
# runs each argv of the JSON list argv[1] through the CLI, in order, and
# stops at the first that fails
CHILD = """\
import json, sys
from lutshrink.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(1)
"""


def _pinned_pipeline(train_args: list[str], out: str) -> tuple[str, str]:
    """Train with ``train_args``, run every stage and export into ``out``,
    all in one child interpreter on the ``PINNED_BLAS`` kernel. Returns the
    final checkpoint and the child's ``Core:`` line."""
    ckpt = os.path.join(out, "checkpoint.json")
    steps = [["train", *train_args, "--out", out],
             *([command, ckpt] for command in train.STAGES),
             ["export", ckpt, "--out", out]]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(steps)],
                           env={**os.environ, **PINNED_BLAS, "PYTHONPATH": path},
                           capture_output=True, text=True)
    core = next((line for line in child.stderr.splitlines()
                 if line.startswith("Core:")), "no Core: line")
    assert child.returncode == 0, f"{core}\n{child.stderr}"
    return ckpt, core


def _final_checkpoint(preset: str, out: str) -> str:
    ckpt = os.path.join(out, "checkpoint.json")
    assert main(["train", "--preset", preset, "--out", out]) == 0
    for command in ("expand", "shrink", "finalize"):
        assert main([command, ckpt]) == 0
    return ckpt


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_preset_pipeline_is_byte_identical(preset, tmp_path):
    out = str(tmp_path)
    ckpt, core = _pinned_pipeline(["--preset", preset], out)
    text, checkpoint = GOLDEN[preset]
    assert _sha256(os.path.join(out, "netlist.v")) == text, core
    assert _sha256(ckpt) == checkpoint, core


def test_hidden_lut_pipeline_is_byte_identical(tmp_path):
    out = str(tmp_path)
    ini = tmp_path / "lut-hidden.ini"
    ini.write_text(LUT_HIDDEN_INI)
    ckpt, core = _pinned_pipeline(["--config", str(ini)], out)
    net = load_checkpoint(ckpt)[0]
    assert [lay.kind for lay in net.layers] == ["dense", "lut", "dense"]
    assert _sha256(os.path.join(out, "netlist.v")) == LUT_HIDDEN[0], core
    assert _sha256(ckpt) == LUT_HIDDEN[1], core


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
