"""LUT-network training with learned input pruning and Verilog export.

Exports resolve on first use (PEP 562): ``import lutshrink.cli`` must not
load numpy before the CLI has set the BLAS thread count."""

import importlib

_EXPORTS = {
    "data": ["Dataset", "load_idx", "synth_boolean"],
    "lutcore": ["LutMask", "TruthTable", "binarize_mask", "lut_forward"],
    "model": ["Network"],
    "shrink": ["build_U", "build_prune_mask", "compose_transforms", "salience"],
    "train": ["TrainConfig"],
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
