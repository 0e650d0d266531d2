"""LUT-network training with learned input pruning and Verilog export.

The package imports nothing: each name lives in its submodule
(``lutshrink.model.Network``, ``lutshrink.train.TrainConfig``, ...), and
``import lutshrink.cli`` must not load numpy before the CLI has set the BLAS
thread count."""
