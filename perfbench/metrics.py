"""Names and units of every metric the benchmark reports."""

STAGES = ("train", "expand", "shrink", "finalize", "export")

# End-to-end metrics of an untraced run. pipeline_rel is the pipeline's
# wall time divided by the wall time of a fixed reference loop timed between
# its stages (worker.Reference): on a shared machine whose speed drifts by
# a third within minutes, the ratio cancels the drift that wall seconds show.
END_TO_END = {
    "pipeline_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_test_acc": "ratio",
    "area_terms": "count",
}

# Wall seconds of the untraced pipelines: each stage, their sum and the
# reference loop. Every run prints them; they are per-layer metrics (no
# regression bound) because on a shared machine they spread over a run and
# between runs by more than any bound allowed.
RUN_TIMES = {**{f"{s}_s": "s" for s in STAGES}, "pipeline_s": "s", "ref_s": "s"}

# Span names in report order; each yields <name>_s (inclusive seconds),
# <name>_calls and <name>_self_s (inclusive minus child spans).
SPANS = (
    "train.eval",
    "train.step",
    "train.recalibrate",
    "model.dense.fwd",
    "model.dense.bwd",
    "model.dense.infer_bin",
    "model.lut.fwd_hp",
    "model.lut.bwd_hp",
    "model.lut.fwd_bin",
    "model.lut.bwd_bin",
    "model.lut.infer_bin",
    "model.lut.effective_masks",
    "model.optimizer",
    "model.predict_bin",
    "shrink.salience",
    "shrink.build_prune_mask",
    "netlist.extract",
    "netlist.simplify",
    "netlist.simulate",
    "verilog.emit",
    "verilog.parse",
    "checkpoint.save",
    "checkpoint.load",
)
CALLS_NAME = {"train.step": "train.steps"}

# Counters and ratios, each with its unit.
DERIVED = {
    "train.samples": "count",
    "train.step_ms_p50": "ms",
    "train.step_ms_p90": "ms",
    "train.eval_share": "ratio",
    "model.predict_bin_samples": "count",
    "shrink.inputs_severed": "count",
    "netlist.nodes_pre": "count",
    "netlist.nodes_post": "count",
    "netlist.simplify_keep": "ratio",
    "verilog.bytes": "bytes",
    "verilog.parse_mb_per_s": "MB/s",
    "checkpoint.bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name of a traced run, with its unit."""
    units = dict(RUN_TIMES)
    for name in SPANS:
        units[f"{name}_s"] = "s"
        units[CALLS_NAME.get(name, f"{name}_calls")] = "count"
        units[f"{name}_self_s"] = "s"
    units.update(DERIVED)
    return units
