"""The one driver of the pipeline, for the CLI and in-process callers: each
stage moves one checkpoint forward (train -> expand -> shrink -> finalize),
and export writes the Verilog, area reports and certificate of a final one.
Library functions are reached through their module attribute, so a wrapper
installed there (a tracer, a test's monkeypatch) sees every call."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import checkpoint, config, netlist, train, verilog


class PhaseError(RuntimeError):
    pass


def _require_phase(phase: str, required: str, command: str) -> None:
    if phase != required:
        raise PhaseError(
            f"cannot run {command!r}: checkpoint is at phase {phase!r}, "
            f"requires {required!r}"
        )


def run_stage(command: str, src: str, out: str | None = None,
              overrides: dict | None = None) -> str:
    """Run one stage; return the checkpoint path it wrote. ``train`` reads the
    INI config ``src`` into ``out/checkpoint.json``, a stage of ``train.STAGES``
    the checkpoint ``src`` into ``out`` (default ``src``). ``overrides`` maps
    ``TrainConfig`` fields to values saved with the checkpoint. Epoch rows go
    to the ``metrics.log`` beside the checkpoint written; ``train`` empties it."""
    if command == "train":
        cfg, plan = config.load_config(src), None
        path, written = os.path.join(out, "checkpoint.json"), train.PHASES[0]
    else:
        required, written, _ = train.STAGES[command]
        net, cfg, phase, rng, plan = checkpoint.load(src)
        _require_phase(phase, required, command)
        path = out or src
    for name, value in (overrides or {}).items():
        setattr(cfg, name, value)
    cfg.validate()
    # before any epoch runs, so that a bad --out fails at once, not after the stage
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    train_set, test_set = config.load_datasets(cfg)
    log = train.MetricLog(os.path.join(os.path.dirname(path), "metrics.log"))
    if command == "train":
        open(log.path, "w").close()  # the old rows belong to a checkpoint now gone
        rng = np.random.default_rng(cfg.seed)
        net = train.build_network(cfg, train_set.features.shape[1],
                                  train_set.num_classes, rng)
        train.train_bnn(net, train_set, test_set, cfg, rng, log)
        train.prune_nodes(net, cfg.theta, train_set, test_set, cfg, rng, log)
    elif command == "expand":
        train.logic_expand(net, cfg.k, train_set, test_set, cfg, rng, log)
    elif command == "shrink":
        plan = train.logic_shrink(net, train_set, test_set, cfg, rng, log)
    else:
        train.finalize_binarized(net, train_set, test_set, cfg, rng, log)
    checkpoint.save(path, net, cfg, written, rng, plan)
    return path


@dataclass
class ExportResult:
    """What ``lutshrink export`` prints."""

    verilog_path: str
    certificate: str  # the text of certificate.txt
    samples: int  # test samples certified
    mismatches: int  # of them, those on which some class score differs
    # LUT layer -> (LUTs keeping 2 or more inputs after simplify, LUTs before)
    multi_input: dict[str, tuple[int, int]]
    area_terms: int  # AreaReport.area_terms


def run_export(path: str, out_dir: str, top: str = "top") -> ExportResult:
    """Write the Verilog, area reports and certificate of the final
    checkpoint ``path`` into ``out_dir``. A certificate mismatch is returned,
    not raised, so the certificate is written either way; an error raised
    before it is written leaves no certificate behind."""
    net, cfg, phase, _, _ = checkpoint.load(path)
    _require_phase(phase, train.PHASES[-1], "export")
    os.makedirs(out_dir, exist_ok=True)
    # a certificate left by an earlier export would vouch for this one's
    # netlist.v even if the check below never ran
    cert_path = os.path.join(out_dir, "certificate.txt")
    if os.path.exists(cert_path):
        os.remove(cert_path)
    pre = netlist.extract_netlist(net)
    post = netlist.simplify(pre)
    text = verilog.emit_verilog(post, top)
    report = netlist.area_report(pre, post)
    for name, body in (("netlist.v", text), ("area_report.txt", report.to_table()),
                       ("area_report.tsv", report.to_tsv())):
        with open(os.path.join(out_dir, name), "w") as f:
            f.write(body)

    x = config.load_datasets(cfg)[1].features
    # every class score, not just the argmax: a wrong sum can keep its class
    model_scores = net.infer_bin(x)
    sim_scores = netlist.scores(verilog.parse_verilog(text), np.where(x >= 0, 1, -1))
    mismatches = int(np.any(model_scores != sim_scores, axis=1).sum())
    cert = (
        f"samples\t{len(x)}\nmismatches\t{mismatches}\n"
        f"status\t{'PASS' if mismatches == 0 else 'FAIL'}\n"
    )
    with open(cert_path, "w") as f:
        f.write(cert)
    multi = {layer: (n, int(report.pre[layer].sum()))
             for layer, n in report.multi_input().items()}
    return ExportResult(os.path.join(out_dir, "netlist.v"), cert, len(x), mismatches,
                        multi, report.area_terms)
