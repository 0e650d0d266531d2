"""The five pipeline stages, each as the matching ``lutshrink`` CLI command
runs it: checkpoint.load -> phase function -> checkpoint.save, and for
export: extract -> simplify -> emit -> area report -> certificate.

Library functions are always reached through their module attribute, so the
tracer's wrappers (installed on those attributes) see every call.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from lutshrink import checkpoint, netlist, verilog
from lutshrink import train as phases
from lutshrink.data import Dataset


@dataclass
class ExportResult:
    samples: int  # certificate samples attempted
    mismatches: int  # netlist output != Network.predict_bin
    test_err: float  # error of the exported model on the test set
    area_terms: int  # LUT fan-ins + adder terms of the simplified netlist
    nodes_pre: int
    nodes_post: int
    verilog_sha256: str


def _require_phase(phase: str, required: str, command: str) -> None:
    if phase != required:
        raise RuntimeError(
            f"cannot run {command!r}: checkpoint is at phase {phase!r}, "
            f"requires {required!r}"
        )


class Pipeline:
    """One pipeline run over a fixed (config, train, test) in ``workdir``;
    like the CLI, every stage advances one checkpoint file in place."""

    def __init__(self, cfg: phases.TrainConfig, train: Dataset, test: Dataset,
                 workdir: str):
        self.cfg, self.train_set, self.test_set = cfg, train, test
        self.workdir = workdir
        self.ckpt = os.path.join(workdir, "checkpoint.json")
        os.makedirs(workdir, exist_ok=True)
        self.log = phases.MetricLog(os.path.join(workdir, "metrics.log"))
        self.exported = None  # the network the last export certified

    def build(self):
        """Fresh RNG and network, as ``lutshrink train`` makes them."""
        rng = np.random.default_rng(self.cfg.seed)
        n_features = self.train_set.features.shape[1]
        net = phases.build_network(self.cfg, n_features,
                                   self.train_set.num_classes, rng)
        return net, rng

    def _load(self, phase: str, command: str):
        net, cfg, got, rng, plan = checkpoint.load(self.ckpt)
        _require_phase(got, phase, command)
        return net, cfg, rng, plan

    def train(self, net, rng) -> None:
        cfg = self.cfg
        phases.train_bnn(net, self.train_set, self.test_set, cfg, rng, self.log)
        phases.prune_nodes(net, cfg.theta, self.train_set, self.test_set, cfg,
                           rng, self.log)
        checkpoint.save(self.ckpt, net, cfg, "trained", rng)

    def expand(self) -> None:
        net, cfg, rng, _ = self._load("trained", "expand")
        phases.logic_expand(net, cfg.k, self.train_set, self.test_set, cfg, rng,
                            self.log)
        checkpoint.save(self.ckpt, net, cfg, "expanded", rng)

    def shrink(self) -> None:
        net, cfg, rng, _ = self._load("expanded", "shrink")
        plan = phases.logic_shrink(net, self.train_set, self.test_set, cfg, rng,
                                   self.log)
        checkpoint.save(self.ckpt, net, cfg, "shrunk", rng, plan)

    def finalize(self) -> None:
        net, cfg, rng, plan = self._load("shrunk", "finalize")
        phases.finalize_binarized(net, self.train_set, self.test_set, cfg, rng,
                                  self.log)
        checkpoint.save(self.ckpt, net, cfg, "final", rng, plan)

    def export(self) -> ExportResult:
        net, cfg, rng, plan = self._load("final", "export")
        self.exported = net
        pre = netlist.extract_netlist(net)
        post = netlist.simplify(pre)
        text = verilog.emit_verilog(post, "top")
        with open(os.path.join(self.workdir, "netlist.v"), "w") as f:
            f.write(text)
        report = netlist.area_report(pre, post)
        with open(os.path.join(self.workdir, "area_report.txt"), "w") as f:
            f.write(report.to_table())
        with open(os.path.join(self.workdir, "area_report.tsv"), "w") as f:
            f.write(report.to_tsv())

        x = self.test_set.features
        model_pred = net.predict_bin(x)
        sim_pred = netlist.classify(verilog.parse_verilog(text),
                                    np.where(x >= 0, 1, -1))
        mismatches = int((model_pred != sim_pred).sum())
        with open(os.path.join(self.workdir, "certificate.txt"), "w") as f:
            f.write(f"samples\t{len(x)}\nmismatches\t{mismatches}\n"
                    f"status\t{'PASS' if mismatches == 0 else 'FAIL'}\n")
        adder_terms = sum(len(n.terms) for n in post.nodes.values()
                          if n.kind == "sum")
        return ExportResult(
            samples=len(x),
            mismatches=mismatches,
            test_err=float((model_pred != self.test_set.labels).mean()),
            area_terms=report.post_inputs + adder_terms,
            nodes_pre=len(pre.nodes),
            nodes_post=len(post.nodes),
            verilog_sha256=hashlib.sha256(text.encode()).hexdigest(),
        )

    def checkpoint_sha256(self) -> str:
        """sha256 of the final checkpoint."""
        with open(self.ckpt, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
