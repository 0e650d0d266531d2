"""Span tracer installed from outside the program.

Wrappers replace the public callables of each ``lutshrink`` module on the
attribute where their caller looks them up (``train.evaluate`` and
``train.build_prune_mask`` are imported by name into ``train``, and
``model.salience_rows`` into ``model``). Spans (name, start, end, parent)
stay in memory; the worker writes them out after the run.

A training step has no function of its own: it is the interval from a
``Network.forward(training=True)`` call to the end of the following
``Network.step``, so forward, backward and optimizer spans are its children.
"""

from __future__ import annotations

import functools
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from lutshrink import checkpoint, model, netlist, train, verilog
from metrics import CALLS_NAME, SPANS


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._step: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        while self._stack and self._stack.pop() != idx:
            pass  # a span left open by an exception ends with its parent

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, name, after=None) -> None:
        """Wrap owner.attr in a span; ``name`` may be a function of the
        call's (args, kwargs); ``after`` sees (args, kwargs, result)."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _patch_step_start(self) -> None:
        """Open the step span at a training forward (no span of its own)."""
        orig = model.Network.forward

        @functools.wraps(orig)
        def forward(*args, **kwargs):
            if _arg(args, kwargs, 3, "training") and self._step is None:
                self._step = self.begin("train.step")
                self.counts["train.samples"] += len(_arg(args, kwargs, 1, "x"))
            return orig(*args, **kwargs)

        self._patches.append((model.Network, "forward", orig))
        model.Network.forward = forward

    def _end_step(self, args, kwargs, result) -> None:
        if self._step is not None:
            self.end(self._step)
            self._step = None

    def _count(self, key: str, value, add: bool = True) -> None:
        if add:
            self.counts[key] += value
        else:
            self.counts[key] = value

    @contextmanager
    def installed(self):
        N, D, L = model.Network, model.DenseLayer, model.LutLayer
        self._patch_step_start()
        self._patch(N, "step", "model.optimizer", self._end_step)
        self._patch(N, "recalibrate", "train.recalibrate")
        self._patch(N, "predict_bin", "model.predict_bin",
                    lambda a, k, r: self._count("model.predict_bin_samples", len(r)))
        self._patch(D, "forward", "model.dense.fwd")
        self._patch(D, "backward", "model.dense.bwd")
        self._patch(D, "infer_bin", "model.dense.infer_bin")
        self._patch(L, "forward",
                    lambda a, k: f"model.lut.fwd_{_arg(a, k, 2, 'mode')}")
        self._patch(L, "backward", lambda a, k: f"model.lut.bwd_{a[0]._cache_mode}")
        self._patch(L, "infer_bin", "model.lut.infer_bin")
        self._patch(L, "effective_masks", "model.lut.effective_masks")
        self._patch(model, "salience_rows", "shrink.salience")
        self._patch(train, "evaluate", "train.eval")
        self._patch(train, "build_prune_mask", "shrink.build_prune_mask",
                    lambda a, k, r: self._count("shrink.inputs_severed", r.count,
                                                add=False))
        self._patch(netlist, "extract_netlist", "netlist.extract")
        self._patch(netlist, "simplify", "netlist.simplify")
        self._patch(netlist, "simulate", "netlist.simulate")
        self._patch(verilog, "emit_verilog", "verilog.emit",
                    lambda a, k, r: self._count("verilog.bytes", len(r.encode()),
                                                add=False))
        self._patch(verilog, "parse_verilog", "verilog.parse")
        self._patch(checkpoint, "save", "checkpoint.save",
                    lambda a, k, r: self._count("checkpoint.bytes",
                                                os.path.getsize(a[0])))
        self._patch(checkpoint, "load", "checkpoint.load")
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-span inclusive/self seconds and calls, plus the counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        steps_ms = []
        for (name, start, end, _), c in zip(self.spans, child):
            total[name] += end - start
            own[name] += end - start - c
            calls[name] += 1
            if name == "train.step":
                steps_ms.append((end - start) * 1e3)
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}_s"] = total[name]
            out[CALLS_NAME.get(name, f"{name}_calls")] = calls[name]
            out[f"{name}_self_s"] = own[name]
        if len(steps_ms) >= 2:
            q = statistics.quantiles(steps_ms, n=10)
            out["train.step_ms_p50"] = statistics.median(steps_ms)
            out["train.step_ms_p90"] = q[8]
        out.update(self.counts)
        parse_s = total["verilog.parse"]
        if parse_s > 0:
            out["verilog.parse_mb_per_s"] = self.counts["verilog.bytes"] / 1e6 / parse_s
        return out
