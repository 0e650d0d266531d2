"""Checkpoint serialization: structured, diff-able JSON text.

Floats are stored as C99 hex strings so that save -> load -> save is
byte-identical and resuming a phase reproduces training bit for bit.
Checkpoints are written at phase boundaries; the pipeline phase cursor and
the RNG state travel with the model.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .model import BatchNorm, DenseLayer, LutLayer, Network
from .train import ShrinkPlan, TrainConfig

FORMAT_VERSION = 1

PHASES = ["init", "trained", "expanded", "shrunk", "final"]


class CheckpointError(RuntimeError):
    pass


def _enc_floats(a: np.ndarray) -> list[str]:
    return [float(v).hex() for v in np.asarray(a, dtype=np.float64).ravel()]


def _dec_floats(vals: list[str], shape) -> np.ndarray:
    return np.array([float.fromhex(v) for v in vals], dtype=np.float64).reshape(shape)


def _enc_ints(a: np.ndarray) -> list[int]:
    return [int(v) for v in np.asarray(a).ravel()]


def _enc_bn(bn: BatchNorm | None):
    if bn is None:
        return None
    return {
        "gamma": _enc_floats(bn.gamma),
        "beta": _enc_floats(bn.beta),
        "running_mean": _enc_floats(bn.running_mean),
        "running_var": _enc_floats(bn.running_var),
    }


def _dec_bn(d, n: int) -> BatchNorm | None:
    if d is None:
        return None
    bn = BatchNorm(n)
    bn.gamma = _dec_floats(d["gamma"], n)
    bn.beta = _dec_floats(d["beta"], n)
    bn.running_mean = _dec_floats(d["running_mean"], n)
    bn.running_var = _dec_floats(d["running_var"], n)
    return bn


def _enc_layer(lay) -> dict:
    if lay.kind == "dense":
        return {
            "kind": "dense",
            "name": lay.name,
            "n_in": lay.n_in,
            "n_out": lay.n_out,
            "is_output": lay.is_output,
            "shrinkable": lay.shrinkable,
            "alpha": float(lay.alpha).hex(),
            "shadow": _enc_floats(lay.shadow),
            "alive": _enc_ints(lay.alive),
            "bn": _enc_bn(lay.bn),
        }
    return {
        "kind": "lut",
        "name": lay.name,
        "n_in": lay.n_in,
        "n_out": lay.n_out,
        "k": lay.k,
        "is_output": lay.is_output,
        "alpha": float(lay.alpha).hex(),
        "inputs": _enc_ints(lay.inputs),
        "channel": _enc_ints(lay.channel),
        "masks": _enc_floats(lay.masks),
        "pruned": _enc_ints(lay.pruned),
        "bn": _enc_bn(lay.bn),
    }


def _dec_layer(d: dict):
    if d["kind"] == "dense":
        rng = np.random.default_rng(0)
        lay = DenseLayer(d["n_in"], d["n_out"], rng, d["name"],
                         is_output=d["is_output"], shrinkable=d["shrinkable"])
        lay.alpha = float.fromhex(d["alpha"])
        lay.shadow = _dec_floats(d["shadow"], (d["n_out"], d["n_in"]))
        lay.alive = np.array(d["alive"], dtype=bool).reshape(d["n_out"], d["n_in"])
        lay.bn = _dec_bn(d["bn"], d["n_out"])
        return lay
    n_nodes = len(d["channel"])
    k = d["k"]
    lay = LutLayer(
        d["n_in"], d["n_out"], k,
        np.array(d["inputs"], dtype=np.int64).reshape(n_nodes, k),
        np.array(d["channel"], dtype=np.int64),
        _dec_floats(d["masks"], (n_nodes, 2**k)),
        d["name"], is_output=d["is_output"],
        bn=_dec_bn(d["bn"], d["n_out"]),
        alpha=float.fromhex(d["alpha"]),
    )
    lay.set_pruned(np.array(d["pruned"], dtype=bool).reshape(n_nodes, k))
    return lay


def _enc_plan(plan: ShrinkPlan | None):
    if plan is None:
        return None
    return {
        "deltas": [float(d).hex() for d in plan.deltas],
        "pruned_counts": plan.pruned_counts,
        "random_mode": plan.random_mode,
        "saliences": [
            {"shape": list(s.shape), "data": _enc_floats(s)} for s in plan.saliences
        ],
        "masks": [
            {"shape": list(m.shape), "data": _enc_ints(m)} for m in plan.masks
        ],
    }


def _dec_plan(d) -> ShrinkPlan | None:
    if d is None:
        return None
    plan = ShrinkPlan(random_mode=d["random_mode"])
    plan.deltas = [float.fromhex(v) for v in d["deltas"]]
    plan.pruned_counts = list(d["pruned_counts"])
    plan.saliences = [_dec_floats(s["data"], tuple(s["shape"])) for s in d["saliences"]]
    plan.masks = [
        np.array(m["data"], dtype=bool).reshape(tuple(m["shape"])) for m in d["masks"]
    ]
    return plan


def save(path: str, net: Network, cfg: TrainConfig, phase: str,
         rng: np.random.Generator, plan: ShrinkPlan | None = None) -> None:
    if phase not in PHASES:
        raise CheckpointError(f"unknown phase {phase!r}")
    doc = {
        "format_version": FORMAT_VERSION,
        "phase": phase,
        "config": asdict(cfg),
        "rng_state": rng.bit_generator.state,
        "num_classes": net.num_classes,
        "layers": [_enc_layer(l) for l in net.layers],
        "shrink_plan": _enc_plan(plan),
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load(path: str):
    """Returns (network, config, phase, rng, shrink_plan)."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {doc.get('format_version')!r}"
        )
    cfg_doc = dict(doc["config"])
    # older checkpoints record the removed binarize_inputs knob twice
    if not (doc.get("binarize_inputs", True) and cfg_doc.pop("binarize_inputs", True)):
        raise CheckpointError("binarize_inputs = false is no longer supported; retrain")
    cfg = TrainConfig(**cfg_doc)
    net = Network([_dec_layer(d) for d in doc["layers"]], doc["num_classes"])
    rng = np.random.default_rng(0)
    rng.bit_generator.state = doc["rng_state"]
    return net, cfg, doc["phase"], rng, _dec_plan(doc["shrink_plan"])
