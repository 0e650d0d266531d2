"""Checkpoint serialization: structured, diff-able JSON text.

Every array is stored as ``{"dtype", "shape", "data"}``, where ``data`` is
base64 of its raw little-endian bytes: the arrays are opaque, but the
structure (config, RNG state, phase, layer shapes and scalars) stays
readable and diff-able. Raw IEEE bytes make save -> load -> save
byte-identical and let a resumed phase reproduce training bit for bit.
Checkpoints are written at phase boundaries; the pipeline phase cursor and
the RNG state travel with the model.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, fields

import numpy as np

from .lutcore import MAX_K
from .model import BatchNorm, DenseLayer, LutLayer, Network
from .train import ShrinkPlan, TrainConfig

FORMAT_VERSION = 2

PHASES = ["trained", "expanded", "shrunk", "final"]

_BN_FIELDS = ("gamma", "beta", "running_mean", "running_var")

# the JSON types of the top-level fields of a checkpoint, of the scalar
# fields of every layer, and of those of each layer kind
_FIELDS = {"phase": str, "config": dict, "rng_state": dict, "num_classes": int,
           "layers": list, "shrink_plan": (dict, type(None))}
_LAYER_FIELDS = {"kind": str, "name": str, "n_in": int, "n_out": int,
                 "is_output": bool, "alpha": (int, float), "bn": (dict, type(None))}
_KIND_FIELDS = {"dense": {"shrinkable": bool}, "lut": {"k": int}}


class CheckpointError(RuntimeError):
    pass


def _check_types(doc: dict, types: dict) -> None:
    """Refuse a field of ``doc`` whose JSON type is not the one ``types``
    gives it; a missing field raises KeyError."""
    for key, kind in types.items():
        if not isinstance(doc[key], kind):
            raise CheckpointError(f"field {key!r} has type {type(doc[key]).__name__}")


def _enc(a, dtype: str) -> dict:
    """One array as dtype ('<f8', '<i8' or '|b1'), shape and base64 bytes."""
    a = np.asarray(a, dtype=dtype)
    return {"dtype": dtype, "shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _dec(d: dict) -> np.ndarray:
    """The array ``_enc`` stored, as a writable copy."""
    a = np.frombuffer(base64.b64decode(d["data"]), dtype=d["dtype"])
    return a.reshape(d["shape"]).copy()


def _array(doc: dict, key: str, dtype: str, shape: tuple,
           bound: int | None = None) -> np.ndarray:
    """The array stored as doc[key], of ``dtype`` and ``shape`` (a None length
    matches any), and, given a ``bound``, with entries in [0, bound)."""
    d = doc[key]
    try:
        if d["dtype"] != dtype:
            raise ValueError(f"it has dtype {d['dtype']!r}")
        a = _dec(d)
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"field {key!r} is not a {dtype} array: {e}") from None
    if a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape)):
        raise CheckpointError(f"field {key!r} has shape {a.shape}, not "
                              + str(shape).replace("None", "N"))
    if bound is not None and a.size and not 0 <= a.min() <= a.max() < bound:
        bad = a.min() if a.min() < 0 else a.max()
        raise CheckpointError(f"field {key!r} holds {bad}, not in [0, {bound})")
    return a


def _shadow(doc: dict) -> np.ndarray:
    """The dense shadows, which training keeps finite and within [-1, 1]:
    the backward relies on it (its straight-through gate is always open)."""
    shadow = _array(doc, "shadow", "<f8", (doc["n_out"], doc["n_in"]))
    bad = ~(np.abs(shadow) <= 1.0)  # NaN compares false
    if bad.any():
        raise CheckpointError(
            f"field 'shadow' of {doc['name']!r} holds {float(shadow[bad][0])}, "
            "not a finite value in [-1, 1]; re-run from `lutshrink train`")
    return shadow


def _enc_bn(bn: BatchNorm | None):
    if bn is None:
        return None
    return {f: _enc(getattr(bn, f), "<f8") for f in _BN_FIELDS}


def _dec_bn(d, n: int) -> BatchNorm | None:
    if d is None:
        return None
    bn = BatchNorm(n)
    for f in _BN_FIELDS:
        setattr(bn, f, _array(d, f, "<f8", (n,)))
    return bn


def _enc_layer(lay) -> dict:
    doc = {
        "kind": lay.kind,
        "name": lay.name,
        "n_in": lay.n_in,
        "n_out": lay.n_out,
        "is_output": lay.is_output,
        "alpha": float(lay.alpha),
        "bn": _enc_bn(lay.bn),
    }
    if lay.kind == "dense":
        doc.update(shrinkable=lay.shrinkable, shadow=_enc(lay.shadow, "<f8"),
                   alive=_enc(lay.alive, "|b1"))
    else:
        doc.update(k=lay.k, inputs=_enc(lay.inputs, "<i8"),
                   channel=_enc(lay.channel, "<i8"), masks=_enc(lay.masks, "<f8"),
                   pruned=_enc(lay.pruned, "|b1"))
    return doc


def _dec_layer(d: dict):
    _check_types(d, _LAYER_FIELDS)
    if d["kind"] not in _KIND_FIELDS:
        raise CheckpointError(f"field 'kind' is {d['kind']!r}, not 'dense' or 'lut'")
    _check_types(d, _KIND_FIELDS[d["kind"]])
    bn = _dec_bn(d["bn"], d["n_out"])
    if d["kind"] == "dense":
        lay = DenseLayer(d["n_in"], d["n_out"], np.random.default_rng(0), d["name"],
                         is_output=d["is_output"], shrinkable=d["shrinkable"])
        lay.alpha, lay.bn = d["alpha"], bn
        lay.shadow = _shadow(d)
        lay.alive = _array(d, "alive", "|b1", lay.shadow.shape)
        return lay
    if not 1 <= d["k"] <= MAX_K:
        raise CheckpointError(f"field 'k' is {d['k']}, not in [1, {MAX_K}]")
    masks = _array(d, "masks", "<f8", (None, 2 ** d["k"]))
    n = len(masks)
    inputs = _array(d, "inputs", "<i8", (n, d["k"]), d["n_in"])
    lay = LutLayer(d["n_in"], d["n_out"], d["k"], inputs,
                   _array(d, "channel", "<i8", (n,), d["n_out"]), masks, d["name"],
                   is_output=d["is_output"], bn=bn, alpha=d["alpha"])
    lay.set_pruned(_array(d, "pruned", "|b1", (n, d["k"])))
    return lay


def _dataclass(cls, doc: dict, key: str):
    """cls(**doc[key]), where doc[key] must hold exactly the fields of cls."""
    odd = sorted({f.name for f in fields(cls)} ^ doc[key].keys())
    if odd:
        what = "an unknown field" if odd[0] in doc[key] else "no field"
        raise CheckpointError(f"field {key!r} has {what} {odd[0]!r}")
    return cls(**doc[key])


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
        "shrink_plan": None if plan is None else asdict(plan),
    }
    with open(path, "w") as f:
        # dumps runs the C encoder; dump streams through the Python one
        f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        f.write("\n")


def load(path: str):
    """Returns (network, config, phase, rng, shrink_plan)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except ValueError as e:
        raise CheckpointError(f"{path} is not a checkpoint: {e}") from e
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path} is not a checkpoint: its top level has "
                              f"type {type(doc).__name__}, not dict")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} in {path} (this build "
            f"reads version {FORMAT_VERSION}); re-run from `lutshrink train`"
        )
    try:
        _check_types(doc, _FIELDS)
        cfg = _dataclass(TrainConfig, doc, "config")
        cfg.validate()
        plan = None if doc["shrink_plan"] is None else _dataclass(ShrinkPlan, doc,
                                                                  "shrink_plan")
    except KeyError as e:
        raise CheckpointError(f"{path} is not a checkpoint: no field "
                              f"{e.args[0]!r}") from None
    except (CheckpointError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path} is not a checkpoint: {e}") from None
    layers = []
    for i, d in enumerate(doc["layers"]):
        where = f"{path} is not a checkpoint: layer {i}"
        if not isinstance(d, dict):
            raise CheckpointError(f"{where} has type {type(d).__name__}, not dict")
        try:
            layers.append(_dec_layer(d))
        except KeyError as e:
            raise CheckpointError(f"{where} has no field {e.args[0]!r}") from None
        except CheckpointError as e:
            raise CheckpointError(f"{where}: {e}") from None
    net = Network(layers, doc["num_classes"])
    rng = np.random.default_rng(0)
    rng.bit_generator.state = doc["rng_state"]
    return net, cfg, doc["phase"], rng, plan
