"""Checkpoint serialization: structured, diff-able JSON text.

Every array is stored as ``{"dtype", "shape", "data"}``, where ``data`` is
base64 of its raw little-endian bytes: the arrays are opaque, but the
structure (config, RNG state, phase, layer shapes and scalars) stays
readable and diff-able. Raw IEEE bytes make save -> load -> save
byte-identical and let a resumed phase reproduce training bit for bit.
Checkpoints are written at phase boundaries; the pipeline phase cursor and
the RNG state travel with the model.

It stores what training learned, and nothing that the config or the layer
order fix: layer i is named ``fc{i+1}``, the last layer is the output layer,
the only one without batch norm, ``[model] shrink_layers`` names the layers
to prune and expand, and shrink iteration t targets
``TrainConfig.shrink_delta(t)``.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, fields

import numpy as np

from .lutcore import MAX_K
from .model import BatchNorm, DenseLayer, LutLayer, Network
from .train import ShrinkPlan, TrainConfig

FORMAT_VERSION = 4

PHASES = ["trained", "expanded", "shrunk", "final"]

_BN_FIELDS = ("gamma", "beta", "running_mean", "running_var")

# the JSON types of the top-level fields of a checkpoint, of the fields of
# every layer, and of the other fields of each layer kind; a layer holds
# these fields and no others
_FIELDS = {"phase": str, "config": dict, "rng_state": dict, "layers": list,
           "shrink_plan": (dict, type(None))}
_LAYER_FIELDS = {"kind": str, "n_in": int, "n_out": int, "bn": (dict, type(None))}
_KIND_FIELDS = {"dense": {"shadow": dict, "alive": dict},
                "lut": {"k": int, "inputs": dict, "channel": dict, "masks": dict,
                        "pruned": dict}}


class CheckpointError(RuntimeError):
    pass


def _check_types(doc: dict, types: dict) -> None:
    """Refuse a field of ``doc`` whose JSON type is not the one ``types``
    gives it (``true`` is not an integer); a missing field raises KeyError."""
    for key, kind in types.items():
        value = doc[key]
        if not isinstance(value, kind) or kind is int and isinstance(value, bool):
            raise CheckpointError(f"field {key!r} has type {type(value).__name__}")


def _same_fields(doc: dict, names, where: str) -> None:
    """Refuse ``doc`` unless its fields are exactly ``names``."""
    odd = sorted(set(names) ^ doc.keys())
    if odd:
        what = "an unknown field" if odd[0] in doc else "no field"
        raise CheckpointError(f"{where} has {what} {odd[0]!r}")


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


def _shadow(doc: dict, name: str) -> np.ndarray:
    """The shadows of the dense layer ``name``, which training keeps finite
    and within [-1, 1]: the backward relies on it (its straight-through gate
    is always open)."""
    shadow = _array(doc, "shadow", "<f8", (doc["n_out"], doc["n_in"]))
    bad = ~(np.abs(shadow) <= 1.0)  # NaN compares false
    if bad.any():
        raise CheckpointError(
            f"field 'shadow' of {name!r} holds {float(shadow[bad][0])}, "
            "not a finite value in [-1, 1]; re-run from `lutshrink train`")
    return shadow


def _enc_bn(bn: BatchNorm | None):
    if bn is None:
        return None
    return {f: _enc(getattr(bn, f), "<f8") for f in _BN_FIELDS}


def _dec_bn(d, n: int) -> BatchNorm | None:
    if d is None:
        return None
    _same_fields(d, _BN_FIELDS, "field 'bn'")
    bn = BatchNorm(n)
    for f in _BN_FIELDS:
        setattr(bn, f, _array(d, f, "<f8", (n,)))
    return bn


def _enc_layer(lay) -> dict:
    doc = {"kind": lay.kind, "n_in": lay.n_in, "n_out": lay.n_out, "bn": _enc_bn(lay.bn)}
    if lay.kind == "dense":
        doc.update(shadow=_enc(lay.shadow, "<f8"), alive=_enc(lay.alive, "|b1"))
    else:
        doc.update(k=lay.k, inputs=_enc(lay.inputs, "<i8"),
                   channel=_enc(lay.channel, "<i8"), masks=_enc(lay.masks, "<f8"),
                   pruned=_enc(lay.pruned, "|b1"))
    return doc


def _dec_layer(d: dict, name: str, prev, is_output: bool):
    """The layer ``name`` that ``d`` stores, which follows the layer ``prev``
    (None for the first) and is the output layer when ``is_output``."""
    _check_types(d, _LAYER_FIELDS)
    if d["kind"] not in _KIND_FIELDS:
        raise CheckpointError(f"field 'kind' is {d['kind']!r}, not 'dense' or 'lut'")
    _check_types(d, _KIND_FIELDS[d["kind"]])
    for key in ("n_in", "n_out"):
        if d[key] < 1:
            raise CheckpointError(f"field {key!r} of {name!r} is {d[key]}, "
                                  "not >= 1")
    if prev is not None and d["n_in"] != prev.n_out:
        raise CheckpointError(f"field 'n_in' of {name!r} is {d['n_in']}, not "
                              f"{prev.n_out}, the n_out of {prev.name!r}")
    if (d["bn"] is None) != is_output:
        state = "null" if d["bn"] is None else "not null"
        raise CheckpointError(f"field 'bn' of {name!r} is {state}, but the last "
                              "layer, and only it, has no batch norm")
    bn = _dec_bn(d["bn"], d["n_out"])
    if d["kind"] == "dense":
        lay = DenseLayer(d["n_in"], d["n_out"], np.random.default_rng(0), name,
                         is_output=is_output)
        lay.bn = bn
        lay.shadow = _shadow(d, name)
        lay.alive = _array(d, "alive", "|b1", lay.shadow.shape)
        return lay
    if not 1 <= d["k"] <= MAX_K:
        raise CheckpointError(f"field 'k' is {d['k']}, not in [1, {MAX_K}]")
    masks = _array(d, "masks", "<f8", (None, 2 ** d["k"]))
    n = len(masks)
    inputs = _array(d, "inputs", "<i8", (n, d["k"]), d["n_in"])
    lay = LutLayer(d["n_in"], d["n_out"], d["k"], inputs,
                   _array(d, "channel", "<i8", (n,), d["n_out"]), masks, name,
                   is_output=is_output, bn=bn)
    lay.set_pruned(_array(d, "pruned", "|b1", (n, d["k"])))
    return lay


def _rng(state: dict) -> np.random.Generator:
    """The generator in ``state``, which must be a PCG64 state that reads
    back unchanged."""
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = state
        ok = rng.bit_generator.state == state
    except (KeyError, OverflowError, TypeError, ValueError):
        ok = False
    if not ok:
        raise CheckpointError("field 'rng_state' is not the state of a PCG64 generator")
    return rng


def _dataclass(cls, doc: dict, key: str):
    """cls(**doc[key]), where doc[key] must hold exactly the fields of cls."""
    _same_fields(doc[key], [f.name for f in fields(cls)], f"field {key!r}")
    return cls(**doc[key])


def _plan(doc: dict, cfg: TrainConfig) -> ShrinkPlan:
    """The shrink plan, which holds one severed count per iteration of ``cfg``."""
    plan = _dataclass(ShrinkPlan, doc, "shrink_plan")
    counts = plan.pruned_counts
    if (not isinstance(counts, list) or len(counts) != cfg.shrink_iters
            or not all(type(c) is int and c >= 0 for c in counts)):
        raise CheckpointError(f"field 'pruned_counts' is {counts!r}, not "
                              f"{cfg.shrink_iters} integers >= 0, one per iteration")
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
        _same_fields(doc, [*_FIELDS, "format_version"], "its top level")
        if doc["phase"] not in PHASES:
            raise CheckpointError(f"field 'phase' is {doc['phase']!r}, not one of "
                                  + ", ".join(PHASES))
        if not doc["layers"]:
            raise CheckpointError("field 'layers' is empty")
        rng = _rng(doc["rng_state"])
        cfg = _dataclass(TrainConfig, doc, "config")
        cfg.validate()
        plan = None if doc["shrink_plan"] is None else _plan(doc, cfg)
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
            lay = _dec_layer(d, f"fc{i + 1}", layers[-1] if layers else None,
                             i == len(doc["layers"]) - 1)
        except KeyError as e:
            raise CheckpointError(f"{where} has no field {e.args[0]!r}") from None
        except CheckpointError as e:
            raise CheckpointError(f"{where}: {e}") from None
        _same_fields(d, [*_LAYER_FIELDS, *_KIND_FIELDS[lay.kind]], where)
        layers.append(lay)
    return Network(layers), cfg, doc["phase"], rng, plan
