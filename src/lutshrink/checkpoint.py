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
the only one without batch norm, every LUT has the fan-in ``[expand] k``,
``[model] shrink_layers`` names the layers to prune and expand, and shrink
iteration t targets ``TrainConfig.shrink_delta(t)``. A LUT layer stores its
raw masks and severed inputs in every phase (``LutLayer.effective_masks``
applies the severance on every read). ``_ARRAYS`` declares each stored
array once, with its dtype, shape and range; saving and loading read it.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import asdict, fields
from math import inf

import numpy as np

from .model import GAMMA_MIN, BatchNorm, DenseLayer, LutLayer, Network
from .train import PHASES, ShrinkPlan, TrainConfig, _is, layer_name

FORMAT_VERSION = 5

# (dtype, shape, range) of each stored array of a layer kind and of a batch
# norm. The shape is in n_in, n_out, k, 2^k and N (the LUT count, set by the
# first array that has it). The range is a shape symbol (an index below it),
# (lo, hi) (finite and in [lo, hi]) or None. _momentum_step clips shadows
# and masks to [-1, 1], and BatchNorm.step keeps gamma >= GAMMA_MIN.
_ARRAYS = {
    "dense": {"shadow": ("<f8", ("n_out", "n_in"), (-1.0, 1.0)),
              "alive": ("|b1", ("n_out", "n_in"), None)},
    "lut": {"masks": ("<f8", ("N", "2^k"), (-1.0, 1.0)),
            "inputs": ("<i8", ("N", "k"), "n_in"),
            "channel": ("<i8", ("N",), "n_out"),
            "pruned": ("|b1", ("N", "k"), None)},
}
_BN_ARRAYS = {"gamma": ("<f8", ("n_out",), (GAMMA_MIN, inf)),
              "beta": ("<f8", ("n_out",), (-inf, inf)),
              "running_mean": ("<f8", ("n_out",), (-inf, inf)),
              "running_var": ("<f8", ("n_out",), (0.0, inf))}
_LAYERS = {cls.kind: cls for cls in (DenseLayer, LutLayer)}

# the JSON types of the top-level fields of a checkpoint and of the fields
# of every layer; a layer also holds the arrays of its kind, and no others
_FIELDS = {"phase": str, "config": dict, "rng_state": dict, "layers": list,
           "shrink_plan": (dict, type(None))}
_LAYER_FIELDS = {"kind": str, "n_in": int, "n_out": int, "bn": (dict, type(None))}


class CheckpointError(RuntimeError):
    pass


def _check_types(doc: dict, types: dict) -> None:
    """Refuse a field of ``doc`` whose JSON type is not the one ``types``
    gives it (``true`` is not an integer); a missing field raises KeyError."""
    for key, kind in types.items():
        if not _is(doc[key], kind):
            raise CheckpointError(f"field {key!r} has type {type(doc[key]).__name__}")


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


def _enc_arrays(obj, table: dict) -> dict:
    return {key: _enc(getattr(obj, key), dtype) for key, (dtype, _, _) in table.items()}


def _dec_arrays(doc: dict, table: dict, dims: dict, name: str) -> dict:
    """The arrays that ``table`` declares, as stored in ``doc`` by the layer
    ``name``; ``dims`` maps each shape symbol to its length, and gains N."""
    out = {}
    for key, (dtype, symbols, valid) in table.items():
        d = doc[key]
        try:
            if d["dtype"] != dtype:
                raise ValueError(f"it has dtype {d['dtype']!r}")
            a = out[key] = _dec(d)
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"field {key!r} is not a {dtype} array: {e}") from None
        shape = tuple(dims.get(s) for s in symbols)
        if a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape)):
            raise CheckpointError(f"field {key!r} has shape {a.shape}, not "
                                  + str(shape).replace("None", "N"))
        dims.update(zip(symbols, a.shape))
        if isinstance(valid, str):
            bound = dims[valid]
            if a.size and not 0 <= a.min() <= a.max() < bound:
                bad = a.min() if a.min() < 0 else a.max()
                raise CheckpointError(f"field {key!r} holds {bad}, not in [0, {bound})")
        elif valid:
            lo, hi = valid
            bad = ~(np.isfinite(a) & (a >= lo) & (a <= hi))
            if bad.any():
                span = ("" if lo == -inf else f" >= {lo:g}" if hi == inf
                        else f" in [{lo:g}, {hi:g}]")
                raise CheckpointError(
                    f"field {key!r} of {name!r} holds {float(a[bad][0])}, not a "
                    f"finite value{span}; re-run from `lutshrink train`")
    return out


def _enc_layer(lay, k: int) -> dict:
    if lay.kind == "lut" and lay.k != k:
        raise CheckpointError(f"layer {lay.name!r} has LUTs of fan-in {lay.k}, "
                              f"but [expand] k is {k}")
    return {"kind": lay.kind, "n_in": lay.n_in, "n_out": lay.n_out,
            "bn": None if lay.bn is None else _enc_arrays(lay.bn, _BN_ARRAYS),
            **_enc_arrays(lay, _ARRAYS[lay.kind])}


def _dec_layer(d: dict, name: str, prev, is_output: bool, k: int):
    """The layer ``name`` that ``d`` stores, which follows the layer ``prev``
    (None for the first), is the output layer when ``is_output``, and has
    LUTs of fan-in ``k`` if any."""
    _check_types(d, _LAYER_FIELDS)
    if d["kind"] not in _ARRAYS:
        raise CheckpointError(f"field 'kind' is {d['kind']!r}, not 'dense' or 'lut'")
    _check_types(d, dict.fromkeys(_ARRAYS[d["kind"]], dict))
    for key in ("n_in", "n_out"):
        if d[key] < 1:
            raise CheckpointError(f"field {key!r} of {name!r} is {d[key]}, not >= 1")
    if prev is not None and d["n_in"] != prev.n_out:
        raise CheckpointError(f"field 'n_in' of {name!r} is {d['n_in']}, not "
                              f"{prev.n_out}, the n_out of {prev.name!r}")
    if (d["bn"] is None) != is_output:
        state = "null" if d["bn"] is None else "not null"
        raise CheckpointError(f"field 'bn' of {name!r} is {state}, but the last "
                              "layer, and only it, has no batch norm")
    dims = {"n_in": d["n_in"], "n_out": d["n_out"], "k": k, "2^k": 2**k}
    bn = None
    if d["bn"] is not None:
        _same_fields(d["bn"], _BN_ARRAYS, "field 'bn'")
        bn = BatchNorm(d["n_out"])
        for key, a in _dec_arrays(d["bn"], _BN_ARRAYS, dims, name).items():
            setattr(bn, key, a)
    return _LAYERS[d["kind"]](d["n_in"], d["n_out"], bn, name,
                              **_dec_arrays(d, _ARRAYS[d["kind"]], dims, name))


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
            or not all(_is(c, int) and c >= 0 for c in counts)):
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
        "layers": [_enc_layer(l, cfg.k) for l in net.layers],
        "shrink_plan": None if plan is None else asdict(plan),
    }
    # the whole text first, then a file beside path that replaces it: a
    # failed save leaves the checkpoint it would overwrite as it was
    tmp = path + ".tmp"
    try:
        # dumps runs the C encoder; dump streams through the Python one
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except (OSError, TypeError, ValueError) as e:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise CheckpointError(f"cannot save checkpoint {path}: {e}") from None


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
            lay = _dec_layer(d, layer_name(i), layers[-1] if layers else None,
                             i == len(doc["layers"]) - 1, cfg.k)
        except KeyError as e:
            raise CheckpointError(f"{where} has no field {e.args[0]!r}") from None
        except CheckpointError as e:
            raise CheckpointError(f"{where}: {e}") from None
        _same_fields(d, [*_LAYER_FIELDS, *_ARRAYS[lay.kind]], where)
        layers.append(lay)
    return Network(layers), cfg, doc["phase"], rng, plan
