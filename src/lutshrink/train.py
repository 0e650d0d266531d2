"""Pipeline phases: BNN training, connection pruning, expansion of surviving
XNORs into k-LUTs, iterative LUT-input removal, and final binarized
retraining."""

from __future__ import annotations

import configparser
import copy
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np

from .data import Dataset
from .lutcore import MAX_K
from .model import BatchNorm, DenseLayer, LutLayer, ModelError, Network, softmax_xent
from .shrink import build_prune_mask

EVAL_BATCH = 1024
# the factor by which the phases after BNN training lower the rate: prune
# and expand retraining run at lr * LR_DECAY, shrink at lr * LR_DECAY**2 and
# finalize at lr * LR_DECAY**3
LR_DECAY = 0.5


class TrainingDivergedError(RuntimeError):
    pass


def _list(item: Callable[[str], Any]) -> Callable[[str], list]:
    """A parser of comma-separated items; blank items are skipped."""
    return lambda s: [item(v.strip()) for v in s.split(",") if v.strip()]


def _rate_epochs(s: str) -> list:
    rate, epochs = s.split(":")
    return [float(rate), int(epochs)]


def _bool(s: str) -> bool:
    """One of configparser's boolean words (1/yes/true/on, 0/no/false/off)."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[s.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {s!r}") from None


def _range(ok: Callable[[Any], bool], valid: str):
    """A setting check that names the range ``valid`` for a value ``ok``
    refuses, or cannot compare (a string from an edited checkpoint)."""
    def check(value, cfg):
        try:
            return None if ok(value) else valid
        except TypeError:
            return valid
    return check


def layer_name(i: int) -> str:
    """The name of layer i (from 0) of every network: fc1, fc2, ..."""
    return f"fc{i + 1}"


def _names_a_layer(name: str, cfg: TrainConfig) -> str | None:
    names = [layer_name(i) for i in range(len(cfg.hidden) + 1)]
    return None if name in names else f"one of {names[0]} to {names[-1]}"


_RATE = _range(lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_EPOCHS = _range(lambda v: v >= 0, ">= 0")
_POSITIVE = _range(lambda v: v >= 1, ">= 1")
_FRACTION = _range(lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


# what a value of a field type must be: alone, and as the items of a list
_KINDS = {
    bool: ("true or false", "booleans"),
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
}


def _is(value, kind) -> bool:
    """Whether ``value`` has the field type ``kind`` as a value the
    checkpoint's JSON encoder writes: an int is a number, but a bool is
    neither, and nor is a numpy integer (a numpy float64 is a float)."""
    if kind is int or kind is float:
        builtin = int if kind is int else (int, float)
        return isinstance(value, builtin) and not isinstance(value, bool)
    return isinstance(value, kind)


def _kind_error(value, hint) -> str | None:
    """What a value of the field type ``hint`` must be, when ``value`` is
    not one; a list type also checks each item when it names their type."""
    if hint is list or get_origin(hint) is list:
        (item,) = get_args(hint) or (None,)
        if isinstance(value, list) and (item is None or all(_is(v, item) for v in value)):
            return None
        return "a list" + (f" of {_KINDS[item][1]}" if item else "")
    return None if _is(value, hint) else _KINDS[hint][0]


def setting(section: str, key: str, parse: Callable[[str], Any], default,
            check: Callable[[Any, TrainConfig], str | None] | None = None):
    """A ``TrainConfig`` field set by INI ``[section] key`` through ``parse``.
    ``check(value, cfg)`` returns the valid range when the value (each item,
    for a list) lies outside it, and None otherwise."""
    meta = {"ini": (section, key), "parse": parse, "check": check}
    if isinstance(default, list):
        return field(default_factory=lambda: copy.deepcopy(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class TrainConfig:
    """All knobs of the pipeline, each declared once with its INI key, parser
    and range. Epoch defaults are generous (50 high-precision epochs after
    expansion, 3 x 20 during shrinkage, 200 binarized at the end); presets
    scale these down."""

    hidden: list[int] = setting("model", "hidden", _list(int), [256],
                                _range(lambda v: v >= 1, ">= 1 per layer"))
    shrink_layers: list[str] = setting("model", "shrink_layers", _list(str), ["fc2"],
                                       _names_a_layer)
    theta: float = setting("prune", "theta", float, 0.9, _FRACTION)
    delta: float = setting("shrink", "delta", float, 0.75, _FRACTION)
    k: int = setting("expand", "k", int, 4,
                     _range(lambda v: 1 <= v <= MAX_K, f"in [1, {MAX_K}]"))
    shrink_iters: int = setting("shrink", "iterations", int, 3, _POSITIVE)  # T
    epochs_per_iter: int = setting("shrink", "epochs_per_iter", int, 20,
                                   _POSITIVE)  # P
    epochs_post_prune: int = setting("prune", "epochs", int, 20, _EPOCHS)
    epochs_post_expand: int = setting("expand", "epochs", int, 50, _EPOCHS)
    epochs_final: int = setting("finalize", "epochs", int, 200, _EPOCHS)
    # base rate of the phases after BNN training (see LR_DECAY)
    lr: float = setting("train", "lr", float, 0.01, _RATE)
    # (rate, epochs) segments of BNN training, in order; empty trains none
    lr_schedule: list = setting(
        "train", "lr_schedule", _list(_rate_epochs), [[0.01, 50]],
        _range(lambda v: len(v) == 2 and _is(v[0], float) and math.isfinite(v[0])
               and v[0] > 0 and _is(v[1], int) and v[1] >= 0,
               "rate:epochs with a rate finite and > 0 and whole epochs >= 0"))
    batch_size: int = setting("train", "batch_size", int, 256, _POSITIVE)
    seed: int = setting("train", "seed", int, 0)
    random_prune: bool = setting("shrink", "random_prune", _bool, False)
    eval_train_cap: int = setting("train", "eval_train_cap", int, 10000, _POSITIVE)
    data_kind: str = setting("data", "dataset", str, "synth")
    data_dir: str = setting("data", "dir", str, "")
    synth_function: str = setting("data", "function", str, "parity")
    synth_inputs: int = setting("data", "inputs", int, 8, _POSITIVE)
    synth_samples: int = setting("data", "samples", int, 256, _POSITIVE)

    def validate(self) -> None:
        """Raise one line for the first bad value: its ``[section] key`` (and
        CLI flag), the type or valid range, and the value."""
        hints = get_type_hints(TrainConfig)
        for (section, key), f in SETTINGS.items():
            flag = stage_flag(section, key)
            where = f"[{section}] {key}" + (f" ({flag})" if flag else "")
            check, value = f.metadata["check"], getattr(self, f.name)
            kind = _kind_error(value, hints[f.name])
            if kind:
                raise ValueError(f"{where} must be {kind}, got {value!r}")
            for item in value if isinstance(value, list) else [value]:
                valid = check and check(item, self)
                if valid:
                    got = ":".join(map(str, item)) if isinstance(item, list) else item
                    raise ValueError(f"{where} must be {valid}, got {got}")

    def shrink_delta(self, t: int) -> float:
        """The fraction of LUT inputs severed after shrink iteration t (from 1)."""
        return self.delta * t / self.shrink_iters


# (section, key) -> the TrainConfig field it sets
SETTINGS = {f.metadata["ini"]: f for f in fields(TrainConfig)}

# checkpoint phases in pipeline order: `train` writes the first, `export` reads the last
PHASES = ["trained", "expanded", "shrunk", "final"]

# stage command -> (phase it requires, phase it writes, help line); each
# stage takes a flag for every key of the INI section of its name
STAGES = {command: (PHASES[i], PHASES[i + 1], text) for i, (command, text) in enumerate([
    ("expand", "replace surviving connections with k-LUTs"),
    ("shrink", "iteratively sever low-salience LUT inputs"),
    ("finalize", "binarized retraining"),
])}


def stage_flag(section: str, key: str) -> str | None:
    """The CLI flag of ``[section] key``: one exists for a stage's section."""
    return "--" + key.replace("_", "-") if section in STAGES else None


@dataclass
class ShrinkPlan:
    """Record of one shrinkage run: the inputs severed after each iteration t,
    whose target ``TrainConfig.shrink_delta(t)`` the config fixes."""

    pruned_counts: list[int] = field(default_factory=list)


class MetricLog:
    """Per-epoch plain-text metrics appended to ``path``, one tab-separated
    row of phase, epoch, train error and test error; no path keeps none."""

    def __init__(self, path: str | None = None):
        self.path = path

    def add(self, phase: str, epoch: int, train_err: float, test_err: float) -> None:
        if self.path:
            with open(self.path, "a") as f:
                f.write(f"{phase}\t{epoch}\t{train_err:.6f}\t{test_err:.6f}\n")


def build_network(cfg: TrainConfig, n_features: int, n_classes: int,
                  rng: np.random.Generator) -> Network:
    """Dense layers, all connections alive, shadows drawn from U(-0.1, 0.1)."""
    sizes = [n_features, *cfg.hidden, n_classes]
    return Network([
        DenseLayer(n_in, n_out, BatchNorm(n_out) if i < len(cfg.hidden) else None,
                   layer_name(i), shadow=rng.uniform(-0.1, 0.1, size=(n_out, n_in)),
                   alive=np.ones((n_out, n_in), dtype=bool))
        for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:]))])


def evaluate(net: Network, ds: Dataset, mode: str) -> float:
    """Top-1 error fraction. The bin mode is the exact inference path: its
    sums are integer-valued, run on float32 BLAS and are exact below 2^24."""
    wrong = 0
    for lo in range(0, len(ds), EVAL_BATCH):
        x = ds.features[lo : lo + EVAL_BATCH]
        y = ds.labels[lo : lo + EVAL_BATCH]
        if mode == "bin":
            pred = net.predict_bin(x)
        else:
            logits = net.forward(x, "hp", training=False)
            pred = np.argmax(logits, axis=1)
        wrong += int((pred != y).sum())
    return wrong / max(len(ds), 1)


def _subsample(ds: Dataset, cap: int) -> Dataset:
    if len(ds) <= cap:
        return ds
    return Dataset(ds.features[:cap], ds.labels[:cap], ds.num_classes)


def train_phase(net: Network, train: Dataset, test: Dataset, *, mode: str,
                epochs: int, lr: float, cfg: TrainConfig,
                rng: np.random.Generator, log: MetricLog, phase: str) -> None:
    train_eval = _subsample(train, cfg.eval_train_cap)
    for epoch in range(epochs):
        order = rng.permutation(len(train))
        for lo in range(0, len(train), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            logits = net.forward(train.features[idx], mode, training=True)
            loss, dlogits = softmax_xent(logits, train.labels[idx])
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss became {loss} in phase {phase!r}, epoch {epoch}"
                )
            net.backward(dlogits)
            net.step(lr)
        train_err = evaluate(net, train_eval, mode)
        # one set serves as both (every synth config): evaluate it once
        test_err = train_err if test is train_eval else evaluate(net, test, mode)
        log.add(phase, epoch, train_err, test_err)


def train_bnn(net: Network, train: Dataset, test: Dataset, cfg: TrainConfig,
              rng: np.random.Generator, log: MetricLog) -> None:
    for lr, epochs in cfg.lr_schedule:
        train_phase(net, train, test, mode="bin", epochs=int(epochs), lr=float(lr),
                    cfg=cfg, rng=rng, log=log, phase="bnn")


def prune_nodes(net: Network, theta: float, train: Dataset, test: Dataset,
                cfg: TrainConfig, rng: np.random.Generator, log: MetricLog) -> None:
    """Kill the floor(theta*N) lowest-|shadow| connections per dense layer
    named in ``cfg.shrink_layers``, then retrain binarized."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must be in [0,1]")
    for lay in net.layers:
        if lay.kind != "dense" or lay.name not in cfg.shrink_layers:
            continue
        n = lay.shadow.size
        n_kill = int(math.floor(theta * n))
        if n_kill >= n:
            raise ModelError(f"theta={theta} would empty layer {lay.name!r}")
        if n_kill == 0:
            continue
        order = np.argsort(np.abs(lay.shadow).ravel(), kind="stable")
        alive = np.ones(n, dtype=bool)
        alive[order[:n_kill]] = False
        lay.alive = alive.reshape(lay.shadow.shape)
    if theta > 0.0 and cfg.epochs_post_prune > 0:
        train_phase(net, train, test, mode="bin", epochs=cfg.epochs_post_prune,
                    lr=cfg.lr * LR_DECAY, cfg=cfg, rng=rng, log=log,
                    phase="prune-retrain")


def logic_expand(net: Network, k: int, train: Dataset, test: Dataset,
                 cfg: TrainConfig, rng: np.random.Generator, log: MetricLog) -> None:
    """Replace each surviving connection of each dense layer named in
    ``cfg.shrink_layers`` with a k-LUT initialized to reproduce its XNOR
    exactly, then retrain high-precision. ``k`` must be ``cfg.k``, the
    fan-in a checkpoint gives every LUT."""
    if k != cfg.k:
        raise ValueError(f"k={k} is not the [expand] k={cfg.k} of the config")
    for i, lay in enumerate(net.layers):
        if lay.kind != "dense" or lay.name not in cfg.shrink_layers:
            continue
        if k > lay.n_in:
            raise ModelError(f"k={k} exceeds the {lay.n_in} inputs of {lay.name!r}")
        chans, srcs = np.nonzero(lay.alive)
        if len(srcs) == 0:
            raise ModelError(f"layer {lay.name!r} has no surviving connections")
        # LUT input 0 is the connection's source, the other k-1 are drawn
        inputs = np.array([[p, *rng.choice(np.delete(np.arange(lay.n_in), p), k - 1,
                                           replace=False)] for p in srcs], dtype=np.int64)
        # the XNOR of input 0 with the weight sign(shadow)
        masks = (np.where(lay.shadow[chans, srcs] >= 0, 1.0, -1.0)[:, None]
                 * np.where(np.arange(2**k) & 1, 1.0, -1.0))
        net.layers[i] = LutLayer(lay.n_in, lay.n_out, lay.bn, lay.name, masks=masks,
                                 inputs=inputs, channel=chans,
                                 pruned=np.zeros(inputs.shape, dtype=bool))
    if cfg.epochs_post_expand > 0:
        train_phase(net, train, test, mode="hp", epochs=cfg.epochs_post_expand,
                    lr=cfg.lr * LR_DECAY, cfg=cfg, rng=rng, log=log,
                    phase="expand-retrain")
        net.recalibrate(train.features)


def logic_shrink(net: Network, train: Dataset, test: Dataset, cfg: TrainConfig,
                 rng: np.random.Generator, log: MetricLog) -> ShrinkPlan:
    """Iterative input removal: rank salience globally across the LUT
    layers (of fan-in cfg.k), sever the lowest delta*t/T fraction, retrain."""
    layers = [l for l in net.layers if l.kind == "lut"]
    if not layers:
        raise ModelError("no expanded layers to shrink")
    plan = ShrinkPlan()
    bounds = np.cumsum([0, *(l.n_nodes for l in layers)])
    for t in range(1, cfg.shrink_iters + 1):
        if cfg.random_prune:
            scores = rng.uniform(1e-9, 1.0, size=(bounds[-1], cfg.k))
        else:
            scores = np.concatenate([l.salience() for l in layers], axis=0)
        severed = np.concatenate([l.pruned for l in layers], axis=0)
        mask = build_prune_mask(scores, cfg.shrink_delta(t), severed)
        for li, lay in enumerate(layers):
            lay.set_pruned(mask.mask[bounds[li] : bounds[li + 1]])
        plan.pruned_counts.append(mask.count)
        train_phase(net, train, test, mode="hp", epochs=cfg.epochs_per_iter,
                    lr=cfg.lr * LR_DECAY**2, cfg=cfg, rng=rng, log=log,
                    phase=f"shrink-{t}")
        net.recalibrate(train.features)
    return plan


def finalize_binarized(net: Network, train: Dataset, test: Dataset,
                       cfg: TrainConfig, rng: np.random.Generator,
                       log: MetricLog) -> None:
    """Binarized-forward retraining. The LUT layers keep their raw masks and
    severed inputs, as in every phase: ``LutLayer.effective_masks`` applies
    the severance when the masks are read."""
    if cfg.epochs_final > 0:
        train_phase(net, train, test, mode="bin", epochs=cfg.epochs_final,
                    lr=cfg.lr * LR_DECAY**3, cfg=cfg, rng=rng, log=log,
                    phase="final")
