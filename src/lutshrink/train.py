"""Pipeline phases: BNN training, connection pruning, expansion of surviving
XNORs into k-LUTs, iterative LUT-input removal, and final binarized
retraining."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .model import DenseLayer, LutLayer, ModelError, Network, softmax_xent
from .shrink import PruneMask, SalienceMatrix, build_prune_mask


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    """All knobs of the pipeline. Epoch defaults are generous (50
    high-precision epochs after expansion, 3 x 20 during shrinkage, 200
    binarized at the end); presets scale these down."""

    hidden: list[int] = field(default_factory=lambda: [256])
    shrink_layers: list[str] = field(default_factory=lambda: ["fc2"])
    theta: float = 0.9
    delta: float = 0.75
    k: int = 4
    shrink_iters: int = 3  # T
    epochs_per_iter: int = 20  # P
    epochs_bnn: int = 50
    epochs_post_prune: int = 20
    epochs_post_expand: int = 50
    epochs_final: int = 200
    lr: float = 0.01
    # optional piecewise (lr, epochs) schedule for the initial phase;
    # when empty, (lr, epochs_bnn) is used
    lr_schedule: list = field(default_factory=list)
    lr_decay: float = 0.5  # multiplier applied at each later phase
    momentum: float = 0.9
    batch_size: int = 256
    seed: int = 0
    random_prune: bool = False
    eval_train_cap: int = 10000
    data_kind: str = "synth"
    data_dir: str = ""
    synth_function: str = "parity"
    synth_inputs: int = 8
    synth_samples: int = 256

    def validate(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must be in [0,1]")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must be in [0,1]")
        if self.shrink_iters < 1 or self.epochs_per_iter < 1:
            raise ValueError("T and P must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class ShrinkPlan:
    """Record of one shrinkage run: per-iteration targets, scores and masks."""

    deltas: list[float] = field(default_factory=list)
    pruned_counts: list[int] = field(default_factory=list)
    saliences: list[np.ndarray] = field(default_factory=list)
    masks: list[np.ndarray] = field(default_factory=list)
    random_mode: bool = False


class MetricLog:
    """Per-epoch plain-text metrics: phase, epoch, train error, test error."""

    def __init__(self, path: str | None = None):
        self.path = path
        self.records: list[tuple[str, int, float, float]] = []

    def add(self, phase: str, epoch: int, train_err: float, test_err: float) -> None:
        self.records.append((phase, epoch, train_err, test_err))
        if self.path:
            with open(self.path, "a") as f:
                f.write(f"{phase}\t{epoch}\t{train_err:.6f}\t{test_err:.6f}\n")


def build_network(cfg: TrainConfig, n_features: int, n_classes: int,
                  rng: np.random.Generator) -> Network:
    sizes = [n_features, *cfg.hidden, n_classes]
    layers = []
    for i in range(len(sizes) - 1):
        name = f"fc{i + 1}"
        layers.append(
            DenseLayer(
                sizes[i],
                sizes[i + 1],
                rng,
                name,
                is_output=(i == len(sizes) - 2),
                shrinkable=name in cfg.shrink_layers,
            )
        )
    return Network(layers, n_classes)


def evaluate(net: Network, ds: Dataset, mode: str, batch: int = 1024) -> float:
    """Top-1 error fraction; the bin mode is pure integer arithmetic."""
    wrong = 0
    for lo in range(0, len(ds), batch):
        x = ds.features[lo : lo + batch]
        y = ds.labels[lo : lo + batch]
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
    eval_mode = mode
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
            net.step(lr, cfg.momentum)
        log.add(
            phase,
            epoch,
            evaluate(net, train_eval, eval_mode),
            evaluate(net, test, eval_mode),
        )


def train_bnn(net: Network, train: Dataset, test: Dataset, cfg: TrainConfig,
              rng: np.random.Generator, log: MetricLog) -> Network:
    segments = cfg.lr_schedule or [(cfg.lr, cfg.epochs_bnn)]
    for lr, epochs in segments:
        train_phase(net, train, test, mode="bin", epochs=int(epochs), lr=float(lr),
                    cfg=cfg, rng=rng, log=log, phase="bnn")
    return net


def prune_nodes(net: Network, theta: float, train: Dataset, test: Dataset,
                cfg: TrainConfig, rng: np.random.Generator, log: MetricLog) -> Network:
    """Kill the floor(theta*N) lowest-|shadow| connections per shrinkable
    layer, then retrain binarized."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must be in [0,1]")
    for lay in net.layers:
        if lay.kind != "dense" or not lay.shrinkable:
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
                    lr=cfg.lr * cfg.lr_decay, cfg=cfg, rng=rng, log=log,
                    phase="prune-retrain")
    return net


def logic_expand(net: Network, k: int, train: Dataset, test: Dataset,
                 cfg: TrainConfig, rng: np.random.Generator, log: MetricLog) -> Network:
    """Replace each surviving connection of a shrinkable layer with a k-LUT
    initialized to reproduce its XNOR exactly, then retrain high-precision."""
    new_layers = []
    for lay in net.layers:
        if lay.kind != "dense" or not lay.shrinkable:
            new_layers.append(lay)
            continue
        if k - 1 > lay.n_in - 1:
            raise ModelError(
                f"k={k} exceeds the {lay.n_in} distinct inputs of {lay.name!r}"
            )
        chans, srcs = np.nonzero(lay.alive)
        n_nodes = len(srcs)
        if n_nodes == 0:
            raise ModelError(f"layer {lay.name!r} has no surviving connections")
        inputs = np.empty((n_nodes, k), dtype=np.int64)
        masks = np.empty((n_nodes, 2**k))
        corner_sign = np.where(np.arange(2**k) & 1, 1.0, -1.0)
        for n in range(n_nodes):
            p = srcs[n]
            others = np.concatenate([np.arange(p), np.arange(p + 1, lay.n_in)])
            extra = rng.choice(others, size=k - 1, replace=False)
            inputs[n, 0] = p
            inputs[n, 1:] = extra
            w = 1.0 if lay.shadow[chans[n], p] >= 0 else -1.0
            masks[n] = w * corner_sign
        new_layers.append(
            LutLayer(lay.n_in, lay.n_out, k, inputs, chans.astype(np.int64),
                     masks, lay.name, is_output=lay.is_output, bn=lay.bn,
                     alpha=lay.alpha)
        )
    net.layers = new_layers
    if cfg.epochs_post_expand > 0:
        train_phase(net, train, test, mode="hp", epochs=cfg.epochs_post_expand,
                    lr=cfg.lr * cfg.lr_decay, cfg=cfg, rng=rng, log=log,
                    phase="expand-retrain")
        net.recalibrate(train.features)
    return net


def _shrinkable_lut_layers(net: Network) -> list[LutLayer]:
    return [l for l in net.layers if l.kind == "lut"]


def total_surviving_inputs(net: Network) -> int:
    return sum(int((~l.pruned).sum()) for l in _shrinkable_lut_layers(net))


def logic_shrink(net: Network, train: Dataset, test: Dataset, cfg: TrainConfig,
                 rng: np.random.Generator, log: MetricLog) -> ShrinkPlan:
    """Iterative input removal: rank salience globally across shrinkable
    layers, sever the lowest delta*t/T fraction, retrain, repeat."""
    layers = _shrinkable_lut_layers(net)
    if not layers:
        raise ModelError("no expanded layers to shrink")
    k = layers[0].k
    if any(l.k != k for l in layers):
        raise ModelError("mixed fan-ins across shrinkable layers")
    plan = ShrinkPlan(random_mode=cfg.random_prune)
    prev: PruneMask | None = None
    sizes = [l.n_nodes for l in layers]
    bounds = np.cumsum([0, *sizes])
    for t in range(1, cfg.shrink_iters + 1):
        if cfg.random_prune:
            scores = rng.uniform(1e-9, 1.0, size=(bounds[-1], k))
        else:
            scores = np.concatenate([l.salience() for l in layers], axis=0)
        cur_pruned = np.concatenate([l.pruned for l in layers], axis=0)
        if prev is None and cur_pruned.any():
            prev = PruneMask(cur_pruned, 0.0)
        delta_t = cfg.delta * t / cfg.shrink_iters
        mask = build_prune_mask(SalienceMatrix(scores), delta_t, prev)
        for li, lay in enumerate(layers):
            lay.set_pruned(mask.mask[bounds[li] : bounds[li + 1]])
        plan.deltas.append(delta_t)
        plan.pruned_counts.append(mask.count)
        plan.saliences.append(scores)
        plan.masks.append(mask.mask.copy())
        train_phase(net, train, test, mode="hp", epochs=cfg.epochs_per_iter,
                    lr=cfg.lr * cfg.lr_decay**2, cfg=cfg, rng=rng, log=log,
                    phase=f"shrink-{t}")
        net.recalibrate(train.features)
        prev = mask
    return plan


def finalize_binarized(net: Network, train: Dataset, test: Dataset,
                       cfg: TrainConfig, rng: np.random.Generator,
                       log: MetricLog) -> Network:
    """Binarized-forward retraining, then fold the severance transforms into
    the raw masks and freeze."""
    if cfg.epochs_final > 0:
        train_phase(net, train, test, mode="bin", epochs=cfg.epochs_final,
                    lr=cfg.lr * cfg.lr_decay**3, cfg=cfg, rng=rng, log=log,
                    phase="final")
    for lay in _shrinkable_lut_layers(net):
        lay.fold_transforms()
    return net
