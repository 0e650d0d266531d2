"""Benchmark workloads: configs and seeded, offline input generators.

MNIST is not available offline, so the two MNIST-shaped workloads label
generated images with a seeded sparse random k-LUT "teacher". The program
under test only ever receives the generated ``Dataset`` objects.

Shapes and hyperparameters of each workload are fixed; sample and epoch
counts set how long one pipeline takes. Changing any of them changes the
benchmark, so it starts a new baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from lutshrink import config, data
from lutshrink.train import TrainConfig

N_CLASSES = 10
MARGIN_QUANTILE = 0.8
HOLDOUT = 2000


@dataclass(frozen=True)
class Teacher:
    """Sparse random k-LUT network: LUTs over sign bits of central pixels,
    class score = fixed random weighting of LUT outputs, label = argmax.

    Each truth table is a random threshold function of its k inputs, so the
    task is a two-level threshold network that a BNN can learn. Per-class
    score offsets, fitted on a reference sample, balance the classes.
    """

    ink_prob: np.ndarray  # (n_inputs,) probability that a pixel carries ink
    inputs: np.ndarray  # (n_luts, k) pixel index read by each LUT input
    tables: np.ndarray  # (n_luts, 2^k) +/-1 truth tables
    weights: np.ndarray  # (n_classes, n_luts) class weighting of LUT outputs
    offsets: np.ndarray  # (n_classes,) subtracted from the class scores
    min_margin: np.ndarray  # (n_classes,) least top-two score gap per class

    @classmethod
    def random(cls, n_inputs: int, n_luts: int, k: int,
               rng: np.random.Generator) -> "Teacher":
        side = int(round(np.sqrt(n_inputs)))
        if side * side != n_inputs:
            raise ValueError(f"{n_inputs} inputs is not a square image")
        # ink on a centred blob, background elsewhere, as in MNIST
        yy, xx = np.mgrid[0:side, 0:side]
        c = (side - 1) / 2
        r2 = ((yy - c) ** 2 + (xx - c) ** 2) / (side / 4) ** 2
        ink_prob = (0.5 * np.exp(-r2 / 2)).ravel()
        # LUTs read only pixels whose bit is informative (ink 15..50%)
        candidates = np.nonzero(ink_prob > 0.15)[0]
        inputs = np.stack(
            [rng.choice(candidates, size=k, replace=False) for _ in range(n_luts)]
        )
        corners = np.where((np.arange(2**k)[:, None] >> np.arange(k)) & 1, 1, -1)
        a = rng.standard_normal((n_luts, k))
        b = 0.5 * rng.standard_normal((n_luts, 1))
        tables = np.where(a @ corners.T + b >= 0, 1, -1)
        # each LUT votes for one class, so every class has its own features
        weights = np.zeros((N_CLASSES, n_luts))
        weights[np.arange(n_luts) % N_CLASSES, np.arange(n_luts)] = \
            rng.uniform(0.5, 1.5, size=n_luts)
        t = cls(ink_prob, inputs, tables, weights, np.zeros(N_CLASSES),
                np.zeros(N_CLASSES))
        ref = t._scores(t.images(4096, rng))
        offsets = np.zeros(N_CLASSES)
        for _ in range(200):
            share = np.bincount(np.argmax(ref - offsets, axis=1),
                                minlength=N_CLASSES) / len(ref)
            offsets += 0.2 * (share - 1 / N_CLASSES)
        y, gap = t._label_gap(ref - offsets)
        margin = np.array([np.quantile(gap[y == c], MARGIN_QUANTILE)
                           if np.any(y == c) else 0.0 for c in range(N_CLASSES)])
        return cls(ink_prob, inputs, tables, weights, offsets, margin)

    def images(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n images in [-1, 1]: -1 background, ink in [-0.2, 1]."""
        ink = rng.random((n, self.ink_prob.size)) < self.ink_prob
        x = np.full(ink.shape, -1.0, dtype=np.float32)
        x[ink] = rng.uniform(-0.2, 1.0, size=int(ink.sum()))
        return x

    def _scores(self, x: np.ndarray) -> np.ndarray:
        bits = (x[:, self.inputs] >= 0).astype(np.int64)  # (n, n_luts, k)
        idx = (bits << np.arange(self.inputs.shape[1])).sum(axis=2)
        f = self.tables[np.arange(len(self.tables)), idx]  # (n, n_luts)
        return f @ self.weights.T - self.offsets

    @staticmethod
    def _label_gap(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Winning class and its lead over the runner-up."""
        top = np.sort(scores, axis=1)
        return np.argmax(scores, axis=1), top[:, -1] - top[:, -2]

    def sample(self, n: int, rng: np.random.Generator):
        """n labelled images, n/10 per class, each with a lead over the
        runner-up class in the top (1 - MARGIN_QUANTILE) of its class: like
        digits, classes are well separated."""
        per_class = -(-n // N_CLASSES)
        xs, ys = [], []
        need = np.full(N_CLASSES, per_class)
        for _ in range(100):
            if not need.any():
                break
            x = self.images(4 * n, rng)
            y, gap = self._label_gap(self._scores(x))
            clear = gap >= self.min_margin[y]
            for c in np.nonzero(need)[0]:
                take = np.nonzero(clear & (y == c))[0][: need[c]]
                need[c] -= len(take)
                xs.append(x[take])
                ys.append(y[take])
        else:
            raise RuntimeError(f"teacher labels too few images of classes "
                               f"{np.nonzero(need)[0].tolist()}")
        order = rng.permutation(N_CLASSES * per_class)[:n]
        return np.concatenate(xs)[order], np.concatenate(ys)[order]


def teacher_datasets(n_inputs: int, n_luts: int, sizes: tuple[int, ...],
                     seed: int) -> list[data.Dataset]:
    """Datasets of the given sizes labelled by one seeded teacher."""
    rng = np.random.default_rng(seed)
    teacher = Teacher.random(n_inputs, n_luts, 3, rng)
    return [data.Dataset(*teacher.sample(n, rng), N_CLASSES) for n in sizes]


def majority_error(ds: data.Dataset) -> float:
    """Test error of always answering the most frequent class."""
    counts = np.bincount(ds.labels, minlength=ds.num_classes)
    return 1.0 - counts.max() / len(ds)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, smoke) -> (config, train set, test set, holdout set). The
    # program sees train and test; final accuracy is measured on the larger
    # holdout, so its spread over seeds is not test-set sampling noise.
    make: Callable[[int, bool], tuple[TrainConfig, data.Dataset, data.Dataset,
                                      data.Dataset]]


def _smoke_epochs(cfg: TrainConfig) -> None:
    """Minimal-size variant for the self-test: one epoch per phase."""
    cfg.lr_schedule = [[lr, 1] for lr, _ in cfg.lr_schedule]
    cfg.epochs_post_prune = cfg.epochs_post_expand = 1
    cfg.epochs_per_iter = cfg.epochs_final = 1


def _parity8(seed: int, smoke: bool):
    cfg = config.load_config(config.preset_path("parity8"))
    cfg.seed = seed
    if smoke:
        _smoke_epochs(cfg)
    train, test = config.load_datasets(cfg)
    return cfg, train, test, test  # all 256 patterns: nothing is held out


def _teacher_config(seed: int, hidden: list[int], theta: float,
                    bnn_epochs: tuple[int, int, int],
                    prune_epochs: int) -> TrainConfig:
    """Desk preset (k=4, delta 0.75, batch 128, desk learning rates) with
    the given shape; epoch counts are the run-length lever."""
    cfg = config.load_config(config.preset_path("mnist-desk"))
    cfg.data_kind = "teacher"
    cfg.seed = seed
    cfg.hidden = hidden
    cfg.theta = theta
    cfg.lr_schedule = [[lr, e] for (lr, _), e in zip(cfg.lr_schedule, bnn_epochs)]
    cfg.epochs_post_prune = prune_epochs
    cfg.epochs_post_expand = cfg.epochs_per_iter = cfg.epochs_final = 1
    cfg.eval_train_cap = 600
    return cfg


def _desk_teacher(seed: int, smoke: bool):
    cfg = _teacher_config(seed, [512], 0.9, (3, 2, 1), 1)
    if smoke:
        _smoke_epochs(cfg)
    # MNIST's 6:1 train:test ratio
    sizes = (120, 20, 20) if smoke else (1800, 300, HOLDOUT)
    return (cfg, *teacher_datasets(784, 40, sizes, seed))


def _lut_hidden(seed: int, smoke: bool):
    cfg = _teacher_config(seed, [128, 128], 0.95, (20, 10, 5), 3)
    if smoke:
        _smoke_epochs(cfg)
    sizes = (120, 20, 20) if smoke else (600, 100, HOLDOUT)
    return (cfg, *teacher_datasets(196, 40, sizes, seed))


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "parity8",
            "packaged parity8 preset: thousands of tiny steps, bound by "
            "per-call overhead; kernels, BLAS, parser and checkpoint barely "
            "matter",
            _parity8,
        ),
        Workload(
            "desk-teacher",
            "desk shape 784-512-10 on teacher data: dense XNOR eval, a large "
            "Verilog to parse and simulate, 10 MB checkpoints dominate",
            _desk_teacher,
        ),
        Workload(
            "lut-hidden",
            "196-128-128-10 with ~820 LUTs as a hidden layer: LUT kernels "
            "dominate training; small netlist and checkpoint",
            _lut_hidden,
        ),
    ]
}
