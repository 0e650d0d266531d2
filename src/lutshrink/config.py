"""Plain-text key=value configuration (INI sections per pipeline phase)."""

from __future__ import annotations

import configparser
import os
from importlib import resources

from .data import Dataset, load_idx, synth_boolean
from .train import TrainConfig

DATA_DIR_ENV = "LUTSHRINK_DATA_DIR"


class ConfigError(ValueError):
    pass


# section -> key -> (TrainConfig attribute, parser)
_SCHEMA = {
    "data": {
        "dataset": ("data_kind", str),
        "dir": ("data_dir", str),
        "function": ("synth_function", str),
        "inputs": ("synth_inputs", int),
        "samples": ("synth_samples", int),
    },
    "model": {
        "hidden": ("hidden", lambda s: [int(v) for v in s.split(",") if v.strip()]),
        "shrink_layers": (
            "shrink_layers",
            lambda s: [v.strip() for v in s.split(",") if v.strip()],
        ),
    },
    "train": {
        "seed": ("seed", int),
        "lr": ("lr", float),
        "lr_decay": ("lr_decay", float),
        "momentum": ("momentum", float),
        "batch_size": ("batch_size", int),
        "epochs": ("epochs_bnn", int),
        "lr_schedule": (
            "lr_schedule",
            lambda s: [
                [float(seg.split(":")[0]), int(seg.split(":")[1])]
                for seg in s.split(",")
                if seg.strip()
            ],
        ),
        "eval_train_cap": ("eval_train_cap", int),
    },
    "prune": {
        "theta": ("theta", float),
        "epochs": ("epochs_post_prune", int),
    },
    "expand": {
        "k": ("k", int),
        "epochs": ("epochs_post_expand", int),
    },
    "shrink": {
        "delta": ("delta", float),
        "iterations": ("shrink_iters", int),
        "epochs_per_iter": ("epochs_per_iter", int),
        "random_prune": ("random_prune", lambda s: s.lower() == "true"),
    },
    "finalize": {
        "epochs": ("epochs_final", int),
    },
}


def preset_path(name: str) -> str:
    path = resources.files("lutshrink").joinpath(f"presets/{name}.ini")
    if not path.is_file():
        raise ConfigError(f"unknown preset {name!r}")
    return str(path)


def load_config(path: str) -> TrainConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path)
    cfg = TrainConfig()
    bad = []
    for section in parser.sections():
        if section not in _SCHEMA:
            bad.append(f"[{section}]")
            continue
        for key, raw in parser.items(section):
            if (section, key) == ("model", "binarize_inputs"):
                raise ConfigError(
                    f"[model] binarize_inputs was removed; delete it from {path}")
            if key not in _SCHEMA[section]:
                bad.append(f"[{section}] {key}")
                continue
            attr, parse = _SCHEMA[section][key]
            try:
                setattr(cfg, attr, parse(raw))
            except ValueError as e:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from e
    if bad:
        raise ConfigError("invalid config keys: " + ", ".join(bad))
    cfg.validate()
    return cfg


def load_datasets(cfg: TrainConfig) -> tuple[Dataset, Dataset]:
    """Resolve the (train, test) pair named by the config."""
    if cfg.data_kind == "mnist":
        root = cfg.data_dir or os.environ.get(DATA_DIR_ENV, "data")
        paths = {
            "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
            "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
        }
        out = []
        for split in ("train", "test"):
            img, lab = (os.path.join(root, p) for p in paths[split])
            if not os.path.exists(img):
                raise ConfigError(
                    f"missing dataset file {img} (set [data] dir or ${DATA_DIR_ENV})"
                )
            out.append(load_idx(img, lab))
        return out[0], out[1]
    if cfg.data_kind == "synth":
        ds = synth_boolean(cfg.synth_function, cfg.synth_inputs, cfg.synth_samples,
                           seed=cfg.seed)
        return ds, ds
    raise ConfigError(f"unknown dataset kind {cfg.data_kind!r}")
