"""Plain-text key=value configuration (INI sections per pipeline phase)."""

from __future__ import annotations

import configparser
import os
from importlib import resources

from .data import Dataset, load_idx, synth_boolean
from .model import MOMENTUM
from .train import LR_DECAY, SETTINGS, TrainConfig

DATA_DIR_ENV = "LUTSHRINK_DATA_DIR"
# The four MNIST IDX files, in (train images, train labels, test images,
# test labels) order; all must be present before anything is loaded.
MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)

# (section, key) of a retired setting -> what to write instead
RETIRED = {
    ("model", "binarize_inputs"): "delete it; the binarized phases always read sign(x)",
    ("train", "momentum"): f"delete it; momentum is fixed at {MOMENTUM}",
    ("train", "lr_decay"): "delete it; the phases after BNN training run at lr "
                           f"times {LR_DECAY}, {LR_DECAY**2} and {LR_DECAY**3}",
    ("train", "epochs"): "replace it with lr_schedule = <rate>:<epochs>, the "
                         "rate and epochs of BNN training",
}


class ConfigError(ValueError):
    pass


def preset_path(name: str) -> str:
    path = resources.files("lutshrink").joinpath(f"presets/{name}.ini")
    if not path.is_file():
        raise ConfigError(f"unknown preset {name!r}")
    return str(path)


def _syntax_error(path: str, e: configparser.Error) -> ConfigError:
    """One line for an INI file that configparser refuses: the file, the
    line and what is wrong there."""
    if isinstance(e, configparser.MissingSectionHeaderError):
        what = "a setting comes before the first [section] header"
    elif isinstance(e, configparser.DuplicateOptionError):
        what = f"[{e.section}] {e.option} is set twice"
    elif isinstance(e, configparser.DuplicateSectionError):
        what = f"[{e.section}] appears twice"
    elif isinstance(e, configparser.ParsingError):
        return ConfigError(f"{path}, line {e.errors[0][0]}: "
                           "neither a [section] header nor key = value")
    else:  # a bad %-reference, found when a value is read
        return ConfigError(f"{path}: {str(e).splitlines()[0]}")
    return ConfigError(f"{path}, line {e.lineno}: {what}")


def load_config(path: str) -> TrainConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path) as f:  # parser.read would skip a file it cannot open
            parser.read_file(f)
        if parser.defaults():  # it would reach every section, or none
            raise ConfigError(f"{path}: [DEFAULT] {', '.join(parser.defaults())} "
                              "is not supported; set each key in its own section")
        sections = {s: parser.items(s) for s in parser.sections()}
    except configparser.Error as e:
        raise _syntax_error(path, e) from None
    cfg = TrainConfig()
    bad = []
    for section, items in sections.items():
        if not any(s == section for s, _ in SETTINGS):
            bad.append(f"[{section}]")
            continue
        for key, raw in items:
            if (section, key) in RETIRED:
                raise ConfigError(f"{path}: [{section}] {key} was removed; "
                                  + RETIRED[section, key])
            f = SETTINGS.get((section, key))
            if f is None:
                bad.append(f"[{section}] {key}")
                continue
            try:
                setattr(cfg, f.name, f.metadata["parse"](raw))
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
        paths = [os.path.join(root, name) for name in MNIST_FILES]
        for path in paths:
            if not os.path.exists(path):
                raise ConfigError(
                    f"missing dataset file {path} (set [data] dir or ${DATA_DIR_ENV})"
                )
        return load_idx(*paths[:2]), load_idx(*paths[2:])
    if cfg.data_kind == "synth":
        ds = synth_boolean(cfg.synth_function, cfg.synth_inputs, cfg.synth_samples,
                           seed=cfg.seed)
        return ds, ds
    raise ConfigError(f"unknown dataset kind {cfg.data_kind!r}")
