import argparse
import configparser
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import lutshrink
from lutshrink import checkpoint
from lutshrink.cli import THREAD_VARS, _set_threads, build_parser, main
from lutshrink.config import load_config, preset_path
from lutshrink.train import SETTINGS


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Full xor-smoke run: train -> expand -> shrink -> finalize -> export."""
    d = tmp_path_factory.mktemp("run")
    out = str(d)
    ckpt = os.path.join(out, "checkpoint.json")
    assert main(["train", "--preset", "xor-smoke", "--out", out]) == 0
    assert main(["expand", ckpt]) == 0
    assert main(["shrink", ckpt]) == 0
    assert main(["finalize", ckpt]) == 0
    assert main(["export", ckpt, "--out", out]) == 0
    return out


def test_pipeline_artifacts(pipeline_dir):
    for name in ("checkpoint.json", "metrics.log", "netlist.v",
                 "area_report.txt", "area_report.tsv", "certificate.txt"):
        assert os.path.exists(os.path.join(pipeline_dir, name)), name
    cert = open(os.path.join(pipeline_dir, "certificate.txt")).read()
    assert "status\tPASS" in cert and "mismatches\t0" in cert
    v = open(os.path.join(pipeline_dir, "netlist.v")).read()
    assert v.startswith("module top (") and v.rstrip().endswith("endmodule")


def test_export_counts_multi_input_luts(pipeline_dir, tmp_path, capsys):
    """Every xor-smoke LUT keeps a single input after simplify: export says so
    for its one LUT layer and warns in one line."""
    ckpt = os.path.join(pipeline_dir, "checkpoint.json")
    assert main(["export", ckpt, "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == (
        "fc2: 0 of 12 LUTs keep 2 or more inputs after simplify")
    assert captured.err == ("warning: no LUT keeps 2 or more inputs after "
                            "simplify; the netlist is a pruned XNOR/popcount network\n")


def test_report_checkpoint(pipeline_dir, capsys):
    assert main(["report", os.path.join(pipeline_dir, "checkpoint.json")]) == 0
    out = capsys.readouterr().out
    assert "phase: final" in out
    assert "delta achieved" in out
    assert "shrink schedule" in out


def test_report_metrics_log(pipeline_dir, capsys):
    assert main(["report", os.path.join(pipeline_dir, "metrics.log"), "--tsv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "phase\tepoch\ttrain_err\ttest_err"
    assert len(out) > 10


@pytest.mark.parametrize("text, line", [
    ("[]\n", "'[]'"),
    ("garbage\n", "'garbage'"),
    ("bnn\t1\t0.5\t0.25\nbnn\t2\t0.5\n", "'bnn\\t2\\t0.5'"),
    ("bnn\tone\t0.5\t0.25\n", "'bnn\\tone\\t0.5\\t0.25'"),
], ids=["json-list", "word", "three-fields", "epoch-not-int"])
def test_report_refuses_a_malformed_metrics_log(tmp_path, capsys, text, line):
    p = tmp_path / "bad.txt"  # not a .log: sniffed as a log, not a checkpoint
    p.write_text(text)
    assert main(["report", str(p)]) == 1
    captured = capsys.readouterr()
    n = text.count("\n")
    assert captured.out == ""
    assert captured.err == (f"error: {p} line {n} is not a metrics line (phase, epoch, "
                            f"train_err, test_err, tab-separated): {line}\n")


def test_simulate_command(pipeline_dir, tmp_path, capsys):
    vecs = tmp_path / "vecs.txt"
    np.savetxt(vecs, np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]]), fmt="%d")
    assert main(["simulate", os.path.join(pipeline_dir, "netlist.v"),
                 "--inputs", str(vecs)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["score_0", "score_1"]
    assert len(lines) == 5


def test_phase_order_enforced(pipeline_dir, tmp_path, capsys):
    ckpt = os.path.join(pipeline_dir, "checkpoint.json")
    # checkpoint is at 'final'; expand requires 'trained'
    assert main(["expand", ckpt, "--out", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert "phase 'final'" in err and "'trained'" in err


def test_shrink_before_expand_fails(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["train", "--preset", "xor-smoke", "--out", out]) == 0
    ckpt = os.path.join(out, "checkpoint.json")
    assert main(["shrink", ckpt]) == 1
    assert "requires 'expanded'" in capsys.readouterr().err


def test_train_is_seed_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train", "--preset", "xor-smoke", "--out", a]) == 0
    assert main(["train", "--preset", "xor-smoke", "--out", b]) == 0
    ca = open(os.path.join(a, "checkpoint.json"), "rb").read()
    cb = open(os.path.join(b, "checkpoint.json"), "rb").read()
    assert ca == cb


def test_unknown_preset_fails(tmp_path, capsys):
    assert main(["train", "--preset", "nope", "--out", str(tmp_path)]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_invalid_config_keys_are_listed(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[data]\ndataset = synth\nfrobnicate = 1\n[bogus]\nx = 2\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "[data] frobnicate" in err and "[bogus]" in err


def test_missing_dataset_path_names_remedy(tmp_path, capsys, monkeypatch):
    cfgp = tmp_path / "m.ini"
    cfgp.write_text("[data]\ndataset = mnist\n[train]\nepochs = 1\n")
    # a directory holding only the training images must fail on the labels
    # file with the same one-line remedy, before anything is loaded
    partial = tmp_path / "partial"
    partial.mkdir()
    (partial / "train-images-idx3-ubyte").write_bytes(b"")
    for root, missing in ((tmp_path / "nowhere", "train-images-idx3-ubyte"),
                          (partial, "train-labels-idx1-ubyte")):
        monkeypatch.setenv("LUTSHRINK_DATA_DIR", str(root))
        assert main(["train", "--config", str(cfgp), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "missing dataset file" in err and "LUTSHRINK_DATA_DIR" in err
        assert str(root / missing) in err and err.count("\n") == 1


def test_removed_knob_names_the_remedy(tmp_path, capsys):
    cfgp = tmp_path / "old.ini"
    cfgp.write_text("[data]\ndataset = synth\n[model]\nbinarize_inputs = false\n")
    assert main(["train", "--config", str(cfgp), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "[model] binarize_inputs was removed" in err and "delete it" in err


def test_expand_fan_in_flag_names_its_range(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["train", "--preset", "xor-smoke", "--out", out]) == 0
    ckpt = os.path.join(out, "checkpoint.json")
    for k in ("0", "7"):
        assert main(["expand", ckpt, "--k", k]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--k" in err and "[1, 6]" in err and f"got {k}" in err


@pytest.mark.parametrize("section, key, value, bound", [
    ("train", "batch_size", "0", ">= 1"),
    ("expand", "k", "7", "[1, 6]"),
    ("train", "lr", "nan", "finite and > 0"),
    ("train", "lr", "0", "finite and > 0"),
    ("train", "lr_decay", "inf", "finite and > 0"),
    ("train", "lr_schedule", "nan:5", "finite and > 0"),
    ("train", "lr_schedule", "0.1:-1", "epochs >= 0"),
    ("train", "momentum", "1.5", "[0, 1)"),
    ("train", "epochs", "-1", ">= 0"),
    ("train", "eval_train_cap", "0", ">= 1"),
    ("model", "hidden", "0", ">= 1"),
    ("data", "samples", "0", ">= 1"),
    ("data", "inputs", "0", ">= 1"),
    ("prune", "theta", "1.5", "[0, 1]"),
    ("prune", "epochs", "-1", ">= 0"),
    ("expand", "epochs", "-2", ">= 0"),
    ("shrink", "delta", "-0.5", "[0, 1]"),
    ("shrink", "iterations", "0", ">= 1"),
    ("shrink", "epochs_per_iter", "0", ">= 1"),
    ("finalize", "epochs", "-1", ">= 0"),
    ("model", "shrink_layers", "fc9", "one of fc1 to fc2"),
])
def test_out_of_range_config_value_names_key_and_range(tmp_path, capsys, section,
                                                       key, value, bound):
    sections = {"data": "dataset = synth\n"}
    sections[section] = sections.get(section, "") + f"{key} = {value}\n"
    cfgp = tmp_path / "bad.ini"
    cfgp.write_text("".join(f"[{s}]\n{body}" for s, body in sections.items()))
    assert main(["train", "--config", str(cfgp), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"[{section}] {key}" in err and bound in err and f"got {value}" in err
    assert not (tmp_path / "checkpoint.json").exists()


@pytest.mark.parametrize("section, key, value", [
    ("shrink", "random_prune", "treu"),
    ("train", "lr", "fast"),
    ("train", "lr_schedule", "0.1"),
])
def test_unparseable_config_value_names_key(tmp_path, capsys, section, key, value):
    cfgp = tmp_path / "bad.ini"
    cfgp.write_text(f"[data]\ndataset = synth\n[{section}]\n{key} = {value}\n")
    assert main(["train", "--config", str(cfgp), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: bad value for [{section}] {key}: {value!r}\n"


@pytest.mark.parametrize("value, expected", [
    ("true", True), ("Yes", True), ("on", True), ("1", True),
    ("false", False), ("NO", False), ("off", False), ("0", False),
])
def test_boolean_config_value_takes_configparser_words(tmp_path, value, expected):
    cfgp = tmp_path / "b.ini"
    cfgp.write_text(f"[data]\ndataset = synth\n[shrink]\nrandom_prune = {value}\n")
    assert load_config(str(cfgp)).random_prune is expected


def test_stage_flags_name_their_range(tmp_path, capsys):
    out = str(tmp_path)
    ckpt = os.path.join(out, "checkpoint.json")
    for command in (["train", "--preset", "xor-smoke", "--out", out],
                    ["expand", ckpt], ["shrink", ckpt]):
        assert main(command) == 0
    capsys.readouterr()
    cases = [(["finalize", ckpt, "--epochs", "-1"], "--epochs", ">= 0")]
    for argv, flag, bound in cases:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert flag in err and bound in err and f"got {argv[-1]}" in err
    assert not os.path.exists(os.path.join(out, "certificate.txt"))


STAGE_FLAGS = {
    "expand": {"--k": "3", "--epochs": "2"},
    "shrink": {"--delta": "0.25", "--iterations": "1", "--epochs-per-iter": "2",
               "--random-prune": None},
    "finalize": {"--epochs": "3"},
}


def test_stage_flags_are_the_keys_of_their_section():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, flags in STAGE_FLAGS.items():
        got = {opt for a in sub.choices[command]._actions for opt in a.option_strings}
        assert got == {"-h", "--help", "--out", *flags}, command


def test_readme_knob_table_lists_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `\[(\w+)\]` *\|(.*)\|$", readme, flags=re.M)
    table = {section: set(re.findall(r"`(\w+)`", keys)) for section, keys in rows}
    assert len(table) == len(rows)  # no section listed twice
    settings: dict[str, set[str]] = {}
    for section, key in SETTINGS:
        settings.setdefault(section, set()).add(key)
    assert table == settings


def test_stage_flags_are_saved_as_their_ini_keys(tmp_path):
    out = str(tmp_path)
    ckpt = os.path.join(out, "checkpoint.json")
    assert main(["train", "--preset", "xor-smoke", "--out", out]) == 0
    # the same values as INI keys, each in its command's section
    ini = configparser.ConfigParser()
    ini.read(preset_path("xor-smoke"))
    src = ckpt
    for n, (command, flags) in enumerate(STAGE_FLAGS.items()):
        dst = str(tmp_path / f"{command}.json")
        before = open(src, "rb").read()
        argv = [command, src, "--out", dst]
        for flag, value in flags.items():
            argv += [flag] if value is None else [flag, value]
            ini[command][flag[2:].replace("-", "_")] = value or "true"
        assert main(argv) == 0
        assert open(src, "rb").read() == before, command
        _, cfg, phase, _, plan = checkpoint.load(dst)
        assert phase == ("expanded", "shrunk", "final")[n]
        src = dst
    ini_path = str(tmp_path / "flags.ini")
    with open(ini_path, "w") as f:
        ini.write(f)
    assert asdict(cfg) == asdict(load_config(ini_path))
    assert (cfg.k, cfg.epochs_post_expand, cfg.delta, cfg.shrink_iters,
            cfg.epochs_per_iter, cfg.random_prune, cfg.epochs_final) == (
        3, 2, 0.25, 1, 2, True, 3)
    assert cfg.random_prune and plan.deltas[-1] == 0.25


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(lutshrink.__file__))
    code = "import sys, lutshrink.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert done.returncode == 0


def test_threads_flag_overrides_environment(monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "4")
    _set_threads(["report", "x"])
    assert [os.environ[v] for v in THREAD_VARS] == ["4"] * 3
    _set_threads(["--threads", "2", "report", "x"])
    assert [os.environ[v] for v in THREAD_VARS] == ["2"] * 3
    _set_threads(["--threads=3", "report", "x"])
    assert [os.environ[v] for v in THREAD_VARS] == ["3"] * 3
    for var in THREAD_VARS:
        monkeypatch.delenv(var)
    _set_threads(["report", "x"])
    assert [os.environ[v] for v in THREAD_VARS] == ["1"] * 3


@pytest.mark.parametrize("argv", [["--threads", "0"], ["--threads=-1"]])
def test_threads_below_one_is_refused_before_any_variable_is_set(argv, monkeypatch,
                                                                 capsys):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "4")
    assert main([*argv, "report", "x"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--threads" in err and ">= 1" in err
    assert [os.environ[v] for v in THREAD_VARS] == ["4"] * 3


def test_config_that_is_not_a_file_fails(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: config file not found: {tmp_path}\n"


@pytest.mark.parametrize("text, where", [
    ("hidden = 3\n[data]\ndataset = synth\n", "line 1"),
    ("[expand]\nk = 3\nk = 4\n", "line 3: [expand] k is set twice"),
])
def test_malformed_ini_fails_in_one_line(tmp_path, capsys, text, where):
    cfgp = tmp_path / "bad.ini"
    cfgp.write_text(text)
    assert main(["train", "--config", str(cfgp), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{cfgp}, {where}" in err
