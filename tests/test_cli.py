import os
import subprocess
import sys

import numpy as np
import pytest

import lutshrink
from lutshrink.cli import THREAD_VARS, _set_threads, main


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
    assert main(["export", ckpt, "--out", out, "--cert-samples", "256"]) == 0
    return out


def test_pipeline_artifacts(pipeline_dir):
    for name in ("checkpoint.json", "metrics.log", "netlist.v",
                 "area_report.txt", "area_report.tsv", "certificate.txt"):
        assert os.path.exists(os.path.join(pipeline_dir, name)), name
    cert = open(os.path.join(pipeline_dir, "certificate.txt")).read()
    assert "status\tPASS" in cert and "mismatches\t0" in cert
    v = open(os.path.join(pipeline_dir, "netlist.v")).read()
    assert v.startswith("module top (") and v.rstrip().endswith("endmodule")


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
    monkeypatch.setenv("LUTSHRINK_DATA_DIR", str(tmp_path / "nowhere"))
    cfgp = tmp_path / "m.ini"
    cfgp.write_text("[data]\ndataset = mnist\n[train]\nepochs = 1\n")
    assert main(["train", "--config", str(cfgp), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "missing dataset file" in err and "LUTSHRINK_DATA_DIR" in err


def test_removed_knob_names_the_remedy(tmp_path, capsys):
    cfgp = tmp_path / "old.ini"
    cfgp.write_text("[data]\ndataset = synth\n[model]\nbinarize_inputs = false\n")
    assert main(["train", "--config", str(cfgp), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "[model] binarize_inputs was removed" in err and "delete it" in err


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
