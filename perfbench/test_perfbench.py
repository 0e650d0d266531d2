"""Self-test of the benchmark at minimal size (``--smoke``: a few samples,
one epoch per phase). Run with ``python3 -m pytest perfbench -q``.

desk-teacher is left out: its fixed 784-512 shape makes even a minimal
export take tens of seconds. The other two workloads cover every metric.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _hashes(stdout: str) -> str:
    (line,) = [l for l in stdout.splitlines() if l.startswith("sha256 ")]
    return line


@pytest.mark.parametrize("workload", ["parity8", "lut-hidden"])
def test_metrics_certificate_and_hashes(workload):
    hashes = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert "mismatched 0" in proc.stdout
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        hashes.append(_hashes(proc.stdout))
    assert hashes[0] == hashes[1], "traced and untraced runs differ"


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "parity8", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
