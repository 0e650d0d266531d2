"""Pipeline benchmark for lutshrink: times every stage end to end, and
every layer from outside in a separate traced run. Offline: the inputs are
generated from --seed.

    python3 perfbench/run.py --workload parity8 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

Each run is closed loop and single process: one workload process runs whole
pipelines back to back until --seconds is used (at least one). Set-up time
is measured over fresh processes. Timings are medians over the run.
pipeline_rel divides each pipeline's wall time by the time of a fixed
reference loop run between its stages, so drift in the machine's speed
cancels; the wall seconds are per-layer metrics.

Every pipeline certifies its Verilog against Network.predict_bin on every
test sample. The run fails (exit 1) on any mismatch, failed stage, or
checkpoint/Verilog sha256 that differs between pipelines of the run, traced
or not, or from an earlier run of the same code, workload and seed.

The last stdout line is one JSON object: {correct, attempted, failed,
metrics}; with --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones. attempted/failed count certificate samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, RUN_TIMES, STAGES, per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
STATE = ROOT / ".perfbench"
# as in workloads.py, which this process does not import: it loads neither
# numpy nor the program
WORKLOADS = ("parity8", "desk-teacher", "lut-hidden")
SETUP_PROBES = 5
TIME_LIMIT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result at all."""


def source_digest() -> str:
    """sha256 over the program and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "lutshrink").rglob("*.py"))
    files += sorted((ROOT / "src" / "lutshrink").rglob("*.ini"))
    files += sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _worker(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the workload ran")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"workload process exceeded {TIME_LIMIT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return proc


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool) -> dict:
    """Run one workload; returns the raw worker output plus set-up times."""
    deadline = time.monotonic() + TIME_LIMIT_S
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    outdir = STATE / "runs" / tag
    outdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--outdir", str(outdir)]
    if smoke:
        common.append("--smoke")
    setup_s = []
    for _ in range(2 if smoke else SETUP_PROBES):
        t0 = time.perf_counter()
        _worker([*common, "--setup-only"], deadline)
        setup_s.append(time.perf_counter() - t0)
    proc = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)],
                   deadline)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    raw.update(workload=workload, seed=seed, trace=trace, smoke=smoke,
               setup_s=setup_s, outdir=str(outdir))
    return raw


def _check_hash_history(raw: dict, hashes: dict) -> str | None:
    """Compare with (or record) the hashes of an earlier run of the same
    code, workload and seed; traced and untraced runs share one record."""
    key = hashlib.sha256(
        f"{source_digest()}/{raw['workload']}/{raw['seed']}/{raw['smoke']}".encode()
    ).hexdigest()[:32]
    path = STATE / "hashes" / f"{key}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != hashes:
            return f"hashes differ from an earlier run of this code: {before}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(hashes))
    os.replace(tmp, path)
    return None


def evaluate(raw: dict) -> dict:
    """Checks and metrics of one workload run."""
    pipes = raw["pipelines"]
    done = [p for p in pipes if p["failed_stage"] is None]
    untraced = [p for p in done if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    if not untraced or (raw["trace"] and not traced):
        raise BenchError("no pipeline of the requested kind completed")
    problems = []
    for p in pipes:
        if p["failed_stage"] is not None:
            problems.append(f"stage {p['failed_stage']} failed")
        elif p["mismatches"]:
            problems.append(f"certificate: {p['mismatches']} of {p['samples']} "
                            "samples mismatched")
    hash_sets = {(p["checkpoint_sha256"], p["verilog_sha256"]) for p in done}
    if len(hash_sets) > 1:
        problems.append(f"hash drift between pipelines of one run: {hash_sets}")
    ref = done[0]
    hashes = {"checkpoint_sha256": ref["checkpoint_sha256"],
              "verilog_sha256": ref["verilog_sha256"]}
    drift = _check_hash_history(raw, hashes)
    if drift:
        problems.append(drift)
    # smoke runs train too little to learn anything
    if not raw["smoke"] and ref["holdout_err"] >= raw["majority_err"]:
        problems.append(f"task not learned: error {ref['holdout_err']:.4f}"
                        f" >= majority-class error {raw['majority_err']:.4f}")

    med = statistics.median
    run_times = {f"{s}_s": med(p["stage_s"][s] for p in untraced) for s in STAGES}
    run_times["pipeline_s"] = med(sum(p["stage_s"].values()) for p in untraced)
    run_times["ref_s"] = med(r for p in untraced for r in p["ref_s"])
    e2e = {
        "pipeline_rel": med(sum(p["stage_s"].values()) / med(p["ref_s"])
                            for p in untraced),
        "setup_s": med(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "final_test_acc": 1.0 - ref["holdout_err"],
        "area_terms": ref["area_terms"],
    }
    layers = {}
    if traced:
        layers.update(run_times)
        for name in traced[0]["layers"]:
            layers[name] = med(p["layers"][name] for p in traced)
        traced_s = med(sum(p["stage_s"].values()) for p in traced)
        layers["trace.overhead_s"] = traced_s - run_times["pipeline_s"]
        layers["trace.overhead_share"] = (layers["trace.overhead_s"]
                                          / run_times["pipeline_s"])
    # a pipeline that failed a stage misses its whole certificate
    n_test = raw["test_samples"]
    failed = sum(p["mismatches"] if p["failed_stage"] is None else n_test
                 for p in pipes)
    return {
        "problems": problems,
        "hashes": hashes,
        "e2e": e2e,
        "run_times": run_times,
        "layers": layers,
        "samples": n_test * len(pipes),
        "failed": failed,
        "stages_attempted": sum(len(p["stage_s"]) + (p["failed_stage"] is not None)
                                for p in pipes),
        "stages_failed": sum(p["failed_stage"] is not None for p in pipes),
        "n_untraced": len(untraced),
        "n_traced": len(traced),
    }


def report(raw: dict, res: dict) -> None:
    env = " ".join(f"{k}={v!r}" if k == "cpu" else f"{k}={v}"
                   for k, v in raw["env"].items())
    print(f"# {raw['workload']} seed={raw['seed']} trace={raw['trace']}"
          f"{' smoke' if raw['smoke'] else ''}")
    print(f"env {env}")
    print(f"pipelines {res['n_untraced']} untraced, {res['n_traced']} traced; "
          f"stages attempted {res['stages_attempted']}, failed {res['stages_failed']}")
    print(f"certificate samples attempted {res['samples']}, "
          f"mismatched {res['failed']}")
    print(f"sha256 checkpoint {res['hashes']['checkpoint_sha256']} "
          f"verilog {res['hashes']['verilog_sha256']}")
    ref = next(p for p in raw["pipelines"] if p["failed_stage"] is None)
    print(f"error of the exported model: test split {ref['test_err']:.4f}, "
          f"holdout {ref['holdout_err']:.4f}, "
          f"majority class {raw['majority_err']:.4f}")
    for name, unit in END_TO_END.items():
        print(f"{name} {res['e2e'][name]:.6g} {unit}")
    for name, unit in RUN_TIMES.items():
        print(f"{name} {res['run_times'][name]:.6g} {unit}")
    units = per_layer_units()
    for name, value in res["layers"].items():
        if name not in RUN_TIMES:
            print(f"{name} {value:.6g} {units[name]}")
    for problem in res["problems"]:
        print(f"FAIL {problem}")


def result_line(res: dict, trace: int) -> dict:
    units = per_layer_units() if trace else END_TO_END
    values = res["layers"] if trace else res["e2e"]
    return {
        "correct": not res["problems"],
        "attempted": res["samples"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal-size inputs and epochs, for the self-test")
    args = p.parse_args()
    # on SIGTERM, subprocess.run kills and waits for the workload process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "lutshrink" / "__init__.py").is_file():
        print(f"error: no lutshrink sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            raw = measure(name, args.seed, args.seconds, args.trace, args.smoke)
            res = evaluate(raw)
            report(raw, res)
            with open(Path(raw["outdir"]) / "result.json", "w") as f:
                json.dump({"raw": raw, "result": res}, f, indent=1)
            lines[name] = result_line(res, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = lines[names[0]] if len(names) == 1 else lines
    print(json.dumps(out))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
