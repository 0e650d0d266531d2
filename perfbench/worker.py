"""One workload in its own process: set up, then run whole pipelines
(train -> expand -> shrink -> finalize -> export) back to back, closed loop,
until the measuring window is used. Prints one JSON line with a record per
pipeline. ``run.py`` starts this; it is not meant to be run by hand.

With --trace 1, untraced and traced pipelines alternate, so the same
process yields the tracing overhead and checks that tracing changes no
output byte.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


class Reference:
    """A fixed loop of the kinds of work a pipeline does: small matrix
    products and sign/abs/sum as in a training step, a reduction over a
    larger array, and dict-heavy Python. It never calls the program, so only
    the machine's speed moves its time. Timed before every stage and after
    the last, it measures that speed where and when the pipeline runs."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((32, 128)).astype(np.float32)
        self.w = rng.standard_normal((128, 128)).astype(np.float32)
        self.big = rng.standard_normal((512, 512)).astype(np.float32)

    def time_s(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(60):
            h = np.sign(self.x @ self.w)
            g = (h.T @ self.x) * 0.01
            float(np.abs(self.w - g).sum())
            np.where(self.big > 0, self.big, -self.big).sum(axis=0)
            sum({i: 2 * i for i in range(100)}.values())
        return time.perf_counter() - t0


def run_pipeline(cfg, train, test, holdout, workdir: str, traced: bool,
                 ref: Reference) -> dict:
    from metrics import STAGES
    from stages import Pipeline
    from tracer import Tracer

    shutil.rmtree(workdir, ignore_errors=True)
    pipe = Pipeline(cfg, train, test, workdir)
    tracer = Tracer() if traced else None
    rec: dict = {"traced": traced, "stage_s": {}, "ref_s": [], "failed_stage": None}
    with tracer.installed() if traced else nullcontext():
        for stage in STAGES:
            rec["ref_s"].append(ref.time_s())
            args = pipe.build() if stage == "train" else ()
            t0 = time.perf_counter()
            try:
                with tracer.span(f"stage.{stage}") if traced else nullcontext():
                    result = getattr(pipe, stage)(*args)
            except Exception:  # noqa: BLE001 - a failed stage is a result
                traceback.print_exc()
                rec["failed_stage"] = stage
                break
            rec["stage_s"][stage] = time.perf_counter() - t0
        rec["ref_s"].append(ref.time_s())
    if rec["failed_stage"] is None:
        rec["checkpoint_sha256"] = pipe.checkpoint_sha256()
        rec.update(vars(result))
        pred = pipe.exported.predict_bin(holdout.features)
        rec["holdout_err"] = float((pred != holdout.labels).mean())
    if traced:
        layers = tracer.summary()
        train_stages = sum(rec["stage_s"].get(s, 0.0) for s in STAGES[:4])
        layers["train.eval_share"] = layers["train.eval_s"] / train_stages
        if rec["failed_stage"] is None:
            layers["netlist.nodes_pre"] = rec["nodes_pre"]
            layers["netlist.nodes_post"] = rec["nodes_post"]
            layers["netlist.simplify_keep"] = rec["nodes_post"] / rec["nodes_pre"]
        rec["layers"] = layers
        with open(os.path.join(workdir, "..", "spans.json"), "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, f)
    return rec


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--outdir", required=True)
    args = p.parse_args()

    # BLAS pools are sized once, when numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import lutshrink
    from stages import Pipeline
    from workloads import WORKLOADS, majority_error

    if not Path(lutshrink.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: lutshrink imported from {lutshrink.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cfg, train, test, holdout = workload.make(args.seed, args.smoke)
    workdir = os.path.join(args.outdir, "work")
    Pipeline(cfg, train, test, workdir).build()  # set-up includes the build
    if args.setup_only:
        return 0

    ref = Reference()
    ref.time_s()  # warm-up: first BLAS call, allocations
    deadline = time.perf_counter() + args.seconds
    kinds = [False, True] if args.trace else [False]
    records: list[dict] = []
    last_s = {}
    while True:
        traced = kinds[len(records) % len(kinds)]
        if len(records) >= len(kinds) and time.perf_counter() + last_s[traced] > deadline:
            break
        t0 = time.perf_counter()
        records.append(run_pipeline(cfg, train, test, holdout, workdir, traced,
                                    ref))
        last_s[traced] = time.perf_counter() - t0
        if records[-1]["failed_stage"] is not None:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "env": environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "majority_err": majority_error(holdout),
        "test_samples": len(test),
        "pipelines": records,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
