"""Command line: each subcommand parses its arguments, makes one library
call and prints. The stages follow the pipeline order, train -> expand ->
shrink -> finalize -> export (``pipeline`` runs them); running one out of
order is a hard error naming the current and required phase.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _set_threads(argv: list[str]) -> None:
    """Honor --threads before numpy is imported (BLAS pools are set once).
    An explicit flag overrides the environment; the default is 1. A count
    below 1 is refused before any variable is set: BLAS reads 0 as "every
    core"."""
    n = None
    for i, a in enumerate(argv):
        if a == "--threads" and i + 1 < len(argv):
            n = argv[i + 1]
        elif a.startswith("--threads="):
            n = a.split("=", 1)[1]
    if n is not None:
        try:
            ok = int(n) >= 1
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"--threads must be an integer >= 1, got {n}")
    for var in THREAD_VARS:
        os.environ[var] = os.environ.get(var, "1") if n is None else n


def cmd_train(args) -> None:
    from .config import preset_path
    from .pipeline import run_stage

    if not (args.preset or args.config):
        raise ValueError("provide --config or --preset")
    src = preset_path(args.preset) if args.preset else args.config
    seed = {} if args.seed is None else {"seed": args.seed}
    print(f"wrote {run_stage('train', src, args.out, seed)}")


def cmd_stage(args) -> None:
    """Advance a checkpoint by one stage, with its INI section's flags
    applied to the config it saves."""
    from .pipeline import run_stage
    from .train import SETTINGS

    overrides = {f.name: getattr(args, key) for (section, key), f in SETTINGS.items()
                 if section == args.command and getattr(args, key) is not None}
    print(f"wrote {run_stage(args.command, args.checkpoint, args.out, overrides)}")


def cmd_export(args) -> None:
    from .pipeline import run_export

    res = run_export(args.checkpoint, args.out, args.top)
    for layer, (n, total) in res.multi_input.items():
        print(f"{layer}: {n} of {total} LUTs keep 2 or more inputs after simplify")
    if not any(n for n, _ in res.multi_input.values()):
        print("warning: no LUT keeps 2 or more inputs after simplify; the netlist "
              "is a pruned XNOR/popcount network", file=sys.stderr)
    print(f"area_terms: {res.area_terms} (LUT inputs plus sum terms after simplify)")
    print(res.certificate, end="")
    if res.mismatches:
        raise RuntimeError(
            f"netlist/model mismatch on {res.mismatches} of {res.samples} samples")
    print(f"wrote {res.verilog_path} ({os.path.getsize(res.verilog_path)} bytes)")


def cmd_simulate(args) -> None:
    import numpy as np

    from .netlist import simulate
    from .verilog import parse_verilog

    with open(args.netlist) as f:
        nl = parse_verilog(f.read())
    x = np.loadtxt(args.inputs, ndmin=2)
    bad = np.argwhere(np.abs(x) != 1)
    if len(bad):  # before the int64 cast, which would truncate 1.5 to 1
        row, col = bad[0]
        raise ValueError(f"{args.inputs} row {row + 1} holds {x[row, col]:g}, not +/-1; "
                         "write every input as 1 or -1")
    res = simulate(nl, x.astype(np.int64))
    names = sorted(res)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        print("\t".join(names), file=out)
        for row in range(x.shape[0]):
            print("\t".join(str(int(res[n][row])) for n in names), file=out)


def cmd_report(args) -> None:
    import numpy as np

    if args.path.endswith(".log") or _looks_like_log(args.path):
        rows = []
        with open(args.path) as f:
            for n, line in enumerate(f, 1):
                parts = line.rstrip("\n").split("\t")
                try:
                    _, epoch, train_err, test_err = parts
                    int(epoch), float(train_err), float(test_err)
                except ValueError:
                    raise ValueError(
                        f"{args.path} line {n} is not a metrics line (phase, "
                        f"epoch, train_err, test_err, tab-separated): {line.strip()!r}"
                    ) from None
                rows.append(parts)
        if args.tsv:
            print("phase\tepoch\ttrain_err\ttest_err")
            for r in rows:
                print("\t".join(r))
        else:
            print(f"{'phase':<16}{'epoch':>6}{'train_err':>12}{'test_err':>12}")
            for r in rows:
                print(f"{r[0]:<16}{r[1]:>6}{r[2]:>12}{r[3]:>12}")
        return

    from . import checkpoint
    from .lutcore import MAX_K

    net, cfg, phase, rng, plan = checkpoint.load(args.path)
    print(f"phase: {phase}")
    total_conns = alive_conns = lut_total = lut_surv = 0
    hist = np.zeros(MAX_K + 1, dtype=np.int64)
    for lay in net.layers:
        if lay.kind == "dense":
            alive, shrinkable = int(lay.alive.sum()), lay.name in cfg.shrink_layers
            print(f"layer {lay.name}: dense {lay.n_in}x{lay.n_out}, alive "
                  f"{alive}/{lay.alive.size}" + (" (shrinkable)" if shrinkable else ""))
            if shrinkable:
                total_conns += lay.alive.size
                alive_conns += alive
        else:
            surv, total = int((~lay.pruned).sum()), lay.n_nodes * lay.k
            hist += np.bincount(lay.k - lay.pruned.sum(axis=1), minlength=MAX_K + 1)
            lut_total += total
            lut_surv += surv
            print(f"layer {lay.name}: {lay.n_nodes} LUTs (k={lay.k}), "
                  f"surviving inputs {surv}/{total}")
    if total_conns:
        print(f"theta achieved: {1 - alive_conns / total_conns:.4f}")
    if lut_total:
        print(f"delta achieved: {1 - lut_surv / lut_total:.4f}")
        print("effective-size histogram: "
              + " ".join(f"{s}:{c}" for s, c in enumerate(hist) if c))
    if plan is not None:
        steps = enumerate(plan.pruned_counts, 1)
        print("shrink schedule: "
              + ", ".join(f"t={t} delta={cfg.shrink_delta(t):.4f} pruned={c}"
                          for t, c in steps)
              + (" (random baseline)" if cfg.random_prune else ""))


def _looks_like_log(path: str) -> bool:
    try:
        with open(path) as f:
            head = f.read(1)
        return head != "{"
    except OSError:
        return False


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lutshrink")
    p.add_argument("--threads", type=int, default=1, help="BLAS worker bound")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train the base network and prune connections")
    t.add_argument("--config")
    t.add_argument("--preset")
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int)
    t.set_defaults(fn=cmd_train)

    from .train import SETTINGS, STAGES, stage_flag

    for command, (_, _, text) in STAGES.items():
        s = sub.add_parser(command, help=text)
        s.add_argument("checkpoint")
        for (section, key), f in SETTINGS.items():
            if section != command:
                continue
            flag = stage_flag(section, key)
            if isinstance(f.default, bool):  # absent keeps the checkpoint's value
                s.add_argument(flag, action="store_true", default=None)
            else:
                s.add_argument(flag, type=f.metadata["parse"])
        s.add_argument("--out")
        s.set_defaults(fn=cmd_stage)

    x = sub.add_parser("export", help="emit Verilog, area report and certificate")
    x.add_argument("checkpoint")
    x.add_argument("--out", required=True)
    x.add_argument("--top", default="top")
    x.set_defaults(fn=cmd_export)

    m = sub.add_parser("simulate", help="simulate an emitted netlist on vectors")
    m.add_argument("netlist")
    m.add_argument("--inputs", required=True)
    m.add_argument("--out")
    m.set_defaults(fn=cmd_simulate)

    r = sub.add_parser("report", help="summarize a checkpoint or metrics log")
    r.add_argument("path")
    r.add_argument("--tsv", action="store_true")
    r.set_defaults(fn=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _set_threads(argv)  # before build_parser, which imports numpy
        args = build_parser().parse_args(argv)
        args.fn(args)
    except Exception as e:  # noqa: BLE001 - single-line machine-parsable exit
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
