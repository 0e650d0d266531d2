"""Command-line pipeline driver.

Subcommands follow the pipeline order: train -> expand -> shrink ->
finalize -> export. Each stage reads and advances a checkpoint; running a
stage out of order is a hard error naming the current and required phase.
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


class PhaseError(RuntimeError):
    pass


def _require_phase(phase: str, required: str, command: str) -> None:
    if phase != required:
        raise PhaseError(
            f"cannot run {command!r}: checkpoint is at phase {phase!r}, "
            f"requires {required!r}"
        )


def _resolve_config(args) -> str:
    from .config import preset_path

    if args.preset:
        return preset_path(args.preset)
    if args.config:
        return args.config
    raise ValueError("provide --config or --preset")


def cmd_train(args) -> None:
    import numpy as np

    from . import checkpoint
    from .config import load_config, load_datasets
    from .train import MetricLog, build_network, prune_nodes, train_bnn

    cfg = load_config(_resolve_config(args))
    if args.seed is not None:
        cfg.seed = args.seed
    os.makedirs(args.out, exist_ok=True)
    log = MetricLog(os.path.join(args.out, "metrics.log"))
    train, test = load_datasets(cfg)
    rng = np.random.default_rng(cfg.seed)
    net = build_network(cfg, train.features.shape[1], train.num_classes, rng)
    train_bnn(net, train, test, cfg, rng, log)
    prune_nodes(net, cfg.theta, train, test, cfg, rng, log)
    path = os.path.join(args.out, "checkpoint.json")
    checkpoint.save(path, net, cfg, checkpoint.PHASES[0], rng)
    print(f"wrote {path}")


def cmd_stage(args) -> None:
    """Advance a checkpoint by one stage, with its INI section's flags
    applied to the config it saves."""
    from . import checkpoint
    from .config import load_datasets
    from .train import (SETTINGS, STAGES, MetricLog, finalize_binarized, logic_expand,
                        logic_shrink)

    required, written, _ = STAGES[args.command]
    net, cfg, phase, rng, plan = checkpoint.load(args.checkpoint)
    _require_phase(phase, required, args.command)
    for (section, key), f in SETTINGS.items():
        if section == args.command and getattr(args, key) is not None:
            setattr(cfg, f.name, getattr(args, key))
    cfg.validate()
    train, test = load_datasets(cfg)
    log = MetricLog(os.path.join(os.path.dirname(args.checkpoint) or ".",
                                 "metrics.log"))
    if args.command == "expand":
        logic_expand(net, cfg.k, train, test, cfg, rng, log)
    elif args.command == "shrink":
        plan = logic_shrink(net, train, test, cfg, rng, log)
    else:
        finalize_binarized(net, train, test, cfg, rng, log)
    checkpoint.save(args.out or args.checkpoint, net, cfg, written, rng, plan)
    print(f"wrote {args.out or args.checkpoint}")


def cmd_export(args) -> None:
    import numpy as np

    from . import checkpoint
    from .config import load_datasets
    from .netlist import area_report, extract_netlist, scores, simplify
    from .verilog import emit_verilog, parse_verilog

    net, cfg, phase, rng, plan = checkpoint.load(args.checkpoint)
    _require_phase(phase, checkpoint.PHASES[-1], "export")
    os.makedirs(args.out, exist_ok=True)
    pre = extract_netlist(net)
    post = simplify(pre)
    text = emit_verilog(post, args.top)
    v_path = os.path.join(args.out, "netlist.v")
    with open(v_path, "w") as f:
        f.write(text)
    report = area_report(pre, post)
    with open(os.path.join(args.out, "area_report.txt"), "w") as f:
        f.write(report.to_table())
    with open(os.path.join(args.out, "area_report.tsv"), "w") as f:
        f.write(report.to_tsv())
    multi = report.multi_input()
    for layer, n in multi.items():
        print(f"{layer}: {n} of {int(report.pre[layer].sum())} LUTs keep 2 or more "
              "inputs after simplify")
    if not any(multi.values()):
        print("warning: no LUT keeps 2 or more inputs after simplify; the netlist "
              "is a pruned XNOR/popcount network", file=sys.stderr)

    x = load_datasets(cfg)[1].features
    # every class score, not just the argmax: a wrong sum can keep its class
    model_scores = net.infer_bin(x)
    sim_scores = scores(parse_verilog(text), np.where(x >= 0, 1, -1))
    mismatches = int(np.any(model_scores != sim_scores, axis=1).sum())
    cert = (
        f"samples\t{len(x)}\nmismatches\t{mismatches}\n"
        f"status\t{'PASS' if mismatches == 0 else 'FAIL'}\n"
    )
    with open(os.path.join(args.out, "certificate.txt"), "w") as f:
        f.write(cert)
    print(cert, end="")
    if mismatches:
        raise RuntimeError(
            f"netlist/model mismatch on {mismatches} of {len(x)} samples")
    print(f"wrote {v_path} ({os.path.getsize(v_path)} bytes)")


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
