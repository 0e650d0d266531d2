"""Command-line pipeline driver.

Subcommands follow the pipeline order: train -> expand -> shrink ->
finalize -> export. Each stage reads and advances a checkpoint; running a
stage out of order is a hard error naming the current and required phase.
"""

from __future__ import annotations

import argparse
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _set_threads(argv: list[str]) -> None:
    """Honor --threads before numpy is imported (BLAS pools are set once).
    An explicit flag overrides the environment; the default is 1."""
    n = None
    for i, a in enumerate(argv):
        if a == "--threads" and i + 1 < len(argv):
            n = argv[i + 1]
        elif a.startswith("--threads="):
            n = a.split("=", 1)[1]
    for var in THREAD_VARS:
        os.environ[var] = os.environ.get(var, "1") if n is None else n


class PhaseError(RuntimeError):
    pass


def _require_phase(phase: str, required: tuple[str, ...], command: str) -> None:
    if phase not in required:
        raise PhaseError(
            f"cannot run {command!r}: checkpoint is at phase {phase!r}, "
            f"requires {' or '.join(repr(r) for r in required)}"
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
    checkpoint.save(path, net, cfg, "trained", rng)
    print(f"wrote {path}")


def _log_for(ckpt_path: str):
    from .train import MetricLog

    return MetricLog(os.path.join(os.path.dirname(ckpt_path) or ".", "metrics.log"))


def cmd_expand(args) -> None:
    from . import checkpoint
    from .config import load_datasets
    from .train import logic_expand

    net, cfg, phase, rng, plan = checkpoint.load(args.checkpoint)
    _require_phase(phase, ("trained",), "expand")
    if args.k is not None:
        cfg.k = args.k
    if args.epochs is not None:
        cfg.epochs_post_expand = args.epochs
    train, test = load_datasets(cfg)
    logic_expand(net, cfg.k, train, test, cfg, rng, _log_for(args.checkpoint))
    checkpoint.save(args.out or args.checkpoint, net, cfg, "expanded", rng)
    print(f"wrote {args.out or args.checkpoint}")


def cmd_shrink(args) -> None:
    from . import checkpoint
    from .config import load_datasets
    from .train import logic_shrink

    net, cfg, phase, rng, plan = checkpoint.load(args.checkpoint)
    _require_phase(phase, ("expanded",), "shrink")
    if args.delta is not None:
        cfg.delta = args.delta
    if args.iterations is not None:
        cfg.shrink_iters = args.iterations
    if args.epochs_per_iter is not None:
        cfg.epochs_per_iter = args.epochs_per_iter
    if args.random_prune:
        cfg.random_prune = True
    cfg.validate()
    train, test = load_datasets(cfg)
    plan = logic_shrink(net, train, test, cfg, rng, _log_for(args.checkpoint))
    checkpoint.save(args.out or args.checkpoint, net, cfg, "shrunk", rng, plan)
    print(f"wrote {args.out or args.checkpoint}")


def cmd_finalize(args) -> None:
    from . import checkpoint
    from .config import load_datasets
    from .train import finalize_binarized

    net, cfg, phase, rng, plan = checkpoint.load(args.checkpoint)
    _require_phase(phase, ("shrunk",), "finalize")
    if args.epochs is not None:
        cfg.epochs_final = args.epochs
    train, test = load_datasets(cfg)
    finalize_binarized(net, train, test, cfg, rng, _log_for(args.checkpoint))
    checkpoint.save(args.out or args.checkpoint, net, cfg, "final", rng, plan)
    print(f"wrote {args.out or args.checkpoint}")


def cmd_export(args) -> None:
    import numpy as np

    from . import checkpoint
    from .config import load_datasets
    from .netlist import area_report, classify, extract_netlist, simplify
    from .verilog import emit_verilog, parse_verilog

    net, cfg, phase, rng, plan = checkpoint.load(args.checkpoint)
    _require_phase(phase, ("final",), "export")
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

    _, test = load_datasets(cfg)
    n = min(len(test), args.cert_samples)
    x = test.features[:n]
    model_pred = net.predict_bin(x)
    sim_pred = classify(parse_verilog(text), np.where(x >= 0, 1, -1))
    mismatches = int((model_pred != sim_pred).sum())
    cert = (
        f"samples\t{n}\nmismatches\t{mismatches}\n"
        f"status\t{'PASS' if mismatches == 0 else 'FAIL'}\n"
    )
    with open(os.path.join(args.out, "certificate.txt"), "w") as f:
        f.write(cert)
    print(cert, end="")
    if mismatches:
        raise RuntimeError(f"netlist/model mismatch on {mismatches} of {n} samples")
    print(f"wrote {v_path}")


def cmd_simulate(args) -> None:
    import numpy as np

    from .netlist import simulate
    from .verilog import parse_verilog

    with open(args.netlist) as f:
        nl = parse_verilog(f.read())
    x = np.loadtxt(args.inputs, ndmin=2)
    res = simulate(nl, x.astype(np.int64))
    names = sorted(res)
    out = sys.stdout if not args.out else open(args.out, "w")
    print("\t".join(names), file=out)
    for row in range(x.shape[0]):
        print("\t".join(str(int(res[n][row])) for n in names), file=out)
    if args.out:
        out.close()


def cmd_report(args) -> None:
    import numpy as np

    if args.path.endswith(".log") or _looks_like_log(args.path):
        rows = []
        with open(args.path) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 4:
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

    net, cfg, phase, rng, plan = checkpoint.load(args.path)
    print(f"phase: {phase}")
    total_conns = alive_conns = 0
    lut_total = lut_surv = 0
    hist = np.zeros(8, dtype=np.int64)
    for lay in net.layers:
        if lay.kind == "dense":
            flag = " (shrinkable)" if lay.shrinkable else ""
            print(
                f"layer {lay.name}: dense {lay.n_in}x{lay.n_out}, "
                f"alive {int(lay.alive.sum())}/{lay.alive.size}{flag}"
            )
            if lay.shrinkable:
                total_conns += lay.alive.size
                alive_conns += int(lay.alive.sum())
        else:
            sizes = lay.k - lay.pruned.sum(axis=1)
            for s in sizes:
                hist[int(s)] += 1
            lut_total += lay.n_nodes * lay.k
            lut_surv += int((~lay.pruned).sum())
            print(
                f"layer {lay.name}: {lay.n_nodes} LUTs (k={lay.k}), "
                f"surviving inputs {int((~lay.pruned).sum())}/{lay.n_nodes * lay.k}"
            )
    if total_conns:
        print(f"theta achieved: {1 - alive_conns / total_conns:.4f}")
    if lut_total:
        print(f"delta achieved: {1 - lut_surv / lut_total:.4f}")
        print(
            "effective-size histogram: "
            + " ".join(f"{s}:{hist[s]}" for s in range(8) if hist[s])
        )
    if plan is not None:
        print(
            "shrink schedule: "
            + ", ".join(
                f"t={i + 1} delta={d:.4f} pruned={c}"
                for i, (d, c) in enumerate(zip(plan.deltas, plan.pruned_counts))
            )
            + (" (random baseline)" if plan.random_mode else "")
        )


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

    e = sub.add_parser("expand", help="replace surviving connections with k-LUTs")
    e.add_argument("checkpoint")
    e.add_argument("--k", type=int)
    e.add_argument("--epochs", type=int)
    e.add_argument("--out")
    e.set_defaults(fn=cmd_expand)

    s = sub.add_parser("shrink", help="iteratively sever low-salience LUT inputs")
    s.add_argument("checkpoint")
    s.add_argument("--delta", type=float)
    s.add_argument("--iterations", type=int)
    s.add_argument("--epochs-per-iter", type=int)
    s.add_argument("--random-prune", action="store_true")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_shrink)

    f = sub.add_parser("finalize", help="binarized retraining and mask folding")
    f.add_argument("checkpoint")
    f.add_argument("--epochs", type=int)
    f.add_argument("--out")
    f.set_defaults(fn=cmd_finalize)

    x = sub.add_parser("export", help="emit Verilog, area report and certificate")
    x.add_argument("checkpoint")
    x.add_argument("--out", required=True)
    x.add_argument("--top", default="top")
    x.add_argument("--cert-samples", type=int, default=10000)
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
    _set_threads(argv)
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except Exception as e:  # noqa: BLE001 - single-line machine-parsable exit
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
