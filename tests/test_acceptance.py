"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion. The MNIST
criteria share trained models through session-scoped fixtures; the whole
suite trains from scratch and takes on the order of an hour on one CPU.

Run with:  pytest tests/test_acceptance.py -v
"""

import copy
import itertools
import os

import numpy as np
import pytest

from lutshrink import checkpoint
from lutshrink.config import load_datasets
from lutshrink.data import synth_boolean
from lutshrink.lutcore import (
    LutMask,
    binarize_mask,
    corner_weights,
    index_pattern,
    lut_forward,
    lut_grad_inputs,
    lut_grad_params,
)
from lutshrink.model import Network
from lutshrink.netlist import area_report, classify, extract_netlist, simplify
from lutshrink.shrink import (
    apply_transform,
    build_U,
    compose_transforms,
    salience,
    salience_rows,
)
from lutshrink.train import (
    MetricLog,
    TrainConfig,
    build_network,
    evaluate,
    finalize_binarized,
    logic_expand,
    logic_shrink,
    prune_nodes,
    total_surviving_inputs,
    train_bnn,
)
from lutshrink.verilog import emit_verilog, parse_verilog


_capture = None


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    """Let report() write past pytest's capture so each criterion's verdict
    always reaches the console, even without -s."""
    global _capture
    _capture = capfd
    yield
    _capture = None


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    line = f"[{tag}] {name}{suffix}"
    if _capture is not None:
        with _capture.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: golden salience / merge / binarization values
# ---------------------------------------------------------------------------


def test_criterion_1_golden_salience_example():
    mask = LutMask(2, np.array([-0.90, -0.01, -0.85, 0.05]))
    s = salience(mask)
    ok = np.allclose(s, [1.79, 0.11], rtol=0, atol=1e-12)

    merged = apply_transform(build_U(2, 1), mask)
    ok &= np.allclose(merged.params, [-0.875, 0.02, -0.875, 0.02],
                      rtol=0, atol=1e-12)
    # rounded values as published: (-0.88, 0.02)
    ok &= np.allclose(np.round(merged.params, 2), [-0.88, 0.02, -0.88, 0.02])

    tt = binarize_mask(merged)
    # wire y = x_0: table equals the sign of input 0 for all four corners
    wire = np.array([-1, 1, -1, 1])
    ok &= np.array_equal(tt.bits, wire)
    report("criterion 1: golden salience/merge/binarize values", ok,
           f"salience={s}, merged={merged.params}")


# ---------------------------------------------------------------------------
# criterion 2: averaging-operator suite for every k <= 6
# ---------------------------------------------------------------------------


def test_criterion_2_operator_suite():
    ok = True
    for k in range(1, 7):
        mats = [build_U(k, i).entries for i in range(k)]
        for u in mats:
            ok &= np.array_equal(u.sum(axis=1), np.ones(2**k))  # row-stochastic
            ok &= np.array_equal(u, u.T)  # symmetric
            ok &= np.array_equal(u @ u, u)  # idempotent
        for a, b in itertools.combinations(mats, 2):
            ok &= np.array_equal(a @ b, b @ a)  # pairwise commuting
    # displayed 4x4 forms at k=2
    half = 0.5
    u0 = np.array([[half, half, 0, 0], [half, half, 0, 0],
                   [0, 0, half, half], [0, 0, half, half]])
    u1 = np.array([[half, 0, half, 0], [0, half, 0, half],
                   [half, 0, half, 0], [0, half, 0, half]])
    ok &= np.array_equal(build_U(2, 0).entries, u0)
    ok &= np.array_equal(build_U(2, 1).entries, u1)
    report("criterion 2: averaging operators row-stochastic/symmetric/"
           "idempotent/commuting for k<=6, k=2 forms exact", ok)


# ---------------------------------------------------------------------------
# criterion 3: function preservation under severance
# ---------------------------------------------------------------------------


def test_criterion_3_function_preservation():
    rng = np.random.default_rng(2024)
    ok = True
    worst = 0
    for k in range(2, 7):
        for _ in range(1000):
            params = rng.uniform(-1, 1, size=2**k)
            s = salience_rows(params[None, :], k)[0]
            zero = [i for i in range(k) if s[i] == 0.0]
            before = np.where(params >= 0, 1, -1)
            if zero:
                v = compose_transforms(k, zero).entries
                after = np.where(params @ v >= 0, 1, -1)
                if not np.array_equal(before, after):
                    ok = False
            # severing the minimum-salience input flips at most 2^(k-1) entries
            i_min = int(np.argmin(s))
            v = compose_transforms(k, [i_min]).entries
            after = np.where(params @ v >= 0, 1, -1)
            flips = int((before != after).sum())
            worst = max(worst, flips)
            if flips > 2 ** (k - 1):
                ok = False
    report("criterion 3: zero-salience severance exact, min-salience flips "
           "<= 2^(k-1) (1000 masks per k in 2..6)", ok,
           f"max flips seen {worst}")


# ---------------------------------------------------------------------------
# criterion 4: gradient checks against central differences
# ---------------------------------------------------------------------------


def test_criterion_4_gradient_checks():
    rng = np.random.default_rng(7)
    eps = 1e-5
    ok = True
    worst = 0.0
    for k in range(1, 5):
        for _ in range(100):
            mask = LutMask(k, rng.uniform(-1, 1, size=2**k))
            x = rng.uniform(-0.95, 0.95, size=k)
            gp = lut_grad_params(mask, x)
            for d in range(2**k):
                up = mask.params.copy()
                dn = mask.params.copy()
                up[d] += eps
                dn[d] -= eps
                fd = (lut_forward(LutMask(k, up), x)
                      - lut_forward(LutMask(k, dn), x)) / (2 * eps)
                rel = abs(gp[d] - fd) / max(abs(fd), 1e-8)
                worst = max(worst, rel)
                ok &= rel < 1e-5 or abs(gp[d] - fd) < 1e-8
            gx = lut_grad_inputs(mask, x)
            for j in range(k):
                up = x.copy()
                dn = x.copy()
                up[j] += eps
                dn[j] -= eps
                fd = (lut_forward(mask, up) - lut_forward(mask, dn)) / (2 * eps)
                rel = abs(gx[j] - fd) / max(abs(fd), 1e-8)
                worst = max(worst, rel)
                ok &= rel < 1e-5 or abs(gx[j] - fd) < 1e-8
    report("criterion 4: analytic gradients match central differences "
           "(100 cases per k in 1..4)", ok, f"worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: expansion is exact on the binarized path
# ---------------------------------------------------------------------------


def parity8_cfg(**kw) -> TrainConfig:
    base = dict(
        hidden=[128], shrink_layers=["fc2"], theta=0.5, delta=0.5, k=3,
        shrink_iters=3, epochs_per_iter=30,
        lr_schedule=[[0.1, 150], [0.02, 100], [0.005, 50]],
        epochs_post_prune=60, epochs_post_expand=40, epochs_final=120,
        lr=0.02, batch_size=32, seed=0,
        data_kind="synth", synth_function="parity", synth_inputs=8,
        synth_samples=256,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_criterion_5_phase_boundary_exactness():
    ds = synth_boolean("parity", 8, 256)
    ok = True
    for k, seed in ((2, 0), (4, 1), (6, 2)):
        cfg = parity8_cfg(k=k, seed=seed, lr_schedule=[], epochs_bnn=40,
                          lr=0.05, epochs_post_prune=10, epochs_post_expand=0)
        rng = np.random.default_rng(seed)
        net = build_network(cfg, 8, 2, rng)
        log = MetricLog()
        train_bnn(net, ds, ds, cfg, rng, log)
        prune_nodes(net, cfg.theta, ds, ds, cfg, rng, log)
        before = net.predict_bin(ds.features)
        logic_expand(net, k, ds, ds, cfg, rng, log)
        after = net.predict_bin(ds.features)
        mism = int((before != after).sum())
        ok &= mism == 0
    report("criterion 5: post-expansion binarized outputs equal the pruned "
           "BNN's on the full test set (k in {2,4,6})", ok)


# ---------------------------------------------------------------------------
# MNIST desk-scale pipeline (shared by criteria 6-10)
# ---------------------------------------------------------------------------

DESK_K = 4


def desk_cfg(seed: int) -> TrainConfig:
    return TrainConfig(
        hidden=[512], shrink_layers=["fc2"], theta=0.9, delta=0.75, k=DESK_K,
        shrink_iters=3, epochs_per_iter=3,
        epochs_bnn=0, lr_schedule=[[0.2, 15], [0.05, 10], [0.02, 5]],
        epochs_post_prune=12, epochs_post_expand=5, epochs_final=6,
        lr=0.2, lr_decay=0.5, momentum=0.9, batch_size=128, seed=seed,
        data_kind="mnist",
        data_dir=os.environ.get("LUTSHRINK_DATA_DIR", "data"),
    )


@pytest.fixture(scope="session")
def mnist():
    cfg = desk_cfg(0)
    return load_datasets(cfg)


@pytest.fixture(scope="session")
def desk_prefix(mnist, tmp_path_factory):
    """Per-seed cache of the shared pipeline prefix (train+prune+expand)."""
    train, test = mnist
    root = tmp_path_factory.mktemp("desk")
    cache: dict[int, dict] = {}

    def run(seed: int) -> dict:
        if seed in cache:
            return cache[seed]
        cfg = desk_cfg(seed)
        rng = np.random.default_rng(seed)
        net = build_network(cfg, 784, 10, rng)
        log = MetricLog()
        train_bnn(net, train, test, cfg, rng, log)
        bnn_err = evaluate(net, test, "bin")
        prune_nodes(net, cfg.theta, train, test, cfg, rng, log)
        prune_err = evaluate(net, test, "bin")
        logic_expand(net, cfg.k, train, test, cfg, rng, log)
        post_exp_err = evaluate(net, test, "bin")
        path = str(root / f"expanded_{seed}.json")
        checkpoint.save(path, net, cfg, "expanded", rng)
        cache[seed] = {
            "path": path, "bnn_err": bnn_err, "prune_err": prune_err,
            "post_exp_err": post_exp_err,
            "expanded_inputs": total_surviving_inputs(net),
        }
        return cache[seed]

    return run


@pytest.fixture(scope="session")
def desk_final(mnist, desk_prefix):
    """Per-(seed, delta, random) cache of shrink+finalize results."""
    train, test = mnist
    cache: dict[tuple, dict] = {}

    def run(seed: int, delta: float, random_prune: bool = False) -> dict:
        key = (seed, delta, random_prune)
        if key in cache:
            return cache[key]
        prefix = desk_prefix(seed)
        net, cfg, _, rng, _ = checkpoint.load(prefix["path"])
        cfg.delta = delta
        cfg.random_prune = random_prune
        log = MetricLog()
        plan = logic_shrink(net, train, test, cfg, rng, log)
        finalize_binarized(net, train, test, cfg, rng, log)
        pre = extract_netlist(net)
        post = simplify(pre)
        cache[key] = {
            "net": net, "cfg": cfg, "rng": rng, "plan": plan,
            "final_err": evaluate(net, test, "bin"),
            "surviving": total_surviving_inputs(net),
            "pre": pre, "post": post,
            "verilog": emit_verilog(post),
        }
        return cache[key]

    return run


def test_criterion_6_desk_pipeline(desk_prefix, desk_final):
    prefix = desk_prefix(0)
    run = desk_final(0, 0.75)
    a = prefix["bnn_err"] <= 0.05
    b = run["final_err"] <= prefix["post_exp_err"] + 0.010
    c = run["surviving"] <= 0.25 * prefix["expanded_inputs"]
    report("criterion 6: MNIST desk pipeline (bnn<=5%, final within 1pp of "
           "post-expansion, surviving inputs <= 25%)", a and b and c,
           f"bnn {prefix['bnn_err']:.4f}, post-prune {prefix['prune_err']:.4f}, "
           f"post-exp {prefix['post_exp_err']:.4f}, final {run['final_err']:.4f}, "
           f"surviving {run['surviving']}/{prefix['expanded_inputs']}")


def test_criterion_7_salience_beats_random(desk_final):
    sal = [desk_final(s, 0.75, False)["final_err"] for s in (0, 1, 2)]
    rnd = [desk_final(s, 0.75, True)["final_err"] for s in (0, 1, 2)]
    ok = float(np.mean(sal)) <= float(np.mean(rnd))
    report("criterion 7: salience-ranked shrinkage beats random over 3 seeds",
           ok, f"salience mean {np.mean(sal):.4f} vs random {np.mean(rnd):.4f}")


def test_criterion_8_netlist_equivalence(mnist, desk_final):
    _, test = mnist
    run = desk_final(0, 0.75)
    nl = parse_verilog(run["verilog"])
    x = np.where(test.features >= 0, 1, -1).astype(np.int64)
    sim = classify(nl, x)
    model = run["net"].predict_bin(test.features)
    mism_mnist = int((sim != model).sum())

    # exhaustive equivalence on 8-input parity (all 256 patterns)
    ds = synth_boolean("parity", 8, 256)
    cfg = parity8_cfg()
    rng = np.random.default_rng(cfg.seed)
    net = build_network(cfg, 8, 2, rng)
    log = MetricLog()
    train_bnn(net, ds, ds, cfg, rng, log)
    prune_nodes(net, cfg.theta, ds, ds, cfg, rng, log)
    logic_expand(net, cfg.k, ds, ds, cfg, rng, log)
    logic_shrink(net, ds, ds, cfg, rng, log)
    finalize_binarized(net, ds, ds, cfg, rng, log)
    text = emit_verilog(simplify(extract_netlist(net)))
    xb = np.where(ds.features >= 0, 1, -1).astype(np.int64)
    mism_par = int((classify(parse_verilog(text), xb)
                    != net.predict_bin(ds.features)).sum())
    ok = mism_mnist == 0 and mism_par == 0
    report("criterion 8: netlist == model on 10000 MNIST samples and all 256 "
           "parity8 patterns", ok,
           f"mnist mismatches {mism_mnist}/{len(test)}, parity {mism_par}/256")


def _mean_k(nl) -> float:
    sizes = [n.k for n in nl.nodes.values() if n.kind == "lut" and n.layer]
    sizes += [0 for n in nl.nodes.values()
              if n.kind == "const" and n.layer]
    return float(np.mean(sizes)) if sizes else 0.0


def test_criterion_9_sparsity_trend(desk_final):
    deltas = [0.0, 0.25, 0.50, 0.75]
    runs = [desk_final(0, d) for d in deltas]
    mean_ks = [_mean_k(r["pre"]) for r in runs]
    majors = [area_report(r["pre"], r["post"]).majority_class(
        area_report(r["pre"], r["post"]).pre_total) for r in runs]
    ok = all(a >= b - 1e-12 for a, b in zip(mean_ks, mean_ks[1:]))
    ok &= all(a >= b for a, b in zip(majors, majors[1:]))
    counts_ok = True
    for r in runs:
        rep = area_report(r["pre"], r["post"])
        counts_ok &= int(rep.post_total.sum()) <= int(rep.pre_total.sum())
    ok &= counts_ok
    report("criterion 9: mean effective LUT size and majority size class "
           "non-increasing in delta; simplification never grows LUT count",
           ok, f"mean K' {[f'{v:.3f}' for v in mean_ks]}, majority {majors}")


def test_criterion_10_determinism(mnist, desk_prefix, desk_final, tmp_path):
    train, test = mnist
    first = desk_final(0, 0.75)
    p1 = str(tmp_path / "first.json")
    checkpoint.save(p1, first["net"], first["cfg"], "final", first["rng"],
                    first["plan"])

    # independent rerun of the whole seed-0 pipeline, passing through the
    # same phase-boundary checkpoint as the staged pipeline does
    cfg = desk_cfg(0)
    rng = np.random.default_rng(0)
    net = build_network(cfg, 784, 10, rng)
    log = MetricLog()
    train_bnn(net, train, test, cfg, rng, log)
    prune_nodes(net, cfg.theta, train, test, cfg, rng, log)
    logic_expand(net, cfg.k, train, test, cfg, rng, log)
    mid = str(tmp_path / "expanded.json")
    checkpoint.save(mid, net, cfg, "expanded", rng)
    net, cfg, _, rng, _ = checkpoint.load(mid)
    cfg.delta = 0.75
    plan = logic_shrink(net, train, test, cfg, rng, log)
    finalize_binarized(net, train, test, cfg, rng, log)
    p2 = str(tmp_path / "second.json")
    checkpoint.save(p2, net, cfg, "final", rng, plan)
    v2 = emit_verilog(simplify(extract_netlist(net)))

    same_ckpt = open(p1, "rb").read() == open(p2, "rb").read()
    same_verilog = first["verilog"] == v2
    report("criterion 10: same-seed rerun gives byte-identical checkpoint "
           "and Verilog", same_ckpt and same_verilog,
           f"checkpoint identical: {same_ckpt}, verilog identical: {same_verilog}")
