"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion. The MNIST
criteria share trained models through session-scoped fixtures; the whole
suite trains from scratch and takes on the order of an hour on one CPU.

The MNIST IDX files are looked up in `$LUTSHRINK_DATA_DIR` if it is set,
else in /root/data/mnist if that holds all four files, else in the repo's
data/ (where scripts/fetch_mnist.sh writes by default). The MNIST criteria
are skipped, with a reason naming the directories searched, only when the
variable is unset and neither directory holds the files. A set but wrong
`$LUTSHRINK_DATA_DIR` is never skipped: the tests error with the loader's
one-line remedy. The parity8 half of criterion 8 needs no MNIST and always
runs.

Run with:  pytest tests/test_acceptance.py -v
"""

import copy
import itertools
import os

import numpy as np
import pytest

from lutshrink import checkpoint
from lutshrink.config import DATA_DIR_ENV, MNIST_FILES, load_datasets
from lutshrink.data import synth_boolean
from lutshrink.lutcore import CornerBatch, Wiring
from lutshrink.model import Network, sign_bits
from lutshrink.netlist import area_report, extract_netlist, scores, simplify
from lutshrink.shrink import build_U, compose_transforms, salience_rows
from lutshrink.train import (
    MetricLog,
    TrainConfig,
    build_network,
    evaluate,
    finalize_binarized,
    logic_expand,
    logic_shrink,
    prune_nodes,
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
    mask = np.array([-0.90, -0.01, -0.85, 0.05])
    s = salience_rows(mask, 2)[0]
    ok = np.allclose(s, [1.79, 0.11], rtol=0, atol=1e-12)

    merged = mask @ build_U(2, 1)
    ok &= np.allclose(merged, [-0.875, 0.02, -0.875, 0.02],
                      rtol=0, atol=1e-12)
    # rounded values as published: (-0.88, 0.02)
    ok &= np.allclose(np.round(merged, 2), [-0.88, 0.02, -0.88, 0.02])

    tt = sign_bits(merged)
    # wire y = x_0: table equals the sign of input 0 for all four corners
    wire = np.array([-1, 1, -1, 1])
    ok &= np.array_equal(tt, wire)
    report("criterion 1: golden salience/merge/binarize values", ok,
           f"salience={s}, merged={merged}")


# ---------------------------------------------------------------------------
# criterion 2: averaging-operator suite for every k <= 6
# ---------------------------------------------------------------------------


def test_criterion_2_operator_suite():
    ok = True
    for k in range(1, 7):
        mats = [build_U(k, i) for i in range(k)]
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
    ok &= np.array_equal(build_U(2, 0), u0)
    ok &= np.array_equal(build_U(2, 1), u1)
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
                v = compose_transforms(k, zero)
                after = np.where(params @ v >= 0, 1, -1)
                if not np.array_equal(before, after):
                    ok = False
            # severing the minimum-salience input flips at most 2^(k-1) entries
            i_min = int(np.argmin(s))
            v = compose_transforms(k, [i_min])
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


def _one_lut(x: np.ndarray) -> CornerBatch:
    """One sample of one LUT that reads x[j] as its input j."""
    return CornerBatch(x[None], Wiring(len(x), np.arange(len(x))[None]))


def _lut_out(params: np.ndarray, x: np.ndarray) -> float:
    return _one_lut(x).interpolate(params[:, None])[0, 0]


def test_criterion_4_gradient_checks():
    rng = np.random.default_rng(7)
    eps = 1e-5
    ok = True
    worst = 0.0
    one = np.ones((1, 1))  # d loss / d f of the single output
    for k in range(1, 5):
        for _ in range(100):
            params = rng.uniform(-1, 1, size=2**k)
            x = rng.uniform(-0.95, 0.95, size=k)
            gp, gx = _one_lut(x).backward(params[:, None], one)
            gp, gx = gp[:, 0], gx[0]
            for d in range(2**k):
                up = params.copy()
                dn = params.copy()
                up[d] += eps
                dn[d] -= eps
                fd = (_lut_out(up, x) - _lut_out(dn, x)) / (2 * eps)
                rel = abs(gp[d] - fd) / max(abs(fd), 1e-8)
                worst = max(worst, rel)
                ok &= rel < 1e-5 or abs(gp[d] - fd) < 1e-8
            for j in range(k):
                up = x.copy()
                dn = x.copy()
                up[j] += eps
                dn[j] -= eps
                fd = (_lut_out(params, up) - _lut_out(params, dn)) / (2 * eps)
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
        cfg = parity8_cfg(k=k, seed=seed, lr_schedule=[[0.05, 40]],
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
DEFAULT_MNIST_DIR = "/root/data/mnist"
REPO_DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "data")


def _has_mnist(path: str) -> bool:
    return all(os.path.isfile(os.path.join(path, f)) for f in MNIST_FILES)


def mnist_dir() -> str:
    """$LUTSHRINK_DATA_DIR if set, else the first default holding the files
    (the repo's data/ when neither does, so the loader names it)."""
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return env
    return DEFAULT_MNIST_DIR if _has_mnist(DEFAULT_MNIST_DIR) else REPO_DATA_DIR


requires_mnist = pytest.mark.skipif(
    not os.environ.get(DATA_DIR_ENV) and not _has_mnist(mnist_dir()),
    reason=f"MNIST IDX files not found in {DEFAULT_MNIST_DIR} or "
           f"{REPO_DATA_DIR}; run scripts/fetch_mnist.sh <dir> or set "
           f"${DATA_DIR_ENV}",
)


def desk_cfg(seed: int) -> TrainConfig:
    return TrainConfig(
        hidden=[512], shrink_layers=["fc2"], theta=0.9, delta=0.75, k=DESK_K,
        shrink_iters=3, epochs_per_iter=3,
        lr_schedule=[[0.2, 15], [0.05, 10], [0.02, 5]],
        epochs_post_prune=12, epochs_post_expand=5, epochs_final=6,
        lr=0.2, batch_size=128, seed=seed,
        data_kind="mnist",
        data_dir=mnist_dir(),
    )


def surviving_inputs(net) -> int:
    """LUT inputs not severed, over every LUT layer."""
    return sum(int((~lay.pruned).sum()) for lay in net.layers if lay.kind == "lut")


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
            "expanded_inputs": surviving_inputs(net),
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
            "surviving": surviving_inputs(net),
            "pre": pre, "post": post,
            "verilog": emit_verilog(post),
        }
        return cache[key]

    return run


@requires_mnist
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


@requires_mnist
def test_criterion_7_salience_beats_random(desk_final):
    sal = [desk_final(s, 0.75, False)["final_err"] for s in (0, 1, 2)]
    rnd = [desk_final(s, 0.75, True)["final_err"] for s in (0, 1, 2)]
    ok = float(np.mean(sal)) <= float(np.mean(rnd))
    report("criterion 7: salience-ranked shrinkage beats random over 3 seeds",
           ok, f"salience mean {np.mean(sal):.4f} vs random {np.mean(rnd):.4f}")


@requires_mnist
def test_criterion_8_netlist_equivalence_mnist(mnist, desk_final):
    _, test = mnist
    run = desk_final(0, 0.75)
    nl = parse_verilog(run["verilog"])
    x = np.where(test.features >= 0, 1, -1).astype(np.int64)
    # every class score, not just the argmax: a wrong sum can keep its class
    sim = scores(nl, x)
    model = run["net"].infer_bin(test.features)
    mism_mnist = int(np.any(sim != model, axis=1).sum())
    report("criterion 8: netlist == model on 10000 MNIST samples",
           mism_mnist == 0, f"mnist mismatches {mism_mnist}/{len(test)}")


def test_criterion_8_netlist_equivalence():
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
    mism_par = int(np.any(scores(parse_verilog(text), xb)
                          != net.infer_bin(ds.features), axis=1).sum())
    report("criterion 8: netlist == model on all 256 parity8 patterns",
           mism_par == 0, f"parity {mism_par}/256")


def _mean_k(nl) -> float:
    sizes = [n.k for n in nl.nodes.values() if n.kind == "lut" and n.layer]
    sizes += [0 for n in nl.nodes.values()
              if n.kind == "const" and n.layer]
    return float(np.mean(sizes)) if sizes else 0.0


@requires_mnist
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


@requires_mnist
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
