"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.

The miniature ordering runs (criteria 6 and 7) use configurations frozen
after a calibration pass; seeds, noise levels and hyperparameters below are
those frozen values and are not tuned at test time.
"""

import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import momine
from momine.anchors import AnchorSet
from momine.diffusion import DiffusionConfig, solve_columns
from momine.evaluation import evaluate_embeddings, nmi
from momine.features import FeatureSet, SyntheticSpec, generate_synthetic, l2_normalize
from momine.graph import build_reciprocal_graph, normalize_graph
from momine.mining import AnchorPools, MiningConfig, build_training_pool
from momine.trainer import (
    EmbeddingModel,
    TrainConfig,
    _LOSSES,
    _backward,
    _forward_cache,
    forward,
    train,
)

from helpers import (
    dense_oracle,
    map_oracle,
    mine_pools,
    nmi_oracle,
    power_iteration,
    random_graph,
    recall_oracle,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def report(number, name, ok, detail=""):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} {detail}")


# -- criterion 1: CG columns match the dense resolvent ------------------------


def test_acceptance_1_diffusion_oracle_equivalence():
    started = time.time()
    sizes = [10] * 17 + [50] * 17 + [200] * 16
    alphas = [0.5, 0.9, 0.99]
    worst = 0.0
    for idx, n in enumerate(sizes):  # 50 seeded random graphs
        graph = random_graph(n, seed=idx)
        op = normalize_graph(graph)
        alpha = alphas[idx % 3]
        full = dense_oracle(op, alpha)
        cfg = DiffusionConfig(alpha=alpha, tolerance=1e-12, max_iterations=3 * n)
        block = solve_columns(op, range(n), cfg)  # row i: anchor i's column
        worst = max(worst, float(np.max(np.abs(block.values - full.T))))
    elapsed = time.time() - started
    ok = worst <= 1e-8 and elapsed < 60.0
    report(1, "diffusion oracle equivalence", ok,
           f"worst inf-norm {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 60.0


# -- criterion 2: manifold similarity is symmetric ----------------------------


def test_acceptance_2_manifold_similarity_symmetry():
    rng = np.random.default_rng(0)
    worst = 0.0
    pairs_checked = 0
    for seed, n in ((0, 300), (1, 500)):
        graph = random_graph(n, seed=seed)
        op = normalize_graph(graph)
        cfg = DiffusionConfig(alpha=0.99, tolerance=1e-12, max_iterations=1200)
        anchors = rng.choice(n, size=120, replace=False)
        columns = dict(zip(anchors.tolist(), solve_columns(op, anchors, cfg).values))
        for _ in range(500):
            i, j = rng.choice(anchors, size=2, replace=False)
            worst = max(worst, abs(columns[int(i)][j] - columns[int(j)][i]))
            pairs_checked += 1
    ok = worst <= 1e-8 and pairs_checked == 1000
    report(2, "manifold similarity symmetry", ok,
           f"{pairs_checked} pairs, worst asymmetry {worst:.3e}")
    assert ok


# -- criterion 3: stationary distribution follows the degree law --------------


def test_acceptance_3_stationary_degree_law():
    worst_law = 0.0
    worst_fixed = 0.0
    for seed in range(20):
        n = 30 + 7 * seed
        graph = random_graph(n, seed=100 + seed)
        stat = power_iteration(graph, tolerance=1e-13, max_iterations=100000)
        assert stat.converged
        expected = graph.degrees / graph.degrees.sum()
        worst_law = max(worst_law, float(np.max(np.abs(stat.pi - expected))))
        resid = stat.pi @ (graph.adjacency.toarray() / graph.degrees[:, None]) - stat.pi
        worst_fixed = max(worst_fixed, float(np.max(np.abs(resid))))
    ok = worst_law <= 1e-8 and worst_fixed <= 1e-8
    report(3, "stationary degree law", ok,
           f"law error {worst_law:.3e}, fixed-point error {worst_fixed:.3e}")
    assert ok


# -- criterion 4: pool contracts and CG/dense pool agreement ------------------


def test_acceptance_4_pool_contracts_and_oracle_match():
    mismatches = 0
    checked = 0
    cfg = MiningConfig(k_pos=15, k_neg=25, max_neg=12, hard_subset_size=5)
    dcfg = DiffusionConfig(alpha=0.99, tolerance=1e-12, max_iterations=600)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = 60 + 10 * seed
        feats = l2_normalize(FeatureSet(data=rng.normal(size=(n, 6))))
        graph = build_reciprocal_graph(feats, 8)
        op = normalize_graph(graph)
        full = dense_oracle(op, dcfg.alpha)
        for anchor in range(0, n, 7):
            pools = mine_pools(anchor, feats, op, dcfg, cfg)
            pos_ids = [j for j, _ in pools.positives]
            neg_ids = [j for j, _ in pools.negatives]
            assert anchor not in pos_ids and anchor not in neg_ids
            assert not set(pos_ids) & set(neg_ids)
            assert len(neg_ids) <= 50
            pos_w = [w for _, w in pools.positives]
            neg_w = [w for _, w in pools.negatives]
            assert all(a >= b for a, b in zip(pos_w, pos_w[1:]))
            assert all(a >= b for a, b in zip(neg_w, neg_w[1:]))
            # dense-oracle route: rank the dense column instead of the CG one
            col = full[:, anchor]
            order = np.lexsort((np.arange(n), -col))
            m_rank = [int(j) for j in order if j != anchor]
            sims = np.clip(feats.data @ feats.data[anchor], 0.0, None) ** 3
            sims[anchor] = -np.inf
            e_rank = list(np.lexsort((np.arange(n), -sims)))
            pos = [j for j in m_rank[: cfg.k_pos] if j not in set(e_rank[: cfg.k_pos])]
            m_set = set(m_rank[: cfg.k_neg])
            neg = [j for j in e_rank[: cfg.k_neg] if j not in m_set][: cfg.max_neg]
            checked += 1
            if pos_ids != pos or neg_ids != neg:
                mismatches += 1
    ok = mismatches == 0
    report(4, "pool contracts + dense-oracle pools", ok,
           f"{checked} anchors checked, {mismatches} mismatches")
    assert ok


# -- criterion 5: gradient suite ----------------------------------------------


def _weighted_loss(loss_name, zs, margin, weight):
    """One tuple's weighted loss and its gradients w.r.t. the three embeddings."""
    losses, *grads = _LOSSES[loss_name](*(z[None, :] for z in zs), margin)
    return float(losses[0]) * weight, [g[0] * weight for g in grads]


def _model_loss(model, tuple_x, loss_name, margin, weight):
    return _weighted_loss(loss_name, [forward(model, x) for x in tuple_x], margin, weight)


def _model_param_grads(model, tuple_x, loss_name, margin, weight):
    grads = [[np.zeros_like(w), np.zeros_like(b)] for w, b in model.layers]
    caches = []
    zs = []
    for x in tuple_x:
        z, cache = _forward_cache(model, x[None, :])
        zs.append(z[0])
        caches.append(cache)
    _, gz = _weighted_loss(loss_name, zs, margin, weight)
    for cache, g in zip(caches, gz):
        _backward(model, cache, g[None, :], grads)
    return grads


def test_acceptance_5_gradient_suite():
    rng = np.random.default_rng(1)
    step = 1e-5
    worst = 0.0
    for loss_name, weighted in (
        ("contrastive", False),
        ("contrastive", True),
        ("triplet", False),
        ("triplet", True),
    ):
        margin = 0.7 if loss_name == "contrastive" else 0.5
        checked = 0
        while checked < 100:
            model = EmbeddingModel(
                5, 4,
                layers=[[rng.normal(size=(4, 5)), 0.1 * rng.normal(size=4)]],
            )
            tuple_x = rng.normal(size=(3, 5))
            weight = float(rng.uniform(0.1, 1.0)) if weighted else 1.0
            z = [forward(model, x) for x in tuple_x]
            if loss_name == "contrastive":
                kink = abs(margin - np.linalg.norm(z[0] - z[2]))
            else:
                kink = abs(margin + np.sum((z[0] - z[1]) ** 2) - np.sum((z[0] - z[2]) ** 2))
            if kink < 1e-3:
                continue  # finite differences cannot straddle the hinge kink
            analytic = _model_param_grads(model, tuple_x, loss_name, margin, weight)
            flat_analytic = np.concatenate(
                [g.ravel() for layer in analytic for g in layer]
            )
            numeric = []
            for layer_idx, (w, b) in enumerate(model.layers):
                for param in (w, b):
                    grad = np.zeros_like(param)
                    it = np.nditer(param, flags=["multi_index"])
                    while not it.finished:
                        idx = it.multi_index
                        orig = param[idx]
                        param[idx] = orig + step
                        lp, _ = _model_loss(model, tuple_x, loss_name, margin, weight)
                        param[idx] = orig - step
                        lm, _ = _model_loss(model, tuple_x, loss_name, margin, weight)
                        param[idx] = orig
                        grad[idx] = (lp - lm) / (2 * step)
                        it.iternext()
                    numeric.append(grad.ravel())
            flat_numeric = np.concatenate(numeric)
            denom = max(np.linalg.norm(flat_numeric), 1e-12)
            rel = np.linalg.norm(flat_analytic - flat_numeric) / denom
            worst = max(worst, rel)
            assert rel < 1e-4, f"{loss_name} weighted={weighted}: rel error {rel:.2e}"
            checked += 1
    report(5, "gradient suite", True, f"400 tuples, worst relative error {worst:.2e}")


# -- criteria 6 and 7: miniature ordering runs ---------------------------------

MODEL_SEED = 12

MOONS = {
    "spec": SyntheticSpec(kind="moons", per_class=300, classes=2, ambient_dim=16, noise=0.22),
    "gen_seed": 11,
    "graph_k": 15,
    "diffusion": DiffusionConfig(alpha=0.95, tolerance=1e-6, max_iterations=300),
    "mining": MiningConfig(k_pos=50, k_neg=390, max_neg=20, hard_subset_size=5),
    "train": dict(loss="triplet", margin=0.5, lr0=0.045, batch_size=8, epochs=30),
    "train_seed": 37,
}

CLUSTERS = {
    "spec": SyntheticSpec(kind="clusters", per_class=70, classes=6, ambient_dim=16, noise=1.2),
    "gen_seed": 11,
    "graph_k": 12,
    "diffusion": DiffusionConfig(alpha=0.99, tolerance=1e-6, max_iterations=300),
    "mining": MiningConfig(k_pos=50, k_neg=150, max_neg=20, hard_subset_size=10),
    "train": dict(loss="contrastive", margin=0.7, lr0=0.2, batch_size=42, epochs=30),
    "train_seed": 13,
}


def _mining_space(setup):
    fs = generate_synthetic(setup["spec"], setup["gen_seed"])
    fn = l2_normalize(fs)
    graph = build_reciprocal_graph(fn, setup["graph_k"])
    sym = normalize_graph(graph)
    stat = power_iteration(graph, max_iterations=20000)
    order = np.lexsort((np.arange(fn.n), -stat.pi))
    anchors = AnchorSet(anchor_ids=order, pi_values=stat.pi[order])
    return fs, fn, sym, anchors


def _train_recall(features, labels, pools, setup, weighted, hard_subset):
    mcfg = MiningConfig(
        k_pos=setup["mining"].k_pos,
        k_neg=setup["mining"].k_neg,
        max_neg=setup["mining"].max_neg,
        hard_subset_size=hard_subset,
    )
    model = EmbeddingModel.initialize(16, 16, seed=MODEL_SEED)
    tcfg = TrainConfig(weight_normalization="per-anchor-max" if weighted else "unit",
                       **setup["train"])
    model, _ = train(features, pools, model, tcfg, mcfg, setup["train_seed"])
    return evaluate_embeddings(forward(model, features.data), labels, ks=[1]).recall_at[1]


def _baseline(features, operator, anchors, setup):
    """Euclidean-NN baseline pools: 5 nearest neighbours, negatives drawn by the generator seed."""
    mcfg = replace(setup["mining"], mode="baseline", baseline_k=5)
    pools, _ = build_training_pool(anchors, features, operator, setup["diffusion"], mcfg,
                                   seed=setup["gen_seed"])
    return pools


def _ordering_run(setup):
    fs, fn, sym, anchors = _mining_space(setup)
    labels = fs.labels
    r_init = evaluate_embeddings(fn.data, labels, ks=[1]).recall_at[1]
    mined, _ = build_training_pool(anchors, fn, sym, setup["diffusion"], setup["mining"])
    base = [p for p in _baseline(fn, sym, anchors, setup) if p.positives and p.negatives]
    r_w = _train_recall(fn, labels, mined, setup, True, setup["mining"].hard_subset_size)
    r_u = _train_recall(fn, labels, mined, setup, False, setup["mining"].hard_subset_size)
    r_b = _train_recall(fn, labels, base, setup, False, setup["mining"].max_neg)
    return r_init, r_w, r_u, r_b, fn, labels, mined, base


def _chain_detail(name, r_init, r_w, r_u, r_b):
    return (
        f"{name}: init={r_init:.3f} weighted={r_w:.3f} unweighted={r_u:.3f} "
        f"baseline={r_b:.3f} (weighted gain {100 * (r_w - r_init):+.1f}pt)"
    )


def _chain_ok(r_init, r_w, r_u, r_b):
    return (
        r_w >= r_u - 1e-12
        and r_u >= r_b - 1e-12
        and min(r_w, r_u, r_b) >= r_init - 0.01
        and r_w >= r_init + 0.05
    )


def test_acceptance_6_miniature_ordering():
    started = time.time()
    results = {}
    for name, setup in (("clusters", CLUSTERS), ("moons", MOONS)):
        r_init, r_w, r_u, r_b, *_ = _ordering_run(setup)
        results[name] = (r_init, r_w, r_u, r_b)
    elapsed = time.time() - started
    details = "; ".join(_chain_detail(n, *results[n]) for n in results)
    ok = all(_chain_ok(*results[n]) for n in results) and elapsed < 300.0
    report(6, "miniature ordering", ok, f"{details}; {elapsed:.0f}s")
    for name in results:
        r_init, r_w, r_u, r_b = results[name]
        assert r_w >= r_u - 1e-12, f"{name}: weighted {r_w:.3f} < unweighted {r_u:.3f}"
        assert r_u >= r_b - 1e-12, f"{name}: unweighted {r_u:.3f} < baseline {r_b:.3f}"
        assert min(r_w, r_u, r_b) >= r_init - 0.01, f"{name}: a run fell >1pt below initial"
        assert r_w >= r_init + 0.05, (
            f"{name}: weighted-mined gain {100 * (r_w - r_init):.1f}pt is below the"
            f" required 5pt over initial {r_init:.3f}"
        )
    assert elapsed < 300.0


def test_acceptance_7_oracle_ablation_ordering():
    setup = CLUSTERS
    fs, fn, sym, anchors = _mining_space(setup)
    labels = fs.labels
    mined, _ = build_training_pool(anchors, fn, sym, setup["diffusion"], setup["mining"])
    max_neg = setup["mining"].max_neg
    pos_oracle, _ = build_training_pool(anchors, fn, sym, setup["diffusion"],
                                        replace(setup["mining"], oracle="positive"), labels)
    base = [p for p in _baseline(fn, sym, anchors, setup) if p.positives and p.negatives]
    mined_by_id = {p.anchor_id: p for p in mined}
    nn5_mined_neg, nn5_rand_neg = [], []
    for pool in base:
        counterpart = mined_by_id.get(pool.anchor_id)
        if counterpart is None or not counterpart.negatives:
            continue
        nn5_mined_neg.append(
            AnchorPools(pool.anchor_id, list(pool.positives), list(counterpart.negatives))
        )
        nn5_rand_neg.append(
            AnchorPools(pool.anchor_id, list(pool.positives), list(pool.negatives))
        )
    r_mined = _train_recall(fn, labels, mined, setup, False, setup["mining"].hard_subset_size)
    r_pos_oracle = _train_recall(fn, labels, pos_oracle, setup, False, setup["mining"].hard_subset_size)
    r_nn5_mined = _train_recall(fn, labels, nn5_mined_neg, setup, False, setup["mining"].hard_subset_size)
    r_nn5_rand = _train_recall(fn, labels, nn5_rand_neg, setup, False, max_neg)
    ok = r_pos_oracle >= r_mined - 0.02 and r_nn5_mined >= r_nn5_rand
    report(7, "oracle-ablation ordering", ok,
           f"posOracle={r_pos_oracle:.3f} vs mined={r_mined:.3f}; "
           f"minedNeg={r_nn5_mined:.3f} vs randNeg={r_nn5_rand:.3f}")
    assert r_pos_oracle >= r_mined - 0.02
    assert r_nn5_mined >= r_nn5_rand


# -- criterion 8: end-to-end determinism ---------------------------------------


def test_acceptance_8_pipeline_determinism(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(next(iter(momine.__path__)) + "/..")
    cmd = [
        sys.executable, "-m", "momine.cli", "pipeline", "--seed", "7",
        "--set", "gen.kind", "clusters", "--set", "gen.classes", "4",
        "--set", "gen.per_class", "40", "--set", "gen.ambient_dim", "8",
        "--set", "gen.noise", "0.6", "--set", "graph.k", "8",
        "--set", "diffusion.alpha", "0.95", "--set", "anchors.mode", "all",
        "--set", "mining.k_pos", "15", "--set", "mining.k_neg", "60",
        "--set", "mining.max_neg", "10", "--set", "mining.hard_subset_size", "5",
        "--set", "train.epochs", "5", "--set", "train.batch_size", "16",
    ]
    for sub in ("run1", "run2"):
        res = subprocess.run(
            cmd + ["--out", str(tmp_path / sub)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert res.returncode == 0, res.stderr
    same = True
    compared = []
    for name in ("pools.jsonl", "model.bin", "report.json", "initial_report.json",
                 "train_log.csv", "graph.txt", "anchors.txt", "config.json"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        compared.append(name)
        same = same and a == b
    report(8, "end-to-end determinism", same, f"compared {len(compared)} artifacts")
    assert same


# -- criterion 9: metric oracles ------------------------------------------------


def test_acceptance_9_metric_oracles():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(10, 31))
        z = rng.normal(size=(n, 4))
        labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
        if np.unique(labels).size < 2:
            labels[0] = labels[0] + 1
        got = evaluate_embeddings(z, labels, ks=(1, 3))
        for k in (1, 3):
            worst = max(worst, abs(got.recall_at[k] - recall_oracle(z, labels, k)))
        worst = max(worst, abs(got.map_score - map_oracle(z, labels)))
        other = rng.integers(0, 3, size=n)
        worst = max(worst, abs(nmi(labels, other) - nmi_oracle(labels, other)))
    ok = worst <= 1e-12
    report(9, "metric oracles", ok, f"25 instances, worst deviation {worst:.2e}")
    assert ok
