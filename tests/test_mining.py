import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import momine.graph
import momine.mining
from momine.anchors import AnchorSet, select_anchors, stationary
from momine.config import RunConfig
from momine.diffusion import DiffusionConfig, solve_columns
from momine.errors import AllPoolsEmpty, BadAnchors, BadGraph, BadPools, DimMismatch, LabelsMissing
from momine.features import FeatureSet, SyntheticSpec, generate_synthetic, l2_normalize
from momine.graph import NeighborGraph, build_reciprocal_graph, normalize_graph
from momine.mining import (
    ANCHOR_BLOCK,
    MiningConfig,
    build_training_pool,
    load_pools,
    pool_table,
    sample_epoch_tuples,
    save_pools,
)

from helpers import (
    PoolRow,
    baseline_pools_reference,
    dense_oracle,
    knn_oracle,
    make_pools,
    mine_pools,
    oracle_side_reference,
    pool_lists,
    pools_two_rankings,
    power_iteration,
    sample_epoch_tuples_reference,
    solve_column_reference,
    tuple_lists,
)

DC = DiffusionConfig(alpha=0.99, tolerance=1e-12, max_iterations=500)


def small_setup(n=40, d=6, seed=0, k=6):
    rng = np.random.default_rng(seed)
    feats = l2_normalize(FeatureSet(data=rng.normal(size=(n, d))))
    graph = build_reciprocal_graph(feats, k)
    return feats, graph, normalize_graph(graph)


def clusters_setup(noise=1.0, seed=11, k=12):
    spec = SyntheticSpec(kind="clusters", per_class=70, classes=6, ambient_dim=16, noise=noise)
    fs = generate_synthetic(spec, seed)
    fn = l2_normalize(fs)
    graph = build_reciprocal_graph(fn, k)
    sym = normalize_graph(graph)
    stat = power_iteration(graph, max_iterations=20000)
    order = np.lexsort((np.arange(fn.n), -stat.pi))
    anchors = AnchorSet(anchor_ids=order, pi_values=stat.pi[order])
    return fs, fn, graph, sym, anchors


def pools_via_dense_oracle(anchor, feats, op, cfg):
    """Independent pool computation from the dense similarity matrix plus an
    exhaustive euclidean scan."""
    n = feats.n
    col = dense_oracle(op, DC.alpha)[:, anchor]
    order = np.lexsort((np.arange(n), -col))
    m_rank = [int(j) for j in order if j != anchor]
    k_pos = min(cfg.k_pos, n - 1)
    k_neg = min(cfg.k_neg, n - 1)
    e_pos = knn_oracle(feats.data, k_pos)[anchor]
    e_neg = knn_oracle(feats.data, k_neg)[anchor]
    pos = [j for j in m_rank[:k_pos] if j not in set(e_pos)]
    pos = pos[: cfg.max_pos or None]
    m_set = set(m_rank[:k_neg])
    neg = [j for j in e_neg if j not in m_set][: cfg.max_neg]
    return pos, neg


def test_pool_contracts_hold():
    feats, graph, op = small_setup()
    cfg = MiningConfig(k_pos=10, k_neg=15, max_neg=8, hard_subset_size=4)
    for anchor in range(0, feats.n, 5):
        pools = mine_pools(anchor, feats, op, DC, cfg)
        pos_ids = [j for j, _ in pools.positives]
        neg_ids = [j for j, _ in pools.negatives]
        assert anchor not in pos_ids and anchor not in neg_ids
        assert not set(pos_ids) & set(neg_ids)
        assert len(pos_ids) <= cfg.k_pos
        assert len(neg_ids) <= cfg.max_neg
        pos_w = [w for _, w in pools.positives]
        neg_w = [w for _, w in pools.negatives]
        assert all(a >= b for a, b in zip(pos_w, pos_w[1:]))
        assert all(a >= b for a, b in zip(neg_w, neg_w[1:]))


def test_pools_match_dense_oracle_exactly():
    for seed in (1, 2, 3):
        feats, graph, op = small_setup(n=60, seed=seed, k=8)
        cfg = MiningConfig(k_pos=12, k_neg=20, max_neg=10, hard_subset_size=5)
        for anchor in (0, 11, 37):
            pools = mine_pools(anchor, feats, op, DC, cfg)
            pos, neg = pools_via_dense_oracle(anchor, feats, op, cfg)
            assert [j for j, _ in pools.positives] == pos
            assert [j for j, _ in pools.negatives] == neg


def test_identical_rankings_give_empty_pools():
    # with k = n-1 both neighbor sets cover everything, so both differences
    # are empty
    feats, graph, op = small_setup(n=12, k=5)
    cfg = MiningConfig(k_pos=11, k_neg=11, max_neg=5, hard_subset_size=2)
    pools = mine_pools(0, feats, op, DC, cfg)
    assert pools.positives == []
    assert pools.negatives == []


def test_elbow_graph_pools_hand_checked():
    # eight points on an L shape; the corner connects the two legs
    pts = np.array(
        [
            [0.0, 3.0], [0.0, 2.0], [0.0, 1.0], [0.0, 0.0],
            [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [3.0, 1.0],
        ]
    ) + np.array([5.0, 5.0])
    feats = l2_normalize(FeatureSet(data=pts))
    graph = build_reciprocal_graph(feats, 2)
    op = normalize_graph(graph)
    cfg = MiningConfig(k_pos=4, k_neg=4, max_neg=4, hard_subset_size=2)
    pools = mine_pools(0, feats, op, DC, cfg)
    pos, neg = pools_via_dense_oracle(0, feats, op, cfg)
    assert [j for j, _ in pools.positives] == pos
    assert [j for j, _ in pools.negatives] == neg


def test_two_moons_tip_positive_pool_purity():
    spec = SyntheticSpec(kind="moons", per_class=150, classes=2, ambient_dim=16, noise=0.12)
    fs = generate_synthetic(spec, 11)
    fn = l2_normalize(fs)
    graph = build_reciprocal_graph(fn, 12)
    op = normalize_graph(graph)
    cfg = MiningConfig(k_pos=40, k_neg=40, max_neg=20, hard_subset_size=5)
    dcfg = DiffusionConfig(alpha=0.95, tolerance=1e-8, max_iterations=500)
    # anchors away from the gap: positives should stay on the same moon
    checked = 0
    hits = []
    for anchor in range(0, fn.n, 10):
        pool = mine_pools(anchor, fn, op, dcfg, cfg).positives
        if len(pool) < 3:
            continue
        checked += 1
        hits += [fs.labels[j] == fs.labels[anchor] for j, _ in pool]
    assert checked >= 10
    assert np.mean(hits) > 0.9


def test_two_moons_gap_negative_pool_purity():
    spec = SyntheticSpec(kind="moons", per_class=150, classes=2, ambient_dim=16, noise=0.08)
    fs = generate_synthetic(spec, 11)
    fn = l2_normalize(fs)
    graph = build_reciprocal_graph(fn, 12)
    op = normalize_graph(graph)
    cfg = MiningConfig(k_pos=200, k_neg=200, max_neg=10, hard_subset_size=5)
    dcfg = DiffusionConfig(alpha=0.95, tolerance=1e-8, max_iterations=500)
    # anchors near the inter-moon gap: closest to any opposite-moon point
    other = {0: fn.data[fs.labels == 1], 1: fn.data[fs.labels == 0]}
    gap_dist = np.array(
        [np.linalg.norm(other[int(fs.labels[i])] - fn.data[i], axis=1).min() for i in range(fn.n)]
    )
    anchors = np.argsort(gap_dist)[:15]
    hits = []
    for anchor in anchors:
        pool = mine_pools(int(anchor), fn, op, dcfg, cfg).negatives
        hits += [fs.labels[j] != fs.labels[anchor] for j, _ in pool]
    assert len(hits) >= 30
    assert np.mean(hits) > 0.9


def test_clusters_benchmark_pool_purity():
    # frozen thresholds for the desk-scale benchmark: negatives >= 0.9,
    # positives >= 0.35
    fs, fn, graph, sym, anchors = clusters_setup(noise=1.0)
    cfg = MiningConfig(k_pos=50, k_neg=150, max_neg=20, hard_subset_size=10)
    dcfg = DiffusionConfig(alpha=0.99, tolerance=1e-6, max_iterations=300)
    pools = pool_lists(build_training_pool(anchors, fn, sym, dcfg, cfg))
    pos_hits, neg_hits = [], []
    for pool in pools:
        label = fs.labels[pool.anchor]
        pos_hits += [fs.labels[j] == label for j, _ in pool.positives]
        neg_hits += [fs.labels[j] != label for j, _ in pool.negatives]
    assert np.mean(neg_hits) >= 0.9
    assert np.mean(pos_hits) >= 0.35


def test_unconverged_diffusion_flags_the_pool():
    feats, graph, op = small_setup(n=50, seed=12, k=6)
    cfg = MiningConfig(k_pos=10, k_neg=15, max_neg=8, hard_subset_size=4)
    starved = DiffusionConfig(alpha=0.99, tolerance=1e-14, max_iterations=2)
    anchors = AnchorSet(anchor_ids=np.array([0, 1, 2]), pi_values=np.zeros(3))
    with pytest.warns(UserWarning, match="^3 of 3 diffusion solves stopped above diffusion.tolerance$"):
        flagged = build_training_pool(anchors, feats, op, starved, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        healthy = build_training_pool(anchors, feats, op, DC, cfg)
    # the warning is the only trace: the pools keep their shape
    assert flagged.anchors.tolist() == healthy.anchors.tolist()


def pools_of(ids, feats, op, cfg, labels=None, seed=0):
    """build_training_pool's pools of the anchors ids, in their order, as PoolRows."""
    anchors = AnchorSet(np.asarray(ids), np.zeros(len(ids)))
    return pool_lists(build_training_pool(anchors, feats, op, DC, cfg, labels, seed))


def test_baseline_pools_contract():
    feats, graph, op = small_setup(n=30, seed=4)
    cfg = MiningConfig(max_neg=10, hard_subset_size=3, mode="baseline", baseline_k=5)
    pools = pools_of([3, 4], feats, op, cfg, seed=9)
    expected = knn_oracle(feats.data, 5)[3]
    assert [j for j, _ in pools[0].positives] == expected
    assert pools_of([3, 4], feats, op, cfg, seed=9) == pools
    assert pools[0].negatives != pools[1].negatives  # each anchor draws its own
    assert pools[0].negatives != pools_of([3], feats, op, cfg, seed=10)[0].negatives
    neg_ids = {j for j, _ in pools[0].negatives}
    assert len(neg_ids) == 10 and 3 not in neg_ids and not neg_ids & set(expected)
    neg_w = [w for _, w in pools[0].negatives]
    assert all(a >= b for a, b in zip(neg_w, neg_w[1:]))


def test_oracle_pools_modes():
    fs, fn, graph, sym, anchors = clusters_setup(noise=0.8)
    cfg = MiningConfig(k_pos=30, k_neg=60, max_neg=15, hard_subset_size=5)
    first = anchors.anchor_ids[:1]
    (base,) = pools_of(first, fn, sym, cfg)
    (pos,) = pools_of(first, fn, sym, replace(cfg, oracle="positive"), fs.labels)
    anchor_label = fs.labels[base.anchor]
    assert all(fs.labels[j] == anchor_label for j, _ in pos.positives)
    assert pos.negatives == base.negatives
    (neg,) = pools_of(first, fn, sym, replace(cfg, oracle="negative"), fs.labels)
    assert all(fs.labels[j] != anchor_label for j, _ in neg.negatives)
    assert neg.positives == base.positives
    assert len(neg.negatives) == 15
    with pytest.raises(LabelsMissing):
        pools_of(first, fn, sym, replace(cfg, oracle="positive"))
    with pytest.raises(DimMismatch):
        pools_of(first, fn, sym, replace(cfg, oracle="positive"), fs.labels[1:])
    with pytest.raises(ValueError, match="^oracle must be 'none', 'positive' or 'negative'"):
        replace(cfg, oracle="both")


@pytest.mark.parametrize("max_pos", [-1, -3])
def test_max_pos_below_one_is_rejected(max_pos):
    # a slice [:-3] would drop a pool's tail; 0 is unlimited, as mom's
    # mining.max_pos 0 is
    with pytest.raises(ValueError, match=r"^max_pos must be >= 0, got "):
        MiningConfig(max_pos=max_pos)
    assert MiningConfig(max_pos=0).max_pos == MiningConfig().max_pos == 0


def test_oracle_positive_singleton_class_empty():
    feats, graph, op = small_setup(n=8, d=3, seed=6, k=3)
    labels = np.array([0, 1, 1, 1, 1, 1, 1, 1])
    cfg = MiningConfig(max_neg=3, hard_subset_size=2, mode="baseline", baseline_k=2)
    (base,) = pools_of([0], feats, op, cfg)
    (out,) = pools_of([0], feats, op, replace(cfg, oracle="positive"), labels)
    assert base.positives and out.positives == []
    assert out.negatives == base.negatives


def test_build_training_pool_union():
    feats, graph, op = small_setup(n=50, seed=7, k=7)
    stat = power_iteration(graph, max_iterations=50000)
    anchors = select_anchors(graph, stat.pi, 10)
    cfg = MiningConfig(k_pos=10, k_neg=15, max_neg=8, hard_subset_size=4)
    pools = build_training_pool(anchors, feats, op, DC, cfg)
    # the union that train embeds: the table's members
    items = pool_table(pools, "none").members
    # oracle: recompute the union from the returned pools
    expected = set()
    for pool in pool_lists(pools):
        expected.add(pool.anchor)
        expected.update(j for j, _ in pool.positives)
        expected.update(j for j, _ in pool.negatives)
    assert set(items) == expected
    assert list(items) == sorted(items)


def test_baseline_pools_need_no_operator():
    feats, graph, op = small_setup(n=50, seed=7, k=7)
    anchors = select_anchors(graph, power_iteration(graph, max_iterations=50000).pi, 10)
    cfg = MiningConfig(k_pos=10, k_neg=15, max_neg=8, hard_subset_size=4, mode="baseline")
    pools = build_training_pool(anchors, feats, op, DC, cfg, seed=3)
    alone = build_training_pool(anchors, feats, None, DC, cfg, seed=3)
    assert pool_lists(alone) == pool_lists(pools)
    with pytest.raises(BadGraph, match="mined pools need"):
        build_training_pool(anchors, feats, None, DC, replace(cfg, mode="mined"))
    _, _, other = small_setup(n=40, seed=7, k=7)
    with pytest.raises(DimMismatch):  # a given operator is still checked
        build_training_pool(anchors, feats, other, DC, cfg)


def test_build_training_pool_all_empty_raises():
    feats, graph, op = small_setup(n=10, k=4)
    anchors = AnchorSet(anchor_ids=np.array([0, 1]), pi_values=np.array([0.2, 0.1]))
    cfg = MiningConfig(k_pos=9, k_neg=9, max_neg=3, hard_subset_size=2)
    with pytest.warns(UserWarning, match="dropped 2 anchors"):
        with pytest.raises(AllPoolsEmpty):
            build_training_pool(anchors, feats, op, DC, cfg)


def test_sample_epoch_tuples_deterministic():
    feats, graph, op = small_setup(n=40, seed=8)
    cfg = MiningConfig(k_pos=10, k_neg=15, max_neg=8, hard_subset_size=3)
    pools = [mine_pools(a, feats, op, DC, cfg) for a in range(0, 40, 4)]
    pools = [p for p in pools if p.positives and p.negatives]
    rng = np.random.default_rng(9)
    z = rng.normal(size=(40, 5))
    table = pool_table(make_pools(pools), "none")
    first, skipped1 = sample_epoch_tuples(table, z, cfg, seed=123)
    second, _ = sample_epoch_tuples(table, z, cfg, seed=123)
    assert tuple_lists(first) == tuple_lists(second)
    third, _ = sample_epoch_tuples(table, z, cfg, seed=124)
    assert tuple_lists(first) != tuple_lists(third)
    for t in zip(*tuple_lists(first)[:3]):
        assert len(set(t)) == 3


def test_sample_epoch_tuples_hard_window():
    pools = make_pools([(0, [(1, 0.9)], [(2, 0.8), (3, 0.7), (4, 0.6)])])
    z = np.zeros((5, 2))
    z[0] = [1.0, 0.0]
    z[2] = [0.0, 1.0]
    z[3] = [1.0, 0.0]  # collapsed onto the anchor: always the hardest
    z[4] = [0.0, -1.0]
    table = pool_table(pools, "none")
    cfg = MiningConfig(k_pos=5, k_neg=5, max_neg=3, hard_subset_size=1)
    for seed in range(5):
        (_, _, negatives, _), _ = sample_epoch_tuples(table, z, cfg, seed=seed)
        assert negatives[0] == 3
    # degenerate window: with the window as large as the pool every member
    # can be drawn
    cfg_all = MiningConfig(k_pos=5, k_neg=5, max_neg=3, hard_subset_size=3)
    seen = set()
    for seed in range(30):
        (_, _, negatives, _), _ = sample_epoch_tuples(table, z, cfg_all, seed=seed)
        seen.add(int(negatives[0]))
    assert seen == {2, 3, 4}


def test_sample_epoch_tuples_skips_empty():
    full = (0, [(1, 0.9)], [(2, 0.8)])
    empty = (3, [], [(2, 0.8)])
    z = np.eye(4)
    cfg = MiningConfig(k_pos=3, k_neg=3, max_neg=2, hard_subset_size=1)
    tuples, skipped = sample_epoch_tuples(pool_table(make_pools([full, empty]), "none"), z, cfg,
                                          seed=0)
    assert all(len(col) == 1 for col in tuples) and skipped == 1


def test_sample_epoch_tuples_names_a_member_beyond_the_embeddings():
    pools = make_pools([(0, [(1, 0.9)], [(2, 0.8), (6, 0.7)])])
    cfg = MiningConfig(k_pos=3, k_neg=3, max_neg=2, hard_subset_size=1)
    with pytest.raises(BadPools, match=r"^pool member id 6 out of range \[0, 4\)$"):
        sample_epoch_tuples(pool_table(pools, "none"), np.eye(4), cfg, seed=0)


def test_pools_jsonl_round_trip(tmp_path):
    feats, graph, op = small_setup(n=30, seed=10)
    cfg = MiningConfig(k_pos=8, k_neg=12, max_neg=6, hard_subset_size=3)
    pools = [mine_pools(a, feats, op, DC, cfg) for a in (0, 5, 9)]
    path = tmp_path / "pools.jsonl"
    save_pools(make_pools(pools), path)
    for line in path.read_text().splitlines():
        json.loads(line)  # every line is valid JSON
    save_pools(make_pools(pools), tmp_path / "again.jsonl")
    assert path.read_bytes() == (tmp_path / "again.jsonl").read_bytes()
    loaded = pool_lists(load_pools(path))
    for a, b in zip(pools, loaded):
        assert a.anchor == b.anchor
        assert [j for j, _ in a.positives] == [j for j, _ in b.positives]
        assert [j for j, _ in a.negatives] == [j for j, _ in b.negatives]
        for (_, wa), (_, wb) in zip(a.positives + a.negatives, b.positives + b.negatives):
            assert wb == pytest.approx(wa, rel=1e-8)


IDS = st.integers(0, 2**63 - 1)
# -0.0 included: it must be written as 0, or json reads it back as an int
SIDES = st.lists(st.tuples(IDS, st.floats(-0.0, allow_infinity=False)), max_size=8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.builds(PoolRow, IDS, SIDES, SIDES), min_size=1, max_size=5))
def test_pools_file_round_trip_property(tmp_path_factory, pools):
    path = tmp_path_factory.mktemp("pools") / "pools.jsonl"
    save_pools(make_pools(pools), path)
    first = path.read_bytes()
    loaded = load_pools(path)
    save_pools(loaded, path)
    assert path.read_bytes() == first
    for a, b in zip(pools, pool_lists(loaded), strict=True):
        assert b.anchor == a.anchor
        for side_a, side_b in ((a.positives, b.positives), (a.negatives, b.negatives)):
            assert side_b == [(j, float(f"{w:.9g}")) for j, w in side_a]


def duplicated_setup(k=6):
    """60 items: 30 random points, each present twice, so Euclidean and
    manifold rankings hold exact ties."""
    rng = np.random.default_rng(15)
    half = rng.normal(size=(30, 6))
    feats = l2_normalize(FeatureSet(data=np.vstack([half, half])))
    graph = build_reciprocal_graph(feats, k)
    return feats, graph, normalize_graph(graph)


@pytest.mark.parametrize("k_pos,k_neg,max_pos", [
    (25, 8, 0), (8, 25, 0), (12, 12, 5), (80, 200, 0),
])
def test_one_ranking_pools_match_two_rankings(k_pos, k_neg, max_pos):
    cfg = MiningConfig(k_pos=k_pos, k_neg=k_neg, max_pos=max_pos, max_neg=10, hard_subset_size=3)
    for feats, graph, op in (small_setup(n=60, seed=15), duplicated_setup()):
        block = solve_columns(op, np.arange(feats.n), DC)
        for anchor, values in enumerate(block.values):
            expected = pools_two_rankings(anchor, values, feats, cfg)
            assert mine_pools(anchor, feats, op, DC, cfg) == expected


def test_build_training_pool_blocks_match_single_solves():
    feats, graph, op = small_setup(n=150, seed=16, k=6)
    cfg = MiningConfig(k_pos=12, k_neg=30, max_neg=10, hard_subset_size=4)
    ids = np.arange(149, -1, -1)  # 150 anchors: 64 does not divide them
    pools = pool_lists(build_training_pool(AnchorSet(ids, np.zeros(150)), feats, op, DC, cfg))
    expected = [pools_two_rankings(a, solve_column_reference(op, a, DC).values[0], feats, cfg)
                for a in ids.tolist()]
    assert pools == [p for p in expected if p.positives or p.negatives]


def test_build_training_pool_is_the_same_at_every_worker_count(monkeypatch):
    feats, graph, op = small_setup(n=150, seed=16, k=6)
    cfg = MiningConfig(k_pos=12, k_neg=30, max_neg=10, hard_subset_size=4)
    # at 1, 2 and 3 workers 150 anchors take blocks of 50, 38 and 50; 45 take 45, 23 and 15
    for ids in (np.arange(149, -1, -1), np.arange(0, 135, 3)):
        anchors = AnchorSet(ids, np.zeros(ids.size))
        first = None
        for workers in (1, 2, 3):
            monkeypatch.setattr(momine.graph, "WORKERS", workers)
            got = pool_lists(build_training_pool(anchors, feats, op, DC, cfg))
            first = first or got
            assert got == first, workers


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_build_training_pool_warns_once_from_the_caller(monkeypatch, workers):
    monkeypatch.setattr(momine.graph, "WORKERS", workers)
    feats, graph, op = small_setup(n=10, k=4)
    anchors = AnchorSet(anchor_ids=np.arange(10), pi_values=np.zeros(10))
    cfg = MiningConfig(k_pos=9, k_neg=9, max_neg=3, hard_subset_size=2)
    with warnings.catch_warnings(record=True) as caught, pytest.raises(AllPoolsEmpty):
        warnings.simplefilter("always")
        build_training_pool(anchors, feats, op, DC, cfg)
    assert [str(w.message) for w in caught] == ["dropped 10 anchors with empty pools"]
    assert caught[0].filename == __file__


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_build_training_pool_with_no_anchors_raises(monkeypatch, workers):
    monkeypatch.setattr(momine.graph, "WORKERS", workers)
    feats, graph, op = small_setup(n=10, k=4)
    cfg = MiningConfig(k_pos=9, k_neg=9, max_neg=3, hard_subset_size=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AllPoolsEmpty):
            build_training_pool(AnchorSet(np.zeros(0, np.int64), np.zeros(0)), feats, op, DC, cfg)


def test_build_training_pool_matches_single_solves_at_any_block_grid(monkeypatch):
    feats, graph, op = small_setup(n=128, seed=21, k=2)
    cfg = MiningConfig(k_pos=12, k_neg=30, max_pos=6, max_neg=10, hard_subset_size=3)
    ids = np.arange(feats.n)
    expected = [pools_two_rankings(a, solve_column_reference(op, a, DC).values[0], feats, cfg)
                for a in ids.tolist()]
    expected = [p for p in expected if p.positives or p.negatives]
    assert {p.anchor for p in expected} & set(np.flatnonzero(graph.degrees == 0).tolist())
    for rows in (1, 3, 64):
        # blocks of at most rows anchors; 64 rows at one or two workers
        monkeypatch.setattr(momine.mining, "ANCHOR_CELLS", rows * feats.n)
        for workers in (1, 2, 3):
            monkeypatch.setattr(momine.graph, "WORKERS", workers)
            pools = build_training_pool(AnchorSet(ids, np.zeros(ids.size)), feats, op, DC, cfg)
            assert pool_lists(pools) == expected, (rows, workers)


def test_build_training_pool_memory_does_not_grow_with_block_times_n(monkeypatch):
    # a 50,000-node path, where a (32, n) float64 array takes 12.8 MB
    monkeypatch.setattr(momine.graph, "WORKERS", 2)
    n = 50_000
    feats = l2_normalize(FeatureSet(data=np.random.default_rng(3).normal(size=(n, 2))))
    adjacency = sp.diags([np.ones(n - 1)] * 2, [-1, 1], format="csr")
    graph = NeighborGraph(n, 1, adjacency, np.asarray(adjacency.sum(axis=1)).ravel())
    op = normalize_graph(graph)
    anchors = AnchorSet(np.arange(64) * 781, np.zeros(64))
    short = DiffusionConfig(alpha=0.99, tolerance=1e-6, max_iterations=3)
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="64 of 64 diffusion solves stopped"):
            pools = build_training_pool(anchors, feats, op, short, MiningConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pools.anchors.size == 64
    assert peak < 40e6


def test_held_pools_are_array_sized():
    # every node of 800 moons an anchor: about 45,000 pool entries, which
    # take 16 bytes each as an id and a weight in flat arrays
    run = RunConfig(gen=SyntheticSpec(per_class=400))
    feats = l2_normalize(generate_synthetic(run.gen, run.seed))
    graph = build_reciprocal_graph(feats, run.graph.k)
    anchors = select_anchors(graph, stationary(graph)[0], feats.n, "all")
    op = normalize_graph(graph)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pools = build_training_pool(anchors, feats, op, run.diffusion, run.mining, seed=run.seed)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1.5e6
    assert pools.anchors.size > 700


def test_build_training_pool_checks_anchor_ids_and_sizes():
    feats, graph, op = small_setup(n=30, seed=17)
    cfg = MiningConfig(k_pos=8, k_neg=12, max_neg=6, hard_subset_size=3)
    for bad in ([0, -3], [30], [29, 500]):
        anchors = AnchorSet(np.asarray(bad), np.zeros(len(bad)))
        with pytest.raises(BadAnchors):
            build_training_pool(anchors, feats, op, DC, cfg)
    with pytest.raises(BadAnchors):
        pools_of([-3], feats, op, replace(cfg, mode="baseline"))
    other = FeatureSet(data=feats.data[:20])
    with pytest.raises(DimMismatch):
        build_training_pool(AnchorSet(np.asarray([0]), np.zeros(1)), other, op, DC, cfg)


def test_sample_epoch_tuples_matches_per_pool_loop():
    feats, graph, op = small_setup(n=60, seed=13)
    cfg = MiningConfig(k_pos=10, k_neg=25, max_neg=12, hard_subset_size=6)
    pools = [mine_pools(a, feats, op, DC, cfg) for a in range(60)] * 2
    pools[3:3] = [
        PoolRow(5, [], [(1, 0.5)]),  # empty pools are skipped
        PoolRow(6, [(2, 0.3)], []),
        PoolRow(7, [(3, 0.2)], [(9, 0.1), (8, 0.05)]),  # fewer negatives than the window
    ]
    assert any(0 < len(p.negatives) < cfg.hard_subset_size for p in pools)
    assert len(pools) > ANCHOR_BLOCK  # the distances span two blocks
    # a coarse integer grid with repeated rows: many exact distance ties
    z = np.random.default_rng(14).integers(0, 3, size=(60, 4)).astype(np.float64)
    z[30:] = z[:30]
    table = pool_table(make_pools(pools), "none")
    for seed in range(30):
        got, skipped = sample_epoch_tuples(table, z, cfg, seed=[seed, 2, 5])
        assert (tuple_lists(got), skipped) == sample_epoch_tuples_reference(pools, z, cfg, [seed, 2, 5])
        assert skipped >= 2
    got, skipped = sample_epoch_tuples(pool_table(make_pools(pools[3:5]), "none"), z, cfg, seed=0)
    assert (tuple_lists(got), skipped) == (([], [], [], []), 2)


def every_mode_reference(ids, feats, op, cfg, labels, seed):
    """Reference for build_training_pool in every pool mode: mined pools from
    two rankings of each anchor's own solve, or the lexsort baseline pools;
    anchors whose base pools are both empty dropped; then any oracle side
    swapped in from its lexsort reference. Returns (pools, dropped ids)."""
    pools, dropped = [], []
    for a in ids.tolist():
        if cfg.mode == "mined":
            base = pools_two_rankings(a, solve_column_reference(op, a, DC).values[0], feats, cfg)
        else:
            base = baseline_pools_reference(a, feats, cfg.baseline_k, seed, cfg.max_neg)
        if not (base.positives or base.negatives):
            dropped.append(a)
        elif cfg.oracle == "positive":
            side = oracle_side_reference(a, feats, labels, True, cfg.max_pos or None)
            pools.append(PoolRow(a, side, base.negatives))
        elif cfg.oracle == "negative":
            side = oracle_side_reference(a, feats, labels, False, cfg.max_neg)
            pools.append(PoolRow(a, base.positives, side))
        else:
            pools.append(base)
    return pools, dropped


# (setup, mining config) pairs: exact ties in both rankings (duplicated
# points), isolated anchors (graph.k 2), anchors whose mined pools are both
# empty (k_pos = k_neg = 1 on duplicated points), and a baseline whose
# negatives exhaust the complement (baseline_k >= n - 1 leaves take = 0)
EVERY_MODE_CASES = [
    (lambda: small_setup(n=60, seed=15), dict(k_pos=25, k_neg=8, baseline_k=5, max_neg=10)),
    (duplicated_setup, dict(k_pos=12, k_neg=30, max_pos=4, baseline_k=3, max_neg=200)),
    (duplicated_setup, dict(k_pos=1, k_neg=1, max_pos=4, baseline_k=200, max_neg=10)),
    (lambda: small_setup(n=90, seed=21, k=2), dict(k_pos=12, k_neg=30, baseline_k=5, max_neg=9)),
]


@pytest.mark.parametrize("oracle", ["none", "positive", "negative"])
@pytest.mark.parametrize("mode", ["mined", "baseline"])
def test_build_training_pool_every_mode_matches_references(monkeypatch, mode, oracle):
    for case, (setup, values) in enumerate(EVERY_MODE_CASES):
        feats, graph, op = setup()
        labels = np.arange(feats.n) % 3
        cfg = MiningConfig(hard_subset_size=3, mode=mode, oracle=oracle, **values)
        ids = np.arange(feats.n - 1, -1, -1)
        expected, dropped = every_mode_reference(ids, feats, op, cfg, labels, seed=4)
        assert bool(dropped) == (case == 2 and mode == "mined"), case
        if dropped and oracle != "none":
            # the swapped-in side alone would keep them: the drop comes first
            assert oracle_side_reference(dropped[0], feats, labels, oracle == "positive", 4)
        if mode == "baseline" and case == 2 and oracle != "negative":
            assert all(p.negatives == [] for p in expected)  # take = 0
        for rows in (3, 64):
            # blocks of at most rows anchors
            monkeypatch.setattr(momine.mining, "ANCHOR_CELLS", rows * feats.n)
            for workers in (1, 2):
                monkeypatch.setattr(momine.graph, "WORKERS", workers)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    got = build_training_pool(
                        AnchorSet(ids, np.zeros(ids.size)), feats, op, DC, cfg, labels, seed=4)
                pools, items = pool_lists(got), pool_table(got, "none").members
                assert pools == expected, (case, rows, workers)
                assert [str(w.message) for w in caught] == (
                    [f"dropped {len(dropped)} anchors with empty pools"] if dropped else [])
                assert items.tolist() == sorted({p.anchor for p in pools} | {
                    j for p in pools for j, _ in p.positives + p.negatives})
        if oracle != "none":
            with pytest.raises(LabelsMissing, match="^oracle pools need the label sidecar$"):
                build_training_pool(AnchorSet(ids, np.zeros(ids.size)), feats, op, DC, cfg)


@pytest.mark.parametrize("k_pos,k_neg,max_pos", [(12, 30, 4), (500, 20, 0), (9, 500, 0)])
def test_block_pools_match_two_rankings_with_isolated_anchors(k_pos, k_neg, max_pos):
    # a sparse reciprocal graph leaves isolated nodes; k above n - 1 is clamped
    feats, graph, op = small_setup(n=90, seed=21, k=2)
    assert (graph.degrees == 0).sum() >= 3
    cfg = MiningConfig(k_pos=k_pos, k_neg=k_neg, max_pos=max_pos, max_neg=10, hard_subset_size=3)
    ids = np.arange(feats.n)  # two blocks of 45 at one or two workers
    got = build_training_pool(AnchorSet(ids, np.zeros(feats.n)), feats, op, DC, cfg)
    pools, items = pool_lists(got), pool_table(got, "none").members
    expected = [pools_two_rankings(a, solve_column_reference(op, a, DC).values[0], feats, cfg)
                for a in ids.tolist()]
    assert pools == [p for p in expected if p.positives or p.negatives]
    isolated = set(np.flatnonzero(graph.degrees == 0).tolist())
    assert isolated & {p.anchor for p in pools}
    assert items.tolist() == sorted({p.anchor for p in pools} | {
        j for p in pools for j, _ in p.positives + p.negatives})


def test_pool_table_per_anchor_max_spans_every_pool_of_the_anchor():
    pools = make_pools([
        (0, [(1, 0.9)], [(2, 0.5)]),
        (4, [(5, 0.0)], [(2, 0.5)]),  # a zero maximum trains at weight 0
        (0, [(3, 0.3), (6, 0.45)], [(2, 0.5)]),
        (0, [(7, 1.8)], []),  # skipped, but its positive still counts
    ])
    table = pool_table(pools, "per-anchor-max")
    assert table.weights.tolist() == [0.5, 0.0, 0.3 / 1.8, 0.45 / 1.8]
    assert table.anchors.tolist() == [0, 4, 0] and table.skipped == 1
    assert pool_table(pools, "none").weights.tolist() == [0.9, 0.0, 0.3, 0.45]
    assert pool_table(pools, "unit").weights.tolist() == [1.0] * 4
    assert table.members.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
    assert table.neg_ids.tolist() == [[2], [2], [2]]
