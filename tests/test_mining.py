import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momine.graph
from momine.anchors import AnchorSet, select_anchors
from momine.diffusion import DiffusionConfig, solve_columns
from momine.errors import AllPoolsEmpty, BadAnchors, DimMismatch, LabelsMissing
from momine.features import FeatureSet, SyntheticSpec, generate_synthetic, l2_normalize
from momine.graph import build_reciprocal_graph, normalize_graph
from momine.mining import (
    ANCHOR_BLOCK,
    AnchorPools,
    MiningConfig,
    baseline_pools,
    build_training_pool,
    load_pools,
    oracle_pools,
    pool_table,
    sample_epoch_tuples,
    save_pools,
)

from helpers import (
    baseline_pools_reference,
    dense_oracle,
    knn_oracle,
    mine_pools,
    oracle_side_reference,
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
    if cfg.max_pos is not None:
        pos = pos[: cfg.max_pos]
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
    pools, _ = build_training_pool(anchors, fn, sym, dcfg, cfg)
    pos_hits, neg_hits = [], []
    for pool in pools:
        label = fs.labels[pool.anchor_id]
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
    assert [p.anchor_id for p in flagged[0]] == [p.anchor_id for p in healthy[0]]


def test_baseline_pools_contract():
    feats, graph, op = small_setup(n=30, seed=4)
    pools = baseline_pools(3, feats, k_base=5, seed=9, max_neg=10)
    expected = knn_oracle(feats.data, 5)[3]
    assert [j for j, _ in pools.positives] == expected
    again = baseline_pools(3, feats, k_base=5, seed=9, max_neg=10)
    assert pools.negatives == again.negatives
    other_anchor = baseline_pools(4, feats, k_base=5, seed=9, max_neg=10)
    assert pools.negatives != other_anchor.negatives
    neg_ids = {j for j, _ in pools.negatives}
    assert 3 not in neg_ids and not neg_ids & set(expected)
    neg_w = [w for _, w in pools.negatives]
    assert all(a >= b for a, b in zip(neg_w, neg_w[1:]))


def test_baseline_pools_exhausted_complement():
    rng = np.random.default_rng(5)
    feats = l2_normalize(FeatureSet(data=rng.normal(size=(6, 4))))
    pools = baseline_pools(0, feats, k_base=5, seed=1, max_neg=10)
    assert len(pools.positives) == 5
    assert pools.negatives == []


def test_oracle_pools_modes():
    fs, fn, graph, sym, anchors = clusters_setup(noise=0.8)
    cfg = MiningConfig(k_pos=30, k_neg=60, max_neg=15, hard_subset_size=5)
    base = mine_pools(int(anchors.anchor_ids[0]), fn, sym, DiffusionConfig(), cfg)
    pos = oracle_pools(base, fs.labels, "positive", fn, max_neg=15)
    anchor_label = fs.labels[base.anchor_id]
    assert all(fs.labels[j] == anchor_label for j, _ in pos.positives)
    assert pos.negatives == base.negatives
    neg = oracle_pools(base, fs.labels, "negative", fn, max_neg=15)
    assert all(fs.labels[j] != anchor_label for j, _ in neg.negatives)
    assert neg.positives == base.positives
    assert len(neg.negatives) <= 15
    with pytest.raises(LabelsMissing):
        oracle_pools(base, None, "positive", fn)
    with pytest.raises(ValueError):
        oracle_pools(base, fs.labels, "both", fn)


def test_oracle_positive_singleton_class_empty():
    rng = np.random.default_rng(6)
    feats = l2_normalize(FeatureSet(data=rng.normal(size=(8, 3))))
    labels = np.array([0, 1, 1, 1, 1, 1, 1, 1])
    base = AnchorPools(anchor_id=0, positives=[(1, 0.5)], negatives=[(2, 0.4)])
    out = oracle_pools(base, labels, "positive", feats)
    assert out.positives == []


def test_build_training_pool_union():
    feats, graph, op = small_setup(n=50, seed=7, k=7)
    stat = power_iteration(graph, max_iterations=50000)
    anchors = select_anchors(graph, stat.pi, 10)
    cfg = MiningConfig(k_pos=10, k_neg=15, max_neg=8, hard_subset_size=4)
    pools, items = build_training_pool(anchors, feats, op, DC, cfg)
    # oracle: recompute the union from the returned pools
    expected = set()
    for pool in pools:
        expected.add(pool.anchor_id)
        expected.update(j for j, _ in pool.positives)
        expected.update(j for j, _ in pool.negatives)
    assert set(items) == expected
    assert list(items) == sorted(items)


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
    table = pool_table(pools)
    first, skipped1 = sample_epoch_tuples(table, z, cfg, seed=123)
    second, _ = sample_epoch_tuples(table, z, cfg, seed=123)
    assert tuple_lists(first) == tuple_lists(second)
    third, _ = sample_epoch_tuples(table, z, cfg, seed=124)
    assert tuple_lists(first) != tuple_lists(third)
    for t in zip(*tuple_lists(first)[:3]):
        assert len(set(t)) == 3


def test_sample_epoch_tuples_hard_window():
    pool = AnchorPools(anchor_id=0, positives=[(1, 0.9)], negatives=[(2, 0.8), (3, 0.7), (4, 0.6)])
    z = np.zeros((5, 2))
    z[0] = [1.0, 0.0]
    z[2] = [0.0, 1.0]
    z[3] = [1.0, 0.0]  # collapsed onto the anchor: always the hardest
    z[4] = [0.0, -1.0]
    cfg = MiningConfig(k_pos=5, k_neg=5, max_neg=3, hard_subset_size=1)
    for seed in range(5):
        (_, _, negatives, _), _ = sample_epoch_tuples(pool_table([pool]), z, cfg, seed=seed)
        assert negatives[0] == 3
    # degenerate window: with the window as large as the pool every member
    # can be drawn
    cfg_all = MiningConfig(k_pos=5, k_neg=5, max_neg=3, hard_subset_size=3)
    seen = set()
    for seed in range(30):
        (_, _, negatives, _), _ = sample_epoch_tuples(pool_table([pool]), z, cfg_all, seed=seed)
        seen.add(int(negatives[0]))
    assert seen == {2, 3, 4}


def test_sample_epoch_tuples_skips_empty():
    full = AnchorPools(anchor_id=0, positives=[(1, 0.9)], negatives=[(2, 0.8)])
    empty = AnchorPools(anchor_id=3, positives=[], negatives=[(2, 0.8)])
    z = np.eye(4)
    cfg = MiningConfig(k_pos=3, k_neg=3, max_neg=2, hard_subset_size=1)
    tuples, skipped = sample_epoch_tuples(pool_table([full, empty]), z, cfg, seed=0)
    assert all(len(col) == 1 for col in tuples) and skipped == 1


def test_pools_jsonl_round_trip(tmp_path):
    feats, graph, op = small_setup(n=30, seed=10)
    cfg = MiningConfig(k_pos=8, k_neg=12, max_neg=6, hard_subset_size=3)
    pools = [mine_pools(a, feats, op, DC, cfg) for a in (0, 5, 9)]
    path = tmp_path / "pools.jsonl"
    save_pools(pools, path)
    for line in path.read_text().splitlines():
        json.loads(line)  # every line is valid JSON
    save_pools(pools, tmp_path / "again.jsonl")
    assert path.read_bytes() == (tmp_path / "again.jsonl").read_bytes()
    loaded = load_pools(path)
    for a, b in zip(pools, loaded):
        assert a.anchor_id == b.anchor_id
        assert [j for j, _ in a.positives] == [j for j, _ in b.positives]
        assert [j for j, _ in a.negatives] == [j for j, _ in b.negatives]
        for (_, wa), (_, wb) in zip(a.positives + a.negatives, b.positives + b.negatives):
            assert wb == pytest.approx(wa, rel=1e-8)


IDS = st.integers(0, 2**63 - 1)
# -0.0 included: it must be written as 0, or json reads it back as an int
SIDES = st.lists(st.tuples(IDS, st.floats(-0.0, allow_infinity=False)), max_size=8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.builds(AnchorPools, IDS, SIDES, SIDES), min_size=1, max_size=5))
def test_pools_file_round_trip_property(tmp_path_factory, pools):
    path = tmp_path_factory.mktemp("pools") / "pools.jsonl"
    save_pools(pools, path)
    first = path.read_bytes()
    loaded = load_pools(path)
    save_pools(loaded, path)
    assert path.read_bytes() == first
    for a, b in zip(pools, loaded, strict=True):
        assert b.anchor_id == a.anchor_id
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
    (25, 8, None), (8, 25, None), (12, 12, 5), (80, 200, None),
])
def test_one_ranking_pools_match_two_rankings(k_pos, k_neg, max_pos):
    cfg = MiningConfig(k_pos=k_pos, k_neg=k_neg, max_pos=max_pos, max_neg=10, hard_subset_size=3)
    for feats, graph, op in (small_setup(n=60, seed=15), duplicated_setup()):
        for column in solve_columns(op, np.arange(feats.n), DC):
            expected = pools_two_rankings(column, feats, cfg)
            assert mine_pools(column.anchor_index, feats, op, DC, cfg) == expected


def test_build_training_pool_blocks_match_single_solves():
    feats, graph, op = small_setup(n=150, seed=16, k=6)
    cfg = MiningConfig(k_pos=12, k_neg=30, max_neg=10, hard_subset_size=4)
    ids = np.arange(149, -1, -1)  # 150 anchors: 64 does not divide them
    pools, _ = build_training_pool(AnchorSet(ids, np.zeros(150)), feats, op, DC, cfg)
    expected = [pools_two_rankings(solve_column_reference(op, int(a), DC), feats, cfg) for a in ids]
    assert pools == [p for p in expected if p.positives or p.negatives]


def test_build_training_pool_is_the_same_at_every_worker_count(monkeypatch):
    feats, graph, op = small_setup(n=150, seed=16, k=6)
    cfg = MiningConfig(k_pos=12, k_neg=30, max_neg=10, hard_subset_size=4)
    # 150 anchors take blocks of 64, 64 and 50; 45 take 45, 23 and 15
    for ids in (np.arange(149, -1, -1), np.arange(0, 135, 3)):
        anchors = AnchorSet(ids, np.zeros(ids.size))
        first = None
        for workers in (1, 2, 3):
            monkeypatch.setattr(momine.graph, "WORKERS", workers)
            got = build_training_pool(anchors, feats, op, DC, cfg)
            first = first or got
            assert got[0] == first[0] and np.array_equal(got[1], first[1]), workers


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


def test_build_training_pool_checks_anchor_ids_and_sizes():
    feats, graph, op = small_setup(n=30, seed=17)
    cfg = MiningConfig(k_pos=8, k_neg=12, max_neg=6, hard_subset_size=3)
    for bad in ([0, -3], [30], [29, 500]):
        anchors = AnchorSet(np.asarray(bad), np.zeros(len(bad)))
        with pytest.raises(BadAnchors):
            build_training_pool(anchors, feats, op, DC, cfg)
    with pytest.raises(BadAnchors):
        baseline_pools(-3, feats)
    other = FeatureSet(data=feats.data[:20])
    with pytest.raises(DimMismatch):
        build_training_pool(AnchorSet(np.asarray([0]), np.zeros(1)), other, op, DC, cfg)


def test_sample_epoch_tuples_matches_per_pool_loop():
    feats, graph, op = small_setup(n=60, seed=13)
    cfg = MiningConfig(k_pos=10, k_neg=25, max_neg=12, hard_subset_size=6)
    pools = [mine_pools(a, feats, op, DC, cfg) for a in range(60)] * 2
    pools[3:3] = [
        AnchorPools(5, [], [(1, 0.5)]),  # empty pools are skipped
        AnchorPools(6, [(2, 0.3)], []),
        AnchorPools(7, [(3, 0.2)], [(9, 0.1), (8, 0.05)]),  # fewer negatives than the window
    ]
    assert any(0 < len(p.negatives) < cfg.hard_subset_size for p in pools)
    assert len(pools) > ANCHOR_BLOCK  # the distances span two blocks
    # a coarse integer grid with repeated rows: many exact distance ties
    z = np.random.default_rng(14).integers(0, 3, size=(60, 4)).astype(np.float64)
    z[30:] = z[:30]
    table = pool_table(pools)
    for seed in range(30):
        got, skipped = sample_epoch_tuples(table, z, cfg, seed=[seed, 2, 5])
        assert (tuple_lists(got), skipped) == sample_epoch_tuples_reference(pools, z, cfg, [seed, 2, 5])
        assert skipped >= 2
    got, skipped = sample_epoch_tuples(pool_table(pools[3:5]), z, cfg, seed=0)
    assert (tuple_lists(got), skipped) == (([], [], [], []), 2)


def test_baseline_and_oracle_pools_match_lexsort_references():
    for feats, graph, op in (small_setup(n=60, seed=15), duplicated_setup()):
        labels = np.arange(feats.n) % 3
        for anchor in range(0, feats.n, 7):
            for k_base, max_neg in ((5, 10), (3, 200), (200, 10)):
                got = baseline_pools(anchor, feats, k_base=k_base, seed=4, max_neg=max_neg)
                assert got == baseline_pools_reference(anchor, feats, k_base, 4, max_neg)
            base = AnchorPools(anchor, [(1, 0.5)], [(2, 0.4)])
            for max_pos in (None, 4):
                pos = oracle_pools(base, labels, "positive", feats, max_pos=max_pos)
                assert pos.positives == oracle_side_reference(anchor, feats, labels, True, max_pos)
                assert pos.negatives == base.negatives
            neg = oracle_pools(base, labels, "negative", feats, max_neg=9)
            assert neg.negatives == oracle_side_reference(anchor, feats, labels, False, 9)
            assert neg.positives == base.positives


@pytest.mark.parametrize("k_pos,k_neg,max_pos", [(12, 30, 4), (500, 20, None), (9, 500, None)])
def test_block_pools_match_two_rankings_with_isolated_anchors(k_pos, k_neg, max_pos):
    # a sparse reciprocal graph leaves isolated nodes; k above n - 1 is clamped
    feats, graph, op = small_setup(n=90, seed=21, k=2)
    assert (graph.degrees == 0).sum() >= 3
    cfg = MiningConfig(k_pos=k_pos, k_neg=k_neg, max_pos=max_pos, max_neg=10, hard_subset_size=3)
    ids = np.arange(feats.n)  # one full block of 64 and a partial one
    pools, items = build_training_pool(AnchorSet(ids, np.zeros(feats.n)), feats, op, DC, cfg)
    expected = [pools_two_rankings(solve_column_reference(op, int(a), DC), feats, cfg) for a in ids]
    assert pools == [p for p in expected if p.positives or p.negatives]
    isolated = set(np.flatnonzero(graph.degrees == 0).tolist())
    assert isolated & {p.anchor_id for p in pools}
    assert items.tolist() == sorted({p.anchor_id for p in pools} | {
        j for p in pools for j, _ in p.positives + p.negatives})


def test_pool_table_per_anchor_max_spans_every_pool_of_the_anchor():
    pools = [
        AnchorPools(0, [(1, 0.9)], [(2, 0.5)]),
        AnchorPools(4, [(5, 0.0)], [(2, 0.5)]),  # a zero maximum trains at weight 0
        AnchorPools(0, [(3, 0.3), (6, 0.45)], [(2, 0.5)]),
        AnchorPools(0, [(7, 1.8)], []),  # skipped, but its positive still counts
    ]
    table = pool_table(pools, "per-anchor-max")
    assert table.weights.tolist() == [0.5, 0.0, 0.3 / 1.8, 0.45 / 1.8]
    assert table.anchors.tolist() == [0, 4, 0] and table.skipped == 1
    assert pool_table(pools, "none").weights.tolist() == [0.9, 0.0, 0.3, 0.45]
    assert pool_table(pools, "unit").weights.tolist() == [1.0] * 4
    assert table.members.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
    assert table.neg_ids.tolist() == [[2], [2], [2]]
