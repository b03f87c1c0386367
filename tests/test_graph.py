import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import momine.graph
from momine.errors import BadGraph, BadMagic, KTooLarge
from momine.features import FeatureSet, SyntheticSpec, generate_synthetic, l2_normalize
from momine.graph import (
    _SAMPLE_SPREAD,
    BLOCK_ROWS,
    EDGE_CHUNK,
    _run_blocks,
    build_reciprocal_graph,
    components,
    knn_search,
    similarity,
    load_graph,
    normalize_graph,
    save_graph,
    top_k,
)

from helpers import (
    components_reference,
    disjoint_union,
    graph_from_edges,
    knn_oracle,
    lexsort_top_k,
    pair_dot_knn_oracle,
    random_graph,
    reciprocal_graph_reference,
    save_graph_reference,
)


def unit_rows(rows):
    arr = np.asarray(rows, dtype=float)
    return FeatureSet(data=arr / np.linalg.norm(arr, axis=1, keepdims=True))


def on_circle(angles_deg):
    t = np.deg2rad(np.asarray(angles_deg, dtype=float))
    return FeatureSet(data=np.column_stack([np.cos(t), np.sin(t)]))


def test_similarity_self_is_one():
    v = np.array([0.6, 0.8])
    assert similarity(np.dot(v, v)) == pytest.approx(1.0)


def test_similarity_orthogonal_clipped():
    assert similarity(np.dot(np.array([1.0, 0.0]), np.array([0.0, 1.0]))) == 0.0
    assert similarity(np.dot(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))) == 0.0


def test_similarity_cube():
    a = np.array([1.0, 0.0])
    b = np.array([0.5, np.sqrt(3) / 2])
    assert similarity(np.dot(a, b)) == pytest.approx(0.125)


def test_knn_monotone_in_angle():
    feats = on_circle([0, 10, 80])
    nbrs = knn_search(feats, 1)
    assert nbrs[0, 0] == 1


def test_knn_duplicate_points_tie():
    v = np.array([1.0, 0.0])
    u = np.array([0.0, 1.0])
    feats = FeatureSet(data=np.vstack([v, v, u]))
    nbrs = knn_search(feats, 2)
    assert list(nbrs[0]) == [1, 2]


@pytest.mark.parametrize("n,k", [(50, 5), (200, 9)])
def test_knn_matches_exhaustive_oracle(n, k):
    rng = np.random.default_rng(10 + n)
    feats = l2_normalize(FeatureSet(data=rng.normal(size=(n, 8))))
    nbrs = knn_search(feats, k)
    expected = knn_oracle(feats.data, k)
    for i in range(n):
        assert list(nbrs[i]) == expected[i]


# few distinct values, so ties straddle the k-th boundary
TIED_SCORES = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, np.nan])
SCORES = st.one_of(TIED_SCORES, st.floats(-2.0, 2.0))
DERANDOMIZED = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def score_blocks(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 40))
    rows = draw(st.lists(st.lists(SCORES, min_size=n, max_size=n), min_size=m, max_size=m))
    k = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n)))
    return np.array(rows), k


@DERANDOMIZED
@given(score_blocks())
def test_top_k_matches_lexsort(case):
    scores, k = case
    assert np.array_equal(top_k(scores, k), lexsort_top_k(scores, k))
    assert np.array_equal(top_k(scores[0], k), lexsort_top_k(scores[0], k))


# top_k and knn_search bound a row by the maxima of B = max(k, min(8k, n // 4))
# residue classes of its columns; B reaches 8k at n / k = 32
SAMPLED_FROM = 4 * _SAMPLE_SPREAD  # the n / k where B stops growing with n


def classes(n, k):
    return max(k, min(_SAMPLE_SPREAD * k, n // 4))


# a few values per row, so ties fall on columns in and out of the classes and
# the bound is often the k-th value itself; plus distinct negatives
PALETTE_SCORES = st.one_of(TIED_SCORES, st.floats(-2.0, 0.0, exclude_max=True))


@st.composite
def sampled_blocks(draw):
    """Blocks just below and just above the n / k where the class count
    reaches 8k, and up to five times beyond; each row draws its entries from
    its own palette."""
    k = draw(st.integers(1, 6))
    n = draw(st.one_of(
        st.integers(SAMPLED_FROM * k - 4, SAMPLED_FROM * k + 4),
        st.integers(4 * k, 5 * SAMPLED_FROM * k),
    ))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        palette = draw(st.lists(PALETTE_SCORES, min_size=1, max_size=8))
        rows.append(draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n)))
    return np.array(rows, dtype=float), k


@DERANDOMIZED
@given(sampled_blocks())
def test_top_k_matches_lexsort_around_the_sampled_bound(case):
    scores, k = case
    assert np.array_equal(top_k(scores, k), lexsort_top_k(scores, k))
    assert np.array_equal(top_k(scores[0], k), lexsort_top_k(scores[0], k))


@pytest.fixture
def full_sorts(monkeypatch):
    """The blocks that top_k hands to _top_k_sorted, in call order."""
    calls = []

    def spy(block, k):
        calls.append(block.copy())
        return sorted_rows(block, k)

    sorted_rows = momine.graph._top_k_sorted
    monkeypatch.setattr(momine.graph, "_top_k_sorted", spy)
    return calls


def test_top_k_sampled_bound_edge_cases(full_sorts):
    k, n = 4, 200
    assert classes(n, k) == 32  # columns 192-199 are in no class
    rng = np.random.default_rng(5)
    rows = np.tile(rng.random(n) * 0.4, (8, 1))
    # 0.5 on six classes straddles the k-th rank, and the 1.0 in column
    # 101 shares column 5's class
    rows[0, 1:7] = 0.5
    rows[0, 101] = 1.0
    # a tie at the bound 0.5 between column 10 and column 195, in no class
    rows[1, [0, 1, 2, 10, 195]] = [0.9, 0.9, 0.9, 0.5, 0.5]
    # a column in no class above the bound
    rows[2, [195, 3, 4, 5, 6]] = [1.0, 0.5, 0.5, 0.5, 0.5]
    # a bound of +-0: every signed zero is a candidate, and zeros tie
    rows[3] = np.where(np.arange(n) % 2, -0.0, 0.0)
    rows[3, [7, 9, 150]] = [0.3, 0.2, 0.3]
    # negatives with four signed zeros, and a -0.0 in no class tied with them
    rows[4] = -0.5 - rows[4]
    rows[4, [3, 40, 77, 100, 197]] = [-0.0, 0.0, -0.0, 0.0, -0.0]
    # negatives only, ranked in a block padded past their candidates
    rows[5] = -0.5 - rows[5]
    # two NaN class maxima leave candidates 5 and 6 alone: the one short row
    rows[6, [0, 1, 5, 6]] = [np.nan, np.nan, 0.9, 0.8]
    # one NaN class maximum and four 0.9s: k candidates, not short
    rows[7, [0, 5, 6, 7, 8]] = [np.nan, 0.9, 0.9, 0.9, 0.9]
    for block in (rows, rows.astype(np.float32)):
        full_sorts.clear()
        ranked = top_k(block, k)
        assert np.array_equal(ranked, lexsort_top_k(block, k))
        assert ranked[:5].tolist() == [
            [101, 1, 2, 3], [0, 1, 2, 10], [195, 3, 4, 5], [7, 150, 9, 0], [3, 40, 77, 100]]
        assert ranked[6, :2].tolist() == [5, 6] and ranked[7].tolist() == [5, 6, 7, 8]
        # the candidates of every row, then the whole of the short row alone
        assert [b.shape[0] for b in full_sorts] == [8, 1]
        assert np.array_equal(full_sorts[1], block[6:7], equal_nan=True)
        for row in block:
            assert np.array_equal(top_k(row, k), lexsort_top_k(row, k))


def test_top_k_nan_ranks_last():
    scores = np.array([[0.5, np.nan, 1.0, 0.5, np.nan, 0.0, 0.2, 0.1]])
    for k in (1, 3, 4, 8):
        assert np.array_equal(top_k(scores, k), lexsort_top_k(scores, k))


def full_sort_rows(n, seed):
    """One row per tie pattern the full sort must repair, plus untied rows."""
    rng = np.random.default_rng(seed)
    return {
        "all_equal": np.full(n, 0.5),
        "all_nan": np.full(n, np.nan),
        "signed_zeros": np.where(rng.random(n) < 0.5, -0.0, 0.0),
        "signed_zeros_and_nan": rng.choice([-0.0, 0.0, np.nan, 1.0], n),
        "neg_inf_runs": rng.choice([-np.inf, -1.0, 2.0], n),
        "coarse": np.round(rng.normal(size=n), 1),
        "untied": rng.normal(size=n),
        "untied_with_one_nan": np.where(np.arange(n) == n // 3, np.nan, rng.normal(size=n)),
    }


FULL_SORT_N = 97


# every k here is above n/4, so the full-sort branch runs
@pytest.mark.parametrize("k", [FULL_SORT_N // 4 + 1, FULL_SORT_N // 2, FULL_SORT_N - 1, FULL_SORT_N])
def test_top_k_full_sort_repairs_every_tie_run(k):
    n = FULL_SORT_N
    rows = full_sort_rows(n, seed=3)
    for name, row in rows.items():
        assert np.array_equal(top_k(row, k), lexsort_top_k(row, k)), name
    # tied and untied rows mixed in one block, and a block with no ties at all
    mixed = np.array(list(rows.values()))
    assert np.array_equal(top_k(mixed, k), lexsort_top_k(mixed, k))
    untied = np.random.default_rng(4).normal(size=(5, n))
    assert np.array_equal(top_k(untied, k), lexsort_top_k(untied, k))


def test_top_k_k_out_of_range():
    with pytest.raises(KTooLarge):
        top_k(np.zeros(3), 0)
    with pytest.raises(KTooLarge):
        top_k(np.zeros(3), 4)


@pytest.mark.parametrize("n", [BLOCK_ROWS // 2, 2 * BLOCK_ROWS + 37])
def test_knn_matches_full_lexsort_on_exact_ties(n):
    # small-integer rows make every product exact, so duplicated and
    # equal-similarity rows tie exactly, within and across row blocks
    rng = np.random.default_rng(n)
    base = rng.integers(-1, 3, size=(n // 3, 4)).astype(float)
    feats = FeatureSet(data=base[rng.integers(0, base.shape[0], size=n)])
    nbrs = knn_search(feats, 12)
    s = np.clip(feats.data @ feats.data.T, 0.0, None) ** 3
    np.fill_diagonal(s, -np.inf)
    assert np.array_equal(nbrs, lexsort_top_k(s, 12))


def sampled_knn_features(seed):
    """n = 2 * BLOCK_ROWS + 37 small-integer rows, so every dot product is
    exact. Coordinates 0-3 repeat 40 random rows all over the blocks, so
    duplicates tie across blocks. Coordinate 4 gives row 0 three positive
    dots (rows 35-37) and distinct negative dots (rows 1-34); all its other
    dots are 0, so the negatives tie with them at 0 once clipped."""
    rng = np.random.default_rng(seed)
    n = 2 * BLOCK_ROWS + 37
    base = rng.integers(-1, 4, size=(40, 4)).astype(float)
    data = np.zeros((n, 5))
    data[1:, :4] = base[rng.integers(0, 40, size=n - 1)]
    data[0, 4] = -1.0
    data[1:35, 4] = np.arange(1, 35)
    data[35:38, 4] = [-2.0, -1.0, -2.0]
    data[1:38, :4] = 0.0
    return FeatureSet(data=data)


@pytest.mark.parametrize("k", [5, 12, 17])
def test_knn_sampled_path_matches_lexsort(k):
    n = 2 * BLOCK_ROWS + 37
    assert classes(n, k) > k  # more classes than neighbours bound each row
    feats = sampled_knn_features(seed=k)
    s = np.clip(feats.data @ feats.data.T, 0.0, None) ** 3
    np.fill_diagonal(s, -np.inf)
    nbrs = knn_search(feats, k)
    assert np.array_equal(nbrs, lexsort_top_k(s, k))
    # row 0: its positives, then the lowest ids of the clipped ties
    assert nbrs[0].tolist() == [35, 37, 36] + list(range(1, k - 2))


def test_knn_k_too_large():
    feats = on_circle([0, 10, 80])
    with pytest.raises(KTooLarge):
        knn_search(feats, 3)


def test_reciprocal_edge_for_mutual_pair():
    feats = on_circle([0, 5, 90])
    g = build_reciprocal_graph(feats, 1)
    w = similarity(np.dot(feats.data[0], feats.data[1]))
    assert g.adjacency[0, 1] == pytest.approx(w)
    assert g.adjacency[1, 0] == g.adjacency[0, 1]
    assert g.adjacency[0, 2] == 0.0


def test_non_reciprocated_neighbor_gets_no_edge():
    # node 2 lists node 1 as its top-1, but node 1's top-1 is node 0
    feats = on_circle([0, 5, 30])
    g = build_reciprocal_graph(feats, 1)
    assert g.adjacency[1, 2] == 0.0 and g.adjacency[2, 1] == 0.0
    assert g.adjacency[0, 1] > 0.0
    assert g.degrees[2] == 0.0  # left isolated, not dropped


def test_graph_exactly_symmetric_zero_diagonal():
    spec = SyntheticSpec(kind="moons", per_class=60, classes=2, ambient_dim=6, noise=0.15)
    feats = l2_normalize(generate_synthetic(spec, 12))
    g = build_reciprocal_graph(feats, 7)
    diff = (g.adjacency - g.adjacency.T).tocoo()
    assert diff.nnz == 0
    assert g.adjacency.diagonal().sum() == 0.0
    # row budget: at most k stored entries per row
    assert np.all(np.diff(g.adjacency.indptr) <= 7)
    assert np.all(g.adjacency.data > 0)


def paired_features(edges, seed):
    """Inputs whose reciprocal graph at k = 1 has exactly `edges` edges: that
    many random 64-d directions, each taken twice with a little noise, so an
    item's only mutual neighbour is its twin. With no edges: three unit
    vectors 120 degrees apart, whose one mutual pair has similarity 0."""
    if edges == 0:
        return on_circle([0, 120, 240])
    rng = np.random.default_rng(seed)
    data = np.repeat(rng.normal(size=(edges, 64)), 2, axis=0)
    return l2_normalize(FeatureSet(data=data + 0.01 * rng.normal(size=data.shape)))


def assert_same_graph(g, ref):
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(g.adjacency, name), getattr(ref.adjacency, name))
    assert np.array_equal(g.adjacency.data.view(np.int64), ref.adjacency.data.view(np.int64))
    assert np.array_equal(g.degrees.view(np.int64), ref.degrees.view(np.int64))


@pytest.mark.parametrize("edges", [0, 1, EDGE_CHUNK, EDGE_CHUNK + 1])
def test_reciprocal_graph_weights_match_one_shot_einsum(edges):
    feats = paired_features(edges, seed=edges)
    g = build_reciprocal_graph(feats, 1)
    assert g.adjacency.nnz == 2 * edges
    assert_same_graph(g, reciprocal_graph_reference(feats, 1))


def test_reciprocal_graph_matches_one_shot_einsum_over_several_chunks():
    spec = SyntheticSpec(kind="moons", per_class=400, classes=2, ambient_dim=16, noise=0.15)
    feats = l2_normalize(generate_synthetic(spec, 4))
    g = build_reciprocal_graph(feats, 12)
    assert g.adjacency.nnz // 2 > 2 * EDGE_CHUNK and g.adjacency.nnz // 2 % EDGE_CHUNK
    assert_same_graph(g, reciprocal_graph_reference(feats, 12))


def test_reciprocal_graph_peak_memory_stays_below_one_edge_gather(monkeypatch):
    # at d = 256 one gather of every edge's endpoints is several times the
    # (BLOCK_ROWS, n) rows of knn_search's blocks; weighing the edges in
    # chunks keeps the whole build below that one gather, with one worker or two
    spec = SyntheticSpec(kind="moons", per_class=1000, classes=2, ambient_dim=256, noise=0.15)
    feats = l2_normalize(generate_synthetic(spec, 3))
    for workers in (1, 2):
        monkeypatch.setattr(momine.graph, "WORKERS", workers)
        tracemalloc.start()
        try:
            g = build_reciprocal_graph(feats, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gather = g.adjacency.nnz // 2 * feats.d * feats.data.itemsize
        assert gather > 4 * BLOCK_ROWS * feats.n * feats.data.itemsize
        assert peak < gather, workers


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_blocks_gives_each_worker_its_blocks_in_order(monkeypatch, workers):
    monkeypatch.setattr(momine.graph, "WORKERS", workers)
    grid = [(0, 3), (3, 6), (6, 9), (9, 12), (12, 15), (15, 18), (18, 20)]
    seen = []
    _run_blocks(20, 3, lambda spans: seen.append(list(spans)))
    assert sorted(seen) == [grid[w::workers] for w in range(workers)]
    seen.clear()
    _run_blocks(3, 3, lambda spans: seen.append(list(spans)))  # one block: the caller alone
    assert seen == [[(0, 3)]]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_blocks_balances_only_when_asked(monkeypatch, workers):
    monkeypatch.setattr(momine.graph, "WORKERS", workers)
    seen = []
    _run_blocks(7, 64, lambda spans: seen.extend(spans), balance=True)
    size = -(-7 // workers)
    assert sorted(seen) == [(s, min(s + size, 7)) for s in range(0, 7, size)]
    seen.clear()
    _run_blocks(7, 64, lambda spans: seen.extend(spans))
    assert seen == [(0, 7)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_blocks_balanced_takes_the_fewest_blocks_a_multiple_of_the_workers(
    monkeypatch, workers
):
    monkeypatch.setattr(momine.graph, "WORKERS", workers)
    for count, size in itertools.product(range(130), (1, 2, 3, 5, 13, 64)):
        seen = []
        _run_blocks(count, size, lambda spans: seen.extend(spans), balance=True)
        seen.sort()
        assert [i for start, stop in seen for i in range(start, stop)] == list(range(count))
        assert all(0 < stop - start <= size for start, stop in seen)
        fewest = -(-count // (size * workers)) * workers
        rows = -(-count // fewest) if count else 1
        assert [start for start, _ in seen] == list(range(0, count, rows))
        # blocks of ceil(count / fewest) items fill all fewest blocks once
        # they hold as many items as there are blocks; 4 items on 3 workers
        # take 2 blocks of 2
        assert len(seen) == fewest if count > fewest * (fewest - 1) else len(seen) <= fewest
    # (count, size): (blocks, rows) at this worker count
    grids = {
        (43, 13): {1: (4, 11), 2: (4, 11), 3: (6, 8)},
        (792, 64): {1: (13, 61), 2: (14, 57), 3: (15, 53)},
        (200, 32): {1: (7, 29), 2: (8, 25), 3: (9, 23)},
        (7, 64): {1: (1, 7), 2: (2, 4), 3: (3, 3)},
    }
    for (count, size), by_workers in grids.items():
        seen = []
        _run_blocks(count, size, lambda spans: seen.extend(spans), balance=True)
        assert (len(seen), max(stop - start for start, stop in seen)) == by_workers[workers]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_blocks_raises_the_lowest_failing_block(monkeypatch, workers):
    monkeypatch.setattr(momine.graph, "WORKERS", workers)
    failing = (1, 3)
    ran = []

    def work(spans):
        for start, _ in spans:
            if start in failing:
                raise ValueError(f"block {start}")
            ran.append(start)

    with pytest.raises(ValueError, match="^block 1$"):
        _run_blocks(6, 1, work)
    # each worker stops at its own first failure, and the runner waits for all
    expected = [b for w in range(workers)
                for b in itertools.takewhile(lambda b: b not in failing, range(w, 6, workers))]
    assert sorted(ran) == sorted(expected)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_blocks_keeps_the_callers_errstate(monkeypatch, workers):
    monkeypatch.setattr(momine.graph, "WORKERS", workers)
    out = np.zeros(6)

    def work(spans):
        for start, stop in spans:
            out[start:stop] = np.divide(np.zeros(stop - start), 0.0)  # invalid: 0 / 0

    with np.errstate(invalid="ignore"):
        _run_blocks(6, 1, work)
    assert np.isnan(out).all()
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        _run_blocks(6, 1, work)


def test_run_blocks_loses_no_block_with_more_workers_than_cpus(monkeypatch):
    # eight workers switching every microsecond: every block runs once, and
    # knn_search ranks the one-worker GEMM blocks byte for byte and writes
    # the one-worker neighbours. n = 700 is not a multiple of 8, where a GEMM
    # of another row count would round the last columns' products differently
    feats = l2_normalize(FeatureSet(data=np.random.default_rng(8).normal(size=(700, 6))))
    ranked = []

    def spy(scores, k):
        ranked.append(scores.tobytes())
        return top_k(scores, k)

    monkeypatch.setattr(momine.graph, "top_k", spy)
    monkeypatch.setattr(momine.graph, "WORKERS", 1)
    expected = knn_search(feats, 9)
    blocks = sorted(ranked)
    ranked.clear()
    monkeypatch.setattr(momine.graph, "WORKERS", 8)
    runs = np.zeros(500, dtype=np.int64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(spans):
            for start, stop in spans:
                runs[start:stop] += 1

        _run_blocks(runs.size, 1, work)
        got = knn_search(feats, 9)
    finally:
        sys.setswitchinterval(interval)
    assert (runs == 1).all()
    assert np.array_equal(got, expected)
    assert sorted(ranked) == blocks


def test_knn_search_is_the_same_at_every_worker_count(monkeypatch):
    # moons in the first 8 of 10 dimensions, plus a few items along the last
    # two axes: their dots with everything else are 0, so they take the
    # clipped path; several blocks at every worker count
    spec = SyntheticSpec(kind="moons", per_class=BLOCK_ROWS + 10, classes=2, ambient_dim=8, noise=0.15)
    moons = generate_synthetic(spec, 5).data
    axes = np.zeros((17, 10))
    axes[::2, 8] = axes[1::2, 9] = 1.0
    data = np.vstack([np.hstack([moons, np.zeros((moons.shape[0], 2))]), axes])
    feats = l2_normalize(FeatureSet(data=data))
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(momine.graph, "WORKERS", workers)
        runs.append(knn_search(feats, 10))
    nbrs, *others = runs
    for other in others:
        assert np.array_equal(other, nbrs)
    kth = np.einsum("ij,ij->i", feats.data[-17:], feats.data[nbrs[-17:, -1]])
    assert (similarity(kth) == 0).all()


def test_normalize_two_node_unit_edge():
    g = graph_from_edges(2, 1, [(0, 1, 1.0)])
    sym = normalize_graph(g)
    assert np.allclose(sym.matrix.toarray(), [[0, 1], [1, 0]])


def test_normalize_row_sums_and_symmetry():
    g = random_graph(40, seed=13)
    sym = normalize_graph(g)
    # oracle: D^-1/2 A D^-1/2 d^1/2 = D^-1/2 A 1 = d^1/2, the row sums of A
    root = np.sqrt(g.degrees)
    assert np.max(np.abs(sym.matrix @ root - root)) < 1e-12
    m = sym.matrix.toarray()
    assert np.max(np.abs(m - m.T)) < 1e-12


def normalize_graph_coo_rebuild(graph):
    """D^-1/2 A D^-1/2 rebuilt from the adjacency's COO entries, as a
    reference for normalize_graph's in-place scaling of the CSR."""
    d = graph.degrees
    inv = np.zeros_like(d)
    inv[d > 0] = 1.0 / np.sqrt(d[d > 0])
    coo = graph.adjacency.tocoo()
    vals = coo.data * inv[coo.row] * inv[coo.col]
    return sp.csr_matrix((vals, (coo.row, coo.col)), shape=(graph.n, graph.n))


def test_normalize_equals_the_coo_rebuild_bit_for_bit():
    # nodes 0 and 1 hold degrees near 1e300, so their 1e-300 edge scales to
    # an explicit zero, which both forms keep
    extreme = graph_from_edges(6, 2, [(0, 1, 1e-300), (0, 2, 1e300), (1, 3, 1e300), (4, 5, 1e-300)])
    graphs = [extreme, graph_from_edges(3, 1, [])]
    graphs += [disjoint_union(random_graph(30, seed=seed), random_graph(7, seed=seed + 50),
                              isolated=seed) for seed in range(5)]
    for g in graphs:
        got, expected = normalize_graph(g).matrix, normalize_graph_coo_rebuild(g)
        assert got.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    scaled = normalize_graph(extreme).matrix
    assert scaled[0, 1] == 0.0 and scaled.nnz == 8


def test_normalize_reports_isolated():
    g = graph_from_edges(4, 1, [(0, 1, 1.0)])
    op = normalize_graph(g)
    assert np.asarray(op.matrix.sum(axis=1)).ravel()[2] == 0.0


def test_symmetric_operator_spectral_radius_at_most_one():
    rng = np.random.default_rng(14)
    for seed in range(3):
        g = random_graph(60, seed=seed)
        sym = normalize_graph(g)
        v = rng.normal(size=60)
        prev = np.linalg.norm(v)
        for _ in range(50):
            v = sym.matrix @ v
            cur = np.linalg.norm(v)
            assert cur <= prev * (1.0 + 1e-9)
            prev = cur
            if cur == 0.0:
                break


def test_graph_file_round_trip(tmp_path):
    g = random_graph(25, seed=15)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    first = path.read_text()
    assert first.startswith("MOMG 25 25\n")
    loaded = load_graph(path)
    assert loaded.n == g.n and loaded.k == g.k
    save_graph(loaded, path)
    assert path.read_text() == first
    # weights survive at 9 significant digits
    assert np.max(np.abs((loaded.adjacency - g.adjacency).toarray())) < 1e-8


POSITIVE_WEIGHTS = st.floats(0.0, exclude_min=True, allow_infinity=False)


def degree_overflows(n, edges):
    """Whether the exact sum of some node's edge weights is past the double range."""
    weights = [[] for _ in range(n)]
    for i, j, w in edges:
        weights[i].append(w)
        weights[j].append(w)
    try:
        return not all(math.isfinite(math.fsum(ws)) for ws in weights)
    except OverflowError:
        return True


@st.composite
def edge_lists(draw):
    """(n, k, [(i, j, w), ...]) with i < j < n, each pair once, w finite and > 0."""
    n = draw(st.integers(1, 30))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    edges = draw(st.lists(pairs, max_size=60, unique=True)) if n > 1 else []
    weights = draw(st.lists(POSITIVE_WEIGHTS, min_size=len(edges), max_size=len(edges)))
    return n, draw(st.integers(1, 40)), [(i, j, w) for (i, j), w in zip(edges, weights)]


@DERANDOMIZED
@given(edge_lists())
def test_graph_file_round_trip_property(tmp_path_factory, case):
    n, k, edges = case
    if degree_overflows(n, edges):
        with pytest.raises(BadGraph, match="degree that is not finite"):
            graph_from_edges(n, k, edges)
        return
    path = tmp_path_factory.mktemp("graph") / "g.txt"
    save_graph(graph_from_edges(n, k, edges), path)
    first = path.read_bytes()
    loaded = load_graph(path)
    save_graph(loaded, path)
    assert path.read_bytes() == first
    assert (loaded.n, loaded.k, loaded.adjacency.nnz) == (n, k, 2 * len(edges))
    for i, j, w in edges:
        assert loaded.adjacency[i, j] == loaded.adjacency[j, i] == float(f"{w:.9g}")


def test_graph_file_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("NOPE 3 2\n0 1 0.5\n")
    with pytest.raises(BadMagic):
        load_graph(path)


def exact_gram_features(seed):
    """Rows that share at most one nonzero coordinate, so every dot product is
    one rounded product and the Gram matrix is the same bits however a GEMM
    blocks it. Coordinate 0 holds duplicated hubs (1, 0, 0) and items whose
    hub dots are the chosen values: one-ulp neighbours (around 1e-100 too),
    values in (1e-110, 1e-100) whose cubes tie at zero or in the subnormals,
    zeros and negatives. Coordinates 1 and 2 hold groups with fewer than k
    positive dots, so most of their scores are tied zeros. n = 2 * BLOCK_ROWS
    + 37, shuffled so duplicates fall in different blocks."""
    rng = np.random.default_rng(seed)
    near = [0.5, 0.3, 0.75, 1e-100]
    hub_dots = (
        near
        + [np.nextafter(v, 1.0) for v in near]
        + [np.nextafter(v, 0.0) for v in near]
        + list(np.geomspace(1e-110, 1e-100, 40))
        + [0.0] * 5
        + list(-rng.random(10))
    )
    n = 2 * BLOCK_ROWS + 37
    first = np.zeros((len(hub_dots) + 4, 3))
    first[:4, 0] = 1.0  # four duplicated hubs
    first[4:, 0] = hub_dots
    second = np.zeros((n - first.shape[0] - 6, 3))
    second[:, 1] = rng.choice([0.25, 0.5, 0.5, 1.0, -0.5], size=second.shape[0])
    third = np.zeros((6, 3))
    third[:, 2] = 1.0  # six duplicated rows with five positive dots each
    data = np.vstack([first, second, third])[rng.permutation(n)]
    return FeatureSet(data=data)


@pytest.mark.parametrize("k", [1, 5, 12, 23, 40, 2 * BLOCK_ROWS + 36])
def test_knn_equals_lexsort_on_cubed_clipped_gram(k):
    feats = exact_gram_features(seed=k)
    s = np.clip(feats.data @ feats.data.T, 0.0, None) ** 3
    np.fill_diagonal(s, -np.inf)
    assert np.array_equal(knn_search(feats, k), lexsort_top_k(s, k))


def test_knn_ranks_cube_ties_below_the_guard_by_index():
    # dots 1e-109 > 1e-110 > 0 all cube to 0.0, so they tie by index
    data = np.array([[1.0, 0.0], [0.0, 1.0], [1e-110, 0.0], [1e-109, 0.0], [0.5, 0.0]])
    nbrs = knn_search(FeatureSet(data=data), 3)
    assert nbrs[0].tolist() == [4, 1, 2]


def test_similarity_kernel_scalar_and_array_forms():
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(2, 50, 4))
    dots = np.einsum("ij,ij->i", a, b)
    assert np.array_equal(similarity(dots), np.where(dots > 0, dots, 0.0) ** 3)
    # on one dot product it keeps the bits of the per-pair formula
    assert [float(similarity(np.dot(x, y))) for x, y in zip(a, b)] == [
        max(float(np.dot(x, y)), 0.0) ** 3 for x, y in zip(a, b)
    ]


def test_graph_file_bytes_match_per_edge_writer(tmp_path):
    rng = np.random.default_rng(16)
    pairs = {(int(i), int(j)) for i, j in np.sort(rng.integers(0, 60, (300, 2)), axis=1) if i < j}
    edges = [(i, j, rng.random() * 10.0 ** rng.integers(-12, 4)) for i, j in sorted(pairs)]
    g = graph_from_edges(60, 7, edges)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    coo = sp.triu(g.adjacency, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    expected = "MOMG 60 7\n" + "".join(
        f"{coo.row[e]} {coo.col[e]} {coo.data[e]:.9g}\n" for e in order
    )
    assert path.read_text() == expected


def test_graph_loaded_from_a_shuffled_file_saves_its_edges_ascending(tmp_path):
    rng = np.random.default_rng(18)
    n = 90
    upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), k=1).ravel())
    ii, jj = np.divmod(rng.choice(upper, size=EDGE_CHUNK + 300, replace=False), n)
    lines = [f"{i} {j} {w:.9g}\n" for i, j, w in zip(ii.tolist(), jj.tolist(), rng.random(ii.size).tolist())]
    assert lines != sorted(lines, key=lambda line: tuple(map(int, line.split()[:2])))
    (tmp_path / "shuffled.txt").write_text(f"MOMG {n} 6\n" + "".join(lines))
    save_graph(load_graph(tmp_path / "shuffled.txt"), tmp_path / "saved.txt")
    lines.sort(key=lambda line: tuple(map(int, line.split()[:2])))
    assert (tmp_path / "saved.txt").read_text() == f"MOMG {n} 6\n" + "".join(lines)


@pytest.mark.parametrize("count", [0, 1, EDGE_CHUNK, EDGE_CHUNK + 1, 3 * EDGE_CHUNK + 5])
def test_graph_file_bytes_match_one_shot_writer(tmp_path, count):
    rng = np.random.default_rng(count)
    n = 100
    upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), k=1).ravel())
    pairs = np.divmod(rng.choice(upper, size=count, replace=False), n)
    weights = rng.random(count) * 10.0 ** rng.integers(-12, 4, size=count)
    g = graph_from_edges(n, 7, zip(*pairs, weights))
    save_graph(g, tmp_path / "g.txt")
    save_graph_reference(g, tmp_path / "reference.txt")
    assert (tmp_path / "g.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()
    assert len((tmp_path / "g.txt").read_text().splitlines()) == 1 + count


@pytest.mark.parametrize("body", [
    "MOMG four 2\n0 1 0.5\n",  # non-integer header
    "MOMG 4 2.0\n0 1 0.5\n",
    "MOMG 0 2\n",
    "MOMG 18446744073709551616 2\n0 1 0.5\n",  # sizes beyond int64
    "MOMG 4 18446744073709551616\n0 1 0.5\n",
    "MOMG 4 2\n0 1\n",  # malformed lines
    "MOMG 4 2\n0 1 0.5 7\n",
    "MOMG 4 2\n0 1 0.5x\n",
    "MOMG 4 2\n0.0 1 0.5\n",
    "MOMG 4 2\n# note\n0 1 0.5\n",
    "MOMG 4 2\n0 4 0.5\n",  # ids outside [0, n) or not i < j
    "MOMG 4 2\n-1 2 0.5\n",
    "MOMG 4 2\n2 1 0.5\n",
    "MOMG 4 2\n1 1 0.5\n",
    "MOMG 4 2\n0 1 nan\n",  # weights that are not finite and positive
    "MOMG 4 2\n0 1 inf\n",
    "MOMG 4 2\n0 1 0\n",
    "MOMG 4 2\n0 1 -0.5\n",
    "MOMG 4 2\n0 1 0.5\n1 2 0.5\n0 1 0.5\n",  # a duplicate edge
    "MOMG 3 2\n0 1 1e308\n0 2 1e308\n",  # node 0's degree overflows
])
def test_load_graph_rejects_bad_files(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(BadGraph):
        load_graph(path)


def test_load_graph_accepts_blank_lines_and_no_edges(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("MOMG 4 2\n0 1 0.5\n\n2 3 0.25\n")
    g = load_graph(path)
    assert g.adjacency.toarray().tolist() == [
        [0, 0.5, 0, 0], [0.5, 0, 0, 0], [0, 0, 0, 0.25], [0, 0, 0.25, 0]
    ]
    path.write_text("MOMG 3 1\n")
    g = load_graph(path)
    assert g.n == 3 and g.adjacency.nnz == 0 and g.degrees.tolist() == [0, 0, 0]


def test_from_edges_rejects_duplicates_and_non_finite_weights():
    with pytest.raises(BadGraph):
        graph_from_edges(3, 1, [(0, 1, 0.5), (0, 1, 0.5)])
    with pytest.raises(ValueError):
        graph_from_edges(3, 1, [(0, 1, float("nan"))])
    with pytest.raises(ValueError):
        graph_from_edges(3, 1, [(1, 0, 0.5)])
    with pytest.raises(BadGraph, match="node 1 has a degree that is not finite"):
        graph_from_edges(3, 1, [(0, 1, 1e308), (1, 2, 1e308)])


def shuffled_path(n, seed):
    """A path through all n nodes in a random order of ids."""
    perm = np.random.default_rng(seed).permutation(n)
    lo, hi = np.minimum(perm[:-1], perm[1:]), np.maximum(perm[:-1], perm[1:])
    return graph_from_edges(n, 2, zip(lo.tolist(), hi.tolist(), [1.0] * (n - 1)))


def test_components_match_breadth_first_search():
    star = graph_from_edges(9, 8, [(j, 7, 1.0) for j in range(7)] + [(7, 8, 1.0)])
    graphs = [
        graph_from_edges(6, 1, []),
        star,
        shuffled_path(2000, seed=0),
        disjoint_union(shuffled_path(300, seed=1), star, shuffled_path(2, seed=2), isolated=4),
    ]
    for seed in range(6):
        parts = [random_graph(m, seed=seed + m, extra_edges=m // 3, connected=False)
                 for m in (30, 12, 3)]
        graphs.append(disjoint_union(*parts, isolated=seed))
    for g in graphs:
        assert np.array_equal(components(g.adjacency), components_reference(g))


def test_pair_einsum_is_symmetric_and_the_same_in_every_form():
    # knn_search ranks row i on einsum("j,ij->i", x[i], x) and on chunks of
    # einsum("ij,ij->i", x[i's], x[j's]); build_reciprocal_graph weighs the
    # edge {i, j} on einsum("ij,ij->i", x[min], x[max]). All must be the
    # same bits, whatever the chunk
    rng = np.random.default_rng(11)
    for d in (1, 3, 16, 64, 65):
        x = rng.normal(size=(300, d))
        ii, jj = rng.integers(0, 300, size=(2, 2000))
        pairs = np.einsum("ij,ij->i", x[ii], x[jj])
        assert np.array_equal(pairs, np.einsum("ij,ij->i", x[jj], x[ii]))
        chunks = [np.einsum("ij,ij->i", x[ii[s : s + 7]], x[jj[s : s + 7]]) for s in range(0, 2000, 7)]
        assert np.array_equal(pairs, np.concatenate(chunks))
        for i in (0, 17):
            row = np.einsum("j,ij->i", x[i], x)
            assert np.array_equal(row, np.einsum("ij,ij->i", np.repeat(x[i : i + 1], 300, axis=0), x))


def float32_hard_inputs():
    """Inputs float32 handles badly, each at n = 300 (three 128-row blocks)."""
    rng = np.random.default_rng(12)
    n, d = 300, 16
    normal = rng.normal(size=(n, d))
    mixed = normal * rng.choice([1e30, 1e-40], size=(n, d))
    # a third of the rows 1e70 times shorter: float32 holds them as zeros
    rows = normal * np.where(rng.random((n, 1)) < 1 / 3, 1e-40, 1e30)
    # 40 directions plus one tiny coordinate each: most rows' dots are
    # 1e-110 and below, so their k-th dot is below 1e-100
    sparse = np.zeros((n, 41))
    sparse[np.arange(n), rng.integers(0, 40, size=n)] = rng.random(n) + 0.5
    sparse[:, 40] = 1e-55 * rng.random(n)
    # small integers: every dot is exact, and 30 distinct rows repeat over
    # all three blocks, so the ties cross blocks
    grid = rng.integers(-2, 3, size=(30, 5)).astype(float)[rng.integers(0, 30, size=n)]
    return {
        "near 1e200": normal * 1e200,  # float64 dots overflow
        "near 1e-300": normal * 1e-300,  # float64 dots underflow
        "near 1e30": normal * 1e30,
        "near 1e-40": normal * 1e-40,
        "components near 1e30 and 1e-40": mixed,
        "rows near 1e30 and 1e-40": rows,
        "k-th dot below 1e-100": sparse,
        "integer grid": grid,
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(float32_hard_inputs()))
@pytest.mark.parametrize("k", [1, 10, 40])
def test_knn_matches_pair_dot_oracle_where_float32_is_poor(monkeypatch, name, k):
    data = float32_hard_inputs()[name]
    full = []  # rows ranked on all their n dots; a row's survivors are fewer

    def spy(scores, k):
        if np.shape(scores)[-1] == data.shape[0]:
            full.append(np.atleast_2d(scores).shape[0])
        return top_k(scores, k)

    monkeypatch.setattr(momine.graph, "top_k", spy)
    assert np.array_equal(knn_search(FeatureSet(data=data), k), pair_dot_knn_oracle(data, k))
    # one power of two scales these into float32's range, so the
    # prefilter ranks every row; past 2^511 no row is prefiltered
    if name in ("near 1e30", "near 1e-40", "components near 1e30 and 1e-40"):
        assert sum(full) == 0
    if name == "near 1e200":
        assert sum(full) == data.shape[0]


def test_knn_search_is_the_same_on_every_block_grid_and_worker_count(monkeypatch):
    spec = SyntheticSpec(kind="moons", per_class=301, classes=2, ambient_dim=16, noise=0.15)
    feats = l2_normalize(generate_synthetic(spec, 13))
    expected = pair_dot_knn_oracle(feats.data, 20)
    for rows in (1, 17, 128):
        for workers in (1, 2, 3):
            monkeypatch.setattr(momine.graph, "RANK_ROWS", rows)
            monkeypatch.setattr(momine.graph, "WORKERS", workers)
            assert np.array_equal(knn_search(feats, 20), expected), (rows, workers)


def test_knn_survives_float32_scores_moved_by_their_error_bound(monkeypatch):
    # every float32 score may err by (g(u) (1 + u)^2 + 2u + u^2) nu_i nu_j,
    # u = 2^-24, g(u) = d u / (1 - d u), nu the scaled norms (knn_search's
    # docstring). Here each score is the exact scaled dot moved by that much,
    # less room for its own float32 rounding, toward the row's k-th score:
    # down for the row's true neighbours, up for every other item. Row 0 is
    # a hub whose dots with rows 1-60 step by 1e-8, far below the bound, so
    # its k-th and (k+1)-th items swap and a margin of half the bound fails
    rng = np.random.default_rng(14)
    n, d, k = 400, 16, 10
    data = rng.normal(size=(n, d))
    data[0] = np.eye(d)[0]
    c = 0.9 + 1e-8 * np.arange(1, 61)
    side = rng.normal(size=(60, d - 1))
    data[1:61, 0] = c
    data[1:61, 1:] = side / np.linalg.norm(side, axis=1, keepdims=True) * np.sqrt(1 - c**2)[:, None]
    data[61:] /= np.linalg.norm(data[61:], axis=1, keepdims=True)
    expected = pair_dot_knn_oracle(data, k)
    members = np.zeros((n, n), dtype=bool)
    members[np.arange(n)[:, None], expected] = True
    u = 2.0**-24
    rel = d * u / (1 - d * u) * (1 + u) ** 2 + 2 * u + u**2

    def moved(y, start, stop, out):
        scale = 2.0 ** np.round(np.log2(np.abs(y).max() / np.abs(data).max()))
        scaled = data * scale
        nu = np.linalg.norm(scaled, axis=1)
        step = (rel - 2 * u) * nu[start:stop, None] * nu[None, :]
        exact = scaled[start:stop] @ scaled.T
        out[:] = np.where(members[start:stop], exact - step, exact + step)
        return out

    monkeypatch.setattr(momine.graph, "_scores32", moved)
    assert np.array_equal(knn_search(FeatureSet(data=data), k), expected)
