import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from momine.errors import BadGraph, BadMagic, KTooLarge
from momine.features import FeatureSet, SyntheticSpec, generate_synthetic, l2_normalize
from momine.graph import (
    BLOCK_ROWS,
    NeighborGraph,
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
    knn_oracle,
    lexsort_top_k,
    random_graph,
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
    nbrs, _ = knn_search(feats, 1)
    assert nbrs[0, 0] == 1


def test_knn_duplicate_points_tie():
    v = np.array([1.0, 0.0])
    u = np.array([0.0, 1.0])
    feats = FeatureSet(data=np.vstack([v, v, u]))
    nbrs, _ = knn_search(feats, 2)
    assert list(nbrs[0]) == [1, 2]


@pytest.mark.parametrize("n,k", [(50, 5), (200, 9)])
def test_knn_matches_exhaustive_oracle(n, k):
    rng = np.random.default_rng(10 + n)
    feats = l2_normalize(FeatureSet(data=rng.normal(size=(n, 8))))
    nbrs, sims = knn_search(feats, k)
    expected = knn_oracle(feats.data, k)
    for i in range(n):
        assert list(nbrs[i]) == expected[i]
    assert np.all(np.diff(sims, axis=1) <= 1e-15)  # ranked descending


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
    nbrs, sims = knn_search(feats, 12)
    s = np.clip(feats.data @ feats.data.T, 0.0, None) ** 3
    np.fill_diagonal(s, -np.inf)
    expected = lexsort_top_k(s, 12)
    assert np.array_equal(nbrs, expected)
    assert np.array_equal(sims, np.take_along_axis(s, expected, axis=1))


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


def test_normalize_two_node_unit_edge():
    g = NeighborGraph.from_edges(2, 1, [(0, 1, 1.0)])
    sym = normalize_graph(g, "symmetric")
    assert np.allclose(sym.matrix.toarray(), [[0, 1], [1, 0]])


def test_normalize_path_graph_stochastic():
    g = NeighborGraph.from_edges(3, 2, [(0, 1, 1.0), (1, 2, 1.0)])
    sto = normalize_graph(g, "stochastic")
    assert np.allclose(sto.matrix.toarray()[1], [0.5, 0.0, 0.5])


def test_normalize_row_sums_and_symmetry():
    g = random_graph(40, seed=13)
    sto = normalize_graph(g, "stochastic")
    sums = np.asarray(sto.matrix.sum(axis=1)).ravel()
    # oracle: recompute row sums
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    sym = normalize_graph(g, "symmetric")
    m = sym.matrix.toarray()
    assert np.max(np.abs(m - m.T)) < 1e-12


def test_normalize_reports_isolated():
    g = NeighborGraph.from_edges(4, 1, [(0, 1, 1.0)])
    op = normalize_graph(g, "stochastic")
    assert np.asarray(op.matrix.sum(axis=1)).ravel()[2] == 0.0


def test_normalize_bad_kind():
    g = NeighborGraph.from_edges(2, 1, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        normalize_graph(g, "laplacian")


def test_symmetric_operator_spectral_radius_at_most_one():
    rng = np.random.default_rng(14)
    for seed in range(3):
        g = random_graph(60, seed=seed)
        sym = normalize_graph(g, "symmetric")
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
    expected = lexsort_top_k(s, k)
    nbrs, sims = knn_search(feats, k)
    assert np.array_equal(nbrs, expected)
    assert np.array_equal(sims, np.take_along_axis(s, expected, axis=1))


def test_knn_ranks_cube_ties_below_the_guard_by_index():
    # dots 1e-109 > 1e-110 > 0 all cube to 0.0, so they tie by index
    data = np.array([[1.0, 0.0], [0.0, 1.0], [1e-110, 0.0], [1e-109, 0.0], [0.5, 0.0]])
    nbrs, sims = knn_search(FeatureSet(data=data), 3)
    assert nbrs[0].tolist() == [4, 1, 2]
    assert sims[0].tolist() == [0.125, 0.0, 0.0]


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
    g = NeighborGraph.from_edges(60, 7, edges)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    coo = sp.triu(g.adjacency, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    expected = "MOMG 60 7\n" + "".join(
        f"{coo.row[e]} {coo.col[e]} {coo.data[e]:.9g}\n" for e in order
    )
    assert path.read_text() == expected


@pytest.mark.parametrize("body", [
    "MOMG four 2\n0 1 0.5\n",  # non-integer header
    "MOMG 4 2.0\n0 1 0.5\n",
    "MOMG 0 2\n",
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
        NeighborGraph.from_edges(3, 1, [(0, 1, 0.5), (0, 1, 0.5)])
    with pytest.raises(ValueError):
        NeighborGraph.from_edges(3, 1, [(0, 1, float("nan"))])
    with pytest.raises(ValueError):
        NeighborGraph.from_edges(3, 1, [(1, 0, 0.5)])


def shuffled_path(n, seed):
    """A path through all n nodes in a random order of ids."""
    perm = np.random.default_rng(seed).permutation(n)
    lo, hi = np.minimum(perm[:-1], perm[1:]), np.maximum(perm[:-1], perm[1:])
    return NeighborGraph.from_edges(n, 2, zip(lo.tolist(), hi.tolist(), [1.0] * (n - 1)))


def test_components_match_breadth_first_search():
    star = NeighborGraph.from_edges(9, 8, [(j, 7, 1.0) for j in range(7)] + [(7, 8, 1.0)])
    graphs = [
        NeighborGraph.from_edges(6, 1, []),
        star,
        shuffled_path(2000, seed=0),
        disjoint_union(shuffled_path(300, seed=1), star, shuffled_path(2, seed=2), isolated=4),
    ]
    for seed in range(6):
        parts = [random_graph(m, seed=seed + m, extra_edges=m // 3, connected=False)
                 for m in (30, 12, 3)]
        graphs.append(disjoint_union(*parts, isolated=seed))
    for g in graphs:
        assert np.array_equal(components(g), components_reference(g))
