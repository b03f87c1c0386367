import numpy as np
import pytest
import scipy.sparse as sp

from momine.diffusion import DiffusionConfig, SimilarityBlock, solve_columns
from momine.errors import BadAnchors
from momine.graph import normalize_graph, top_k
from momine.mining import ANCHOR_BLOCK

from helpers import (
    TooLarge,
    circulant_graph,
    dense_oracle,
    graph_from_edges,
    random_graph,
    solve_column_reference,
)


def sym_op(graph):
    return normalize_graph(graph)


def manifold_knn(values, anchor, k):
    """The k items other than the anchor with the largest column values, as
    mining ranks them: descending, ties by ascending index."""
    values = values.copy()
    values[anchor] = -np.inf
    return top_k(values, k)


def test_alpha_zero_returns_basis_vector():
    op = sym_op(random_graph(12, seed=0))
    col = solve_columns(op, [3], DiffusionConfig(alpha=0.0, tolerance=1e-12, max_iterations=10))
    e = np.zeros(12)
    e[3] = 1.0
    assert np.array_equal(col.values, [e])
    assert col.converged[0] and col.iterations[0] <= 1


def test_disconnected_component_gets_zero_mass():
    g = graph_from_edges(
        6, 2, [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 0.7), (3, 4, 1.0), (4, 5, 0.3), (3, 5, 0.9)]
    )
    col = solve_columns(sym_op(g), [1], DiffusionConfig(alpha=0.9, tolerance=1e-12,
                                                        max_iterations=200)).values[0]
    assert np.max(np.abs(col[3:])) < 1e-12
    assert col[1] > 0


def test_cg_matches_dense_oracle_small():
    g = random_graph(5, seed=1)
    op = sym_op(g)
    full = dense_oracle(op, 0.9)
    cfg = DiffusionConfig(alpha=0.9, tolerance=1e-12, max_iterations=100)
    block = solve_columns(op, range(5), cfg)
    for anchor in range(5):
        assert np.max(np.abs(block.values[anchor] - full[:, anchor])) < 1e-8


def test_cg_matches_dense_oracle_alpha_99():
    g = random_graph(8, seed=2)
    op = sym_op(g)
    full = dense_oracle(op, 0.99)
    cfg = DiffusionConfig(alpha=0.99, tolerance=1e-12, max_iterations=200)
    block = solve_columns(op, range(8), cfg)
    for anchor in range(8):
        assert np.max(np.abs(block.values[anchor] - full[:, anchor])) < 1e-8


def test_isolated_anchor_analytic_solution():
    g = graph_from_edges(4, 1, [(0, 1, 1.0)])
    col = solve_columns(sym_op(g), [2], DiffusionConfig(alpha=0.99, tolerance=1e-10,
                                                        max_iterations=50))
    expected = np.zeros(4)
    expected[2] = 0.01
    assert np.allclose(col.values[0], expected, atol=1e-15)
    assert col.converged[0] and col.iterations[0] == 0


def test_not_converged_returns_best_iterate():
    g = random_graph(80, seed=3)
    op = sym_op(g)
    col = solve_columns(op, [0], DiffusionConfig(alpha=0.99, tolerance=1e-14, max_iterations=2))
    assert not col.converged[0]
    assert col.iterations[0] == 2
    assert col.residual[0] > 0


def test_residual_history_non_increasing():
    # the best iterate is kept, so a larger iteration budget never ends worse
    op = sym_op(random_graph(120, seed=4))
    residuals = [
        solve_columns(op, [5], DiffusionConfig(alpha=0.99, tolerance=1e-12, max_iterations=m))
        .residual[0]
        for m in range(1, 60)
    ]
    assert np.all(np.diff(residuals) <= 0.0)


def test_columns_non_negative():
    for seed in range(4):
        g = random_graph(50, seed=seed)
        op = sym_op(g)
        cfg = DiffusionConfig(alpha=0.99, tolerance=1e-10, max_iterations=500)
        for col in solve_columns(op, [0, 17, 33], cfg).values:
            assert col.min() >= -1e-10


def test_mass_bound_on_regular_graphs():
    # on a regular graph the column mass is exactly 1 in the limit
    g = circulant_graph(30, offsets=(1, 2))
    op = sym_op(g)
    cfg = DiffusionConfig(alpha=0.99, tolerance=1e-12, max_iterations=500)
    for col in solve_columns(op, [0, 7, 29], cfg).values:
        assert col.sum() <= 1.0 + 1e-8


def test_manifold_similarity_symmetric():
    g = random_graph(60, seed=5)
    op = sym_op(g)
    cfg = DiffusionConfig(alpha=0.99, tolerance=1e-12, max_iterations=500)
    cols = solve_columns(op, range(10), cfg).values
    for i in range(10):
        for j in range(i + 1, 10):
            assert abs(cols[i][j] - cols[j][i]) <= 1e-8


def test_solve_column_validates_inputs():
    g = random_graph(10, seed=6)
    with pytest.raises(ValueError):
        solve_columns(sym_op(g), [10], DiffusionConfig())
    with pytest.raises(ValueError):
        DiffusionConfig(alpha=1.0)


def test_manifold_knn_basis_column():
    g = random_graph(6, seed=7)
    col = solve_columns(sym_op(g), [2], DiffusionConfig(alpha=0.0, tolerance=1e-12,
                                                        max_iterations=5)).values[0]
    assert list(top_k(col, 1)) == [2]
    # all non-anchor values tie at zero; deterministic rule picks index 0
    assert list(manifold_knn(col, 2, 1)) == [0]


def test_manifold_knn_two_triangles_weak_bridge():
    g = graph_from_edges(
        6,
        3,
        [
            (0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
            (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0),
            (2, 3, 0.05),
        ],
    )
    op = sym_op(g)
    col = solve_columns(op, [0], DiffusionConfig(alpha=0.9, tolerance=1e-12, max_iterations=200))
    top2 = set(manifold_knn(col.values[0], 0, 2))
    assert top2 == {1, 2}
    # oracle: the dense ranking agrees
    full = dense_oracle(op, 0.9)[:, 0]
    order = np.argsort(-full)
    assert set(order[1:3]) == {1, 2}


def test_dense_oracle_alpha_zero_is_identity():
    op = sym_op(random_graph(7, seed=9))
    assert np.allclose(dense_oracle(op, 0.0), np.eye(7))


def test_dense_oracle_symmetric():
    op = sym_op(random_graph(40, seed=10))
    full = dense_oracle(op, 0.95)
    assert np.max(np.abs(full - full.T)) < 1e-10


def test_dense_oracle_size_guard():
    edges = [(0, 1, 1.0)]
    g = graph_from_edges(2001, 1, edges)
    with pytest.raises(TooLarge):
        dense_oracle(sym_op(g), 0.5)


def mixed_operator():
    """A 120-node random graph plus small components: nodes 130-131 form an
    edge and 132-134 a path (both solved exactly within two iterations), and
    nodes 120-129 and 135-139 are isolated."""
    g = random_graph(120, seed=3)
    coo = sp.triu(g.adjacency, k=1).tocoo()
    edges = list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    edges += [(130, 131, 0.5), (132, 133, 0.7), (133, 134, 0.2)]
    return sym_op(graph_from_edges(140, 5, edges))


@pytest.mark.parametrize("cfg", [
    DiffusionConfig(alpha=0.99, tolerance=1e-10, max_iterations=500),
    DiffusionConfig(alpha=0.9, tolerance=1e-300, max_iterations=400),  # p.Ap hits 0
    DiffusionConfig(alpha=0.99, tolerance=1e-6, max_iterations=2),  # mostly unconverged
])
def test_solve_columns_bit_equal_to_single_solves(cfg):
    op = mixed_operator()
    anchors = np.random.default_rng(4).permutation(140)[:131]  # 64 does not divide 131
    whole = solve_columns(op, anchors, cfg)
    blocks = [solve_columns(op, anchors[s : s + ANCHOR_BLOCK], cfg)
              for s in range(0, anchors.size, ANCHOR_BLOCK)]
    for block in (whole, SimilarityBlock(*map(np.concatenate, zip(*blocks)))):
        assert block.values.shape == (anchors.size, op.n)
        for i, anchor in enumerate(anchors):
            for ref in (solve_columns(op, [anchor], cfg),
                        solve_column_reference(op, anchor, cfg)):
                assert np.array_equal(block.values[i], ref.values[0])
                assert block.residual[i] == ref.residual[0]
                assert block.iterations[i] == ref.iterations[0]
                assert block.converged[i] == ref.converged[0]
    stops = set(zip(whole.iterations.tolist(), whole.converged.tolist()))
    assert (0, True) in stops  # isolated anchors
    assert len(stops) > 2  # rows leave the block at different iterations
    if cfg.max_iterations == 2:
        assert (2, False) in stops and (2, True) in stops
    if cfg.tolerance < 1e-200:
        assert any(it < cfg.max_iterations and not conv for it, conv in stops)


def test_solve_columns_rejects_out_of_range_anchors():
    op = sym_op(random_graph(10, seed=6))
    for bad in ([-3], [0, 10], [2, -1, 4]):
        with pytest.raises(BadAnchors):
            solve_columns(op, bad, DiffusionConfig())
    for bad in ([2**64], [3, -(2**63) - 1]):  # beyond int64: named, not OverflowError
        with pytest.raises(BadAnchors, match=f"anchor id {bad[-1]} out of range"):
            solve_columns(op, bad, DiffusionConfig())
    empty = solve_columns(op, [], DiffusionConfig())
    assert empty.values.shape == (0, 10) and all(a.size == 0 for a in empty[1:])
