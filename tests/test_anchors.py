import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momine.anchors import (
    AnchorSet,
    load_anchors,
    local_maxima,
    save_anchors,
    select_anchors,
    stationary,
)
from momine.errors import BadAnchors, EmptyGraph, MomineError
from momine.features import SyntheticSpec, generate_synthetic, l2_normalize
from momine.graph import NeighborGraph, build_reciprocal_graph

from helpers import (
    circulant_graph,
    disjoint_union,
    local_maxima_oracle,
    local_maxima_reference,
    neighbors,
    power_iteration,
    random_graph,
)


def test_regular_graph_uniform_distribution():
    g = circulant_graph(24, offsets=(1, 2))
    stat = power_iteration(g, tolerance=1e-12, max_iterations=20000)
    assert stat.converged
    assert np.max(np.abs(stat.pi - 1.0 / 24)) < 1e-9


def test_weighted_graph_degree_law():
    # closed form: the walk's stationary distribution is d_i / vol(G)
    g = random_graph(40, seed=0)
    stat = power_iteration(g, tolerance=1e-12, max_iterations=50000)
    assert stat.converged
    expected = g.degrees / g.degrees.sum()
    assert np.max(np.abs(stat.pi - expected)) < 1e-8
    # fixed point: pi P = pi
    resid = stat.pi @ (g.adjacency.toarray() / g.degrees[:, None]) - stat.pi
    assert np.max(np.abs(resid)) < 1e-8
    assert abs(stat.pi.sum() - 1.0) < 1e-10


def test_bipartite_path_oscillates():
    # degrees are uneven, so the uniform start is period-2 on this path
    g = NeighborGraph.from_edges(3, 2, [(0, 1, 1.0), (1, 2, 1.0)])
    stat = power_iteration(g, tolerance=1e-10, max_iterations=500)
    assert not stat.converged
    assert stat.l1_delta > 1e-3


def test_two_node_edge_converges_from_uniform():
    # uniform is already stationary here, so the bipartite graph converges
    g = NeighborGraph.from_edges(2, 1, [(0, 1, 1.0)])
    stat = power_iteration(g, tolerance=1e-10, max_iterations=50)
    assert stat.converged
    assert np.allclose(stat.pi, [0.5, 0.5])


def test_isolated_nodes_lose_all_mass():
    g = NeighborGraph.from_edges(5, 2, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    stat = power_iteration(g, tolerance=1e-12, max_iterations=10000)
    assert stat.pi[3] == 0.0 and stat.pi[4] == 0.0


def test_edgeless_graph_is_a_named_error_for_both_routes():
    empty = NeighborGraph.from_edges(5, 2, [])
    for route in (lambda: stationary(empty), lambda: power_iteration(empty)):
        with pytest.raises(EmptyGraph) as info:
            route()
        assert isinstance(info.value, MomineError) and isinstance(info.value, ValueError)


def path_graph(weights):
    return NeighborGraph.from_edges(
        len(weights) + 1, 2, [(i, i + 1, w) for i, w in enumerate(weights)]
    )


def test_stationary_equals_power_iteration_on_aperiodic_components():
    # several components, each with a triangle, and isolated nodes
    for seed in range(4):
        g = disjoint_union(
            random_graph(15, seed=seed),
            random_graph(9, seed=seed + 10, extra_edges=3),
            circulant_graph(7),
            random_graph(3, seed=seed + 20),
            isolated=3,
        )
        pi, parts = stationary(g)
        stat = power_iteration(g, tolerance=1e-13, max_iterations=100000)
        assert stat.converged
        assert parts == 4
        assert np.max(np.abs(pi - stat.pi)) < 1e-9
        assert abs(pi.sum() - 1.0) < 1e-12 and np.all(pi[-3:] == 0.0)


def test_stationary_is_the_mean_of_a_bipartite_oscillation():
    # paths with uneven degrees, a 4-cycle and a star are bipartite: the
    # iterate ends in a period-2 cycle whose mean is the closed form
    cycle = NeighborGraph.from_edges(4, 2, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0), (0, 3, 0.5)])
    star = NeighborGraph.from_edges(5, 4, [(0, j, 0.25 * j) for j in range(1, 5)])
    g = disjoint_union(
        path_graph([1.0, 1.0]), path_graph([1.0, 2.0, 0.5]), cycle, star,
        random_graph(8, seed=3), isolated=2,
    )
    late = power_iteration(g, tolerance=0.0, max_iterations=3000)
    later = power_iteration(g, tolerance=0.0, max_iterations=3001)
    assert not later.converged and later.l1_delta > 1e-3
    pi, parts = stationary(g)
    assert parts == 5
    assert np.max(np.abs(pi - 0.5 * (late.pi + later.pi))) < 1e-9


def tied_graph(seed):
    """Random graph with weights in {0.5, 1}, so degrees and pi tie exactly,
    plus pair and triple components and isolated nodes."""
    rng = np.random.default_rng(seed)
    m = 40
    edges = {}
    for _ in range(60):
        i, j = sorted(rng.choice(m, size=2, replace=False).tolist())
        edges[(i, j)] = float(rng.choice([0.5, 1.0]))
    edges.update({(m, m + 1): 1.0, (m + 2, m + 3): 0.5})  # pairs
    edges.update({(m + 4, m + 5): 1.0, (m + 5, m + 6): 1.0})  # a path triple
    edges.update({(m + 7, m + 8): 0.5, (m + 8, m + 9): 0.5, (m + 7, m + 9): 0.5})  # triangle
    n = m + 14  # the last four nodes are isolated
    return NeighborGraph.from_edges(n, 5, [(i, j, w) for (i, j), w in sorted(edges.items())])


def test_local_maxima_equals_the_plateau_flood_on_ties():
    rng = np.random.default_rng(7)
    for seed in range(12):
        g = tied_graph(seed)
        coarse = rng.integers(0, 3, size=g.n) / 4.0
        with_nan = coarse.copy()
        with_nan[rng.choice(g.n, size=6, replace=False)] = np.nan
        for pi in (g.degrees / g.degrees.sum(), stationary(g)[0], coarse, with_nan):
            assert local_maxima(g, pi) == local_maxima_reference(g, pi)


def test_local_maxima_on_edgeless_graph_is_empty():
    assert local_maxima(NeighborGraph.from_edges(3, 1, []), np.ones(3)) == []


def test_local_maxima_unique_peak():
    g = NeighborGraph.from_edges(3, 2, [(0, 1, 1.0), (1, 2, 1.0)])
    assert local_maxima(g, np.array([0.25, 0.5, 0.25])) == [1]


def test_local_maxima_plateau_one_representative():
    g = NeighborGraph.from_edges(4, 1, [(0, 1, 1.0), (2, 3, 1.0)])
    assert local_maxima(g, np.array([0.25, 0.25, 0.25, 0.25])) == [0, 2]


def test_local_maxima_shoulder_plateau_rejected():
    # pi equal on an edge whose plateau touches a strictly larger neighbor
    g = NeighborGraph.from_edges(3, 2, [(0, 1, 1.0), (1, 2, 1.0)])
    assert local_maxima(g, np.array([1.0, 1.0, 2.0])) == [2]


def test_local_maxima_ignores_isolated():
    g = NeighborGraph.from_edges(3, 1, [(0, 1, 1.0)])
    assert local_maxima(g, np.array([0.1, 0.2, 0.9])) == [1]


def test_local_maxima_matches_oracle():
    rng = np.random.default_rng(2)
    for seed in range(5):
        g = random_graph(30, seed=seed, extra_edges=20)
        pi = rng.random(30)
        assert local_maxima(g, pi) == local_maxima_oracle(g, pi)


def test_select_anchor_saturation_and_order():
    g = random_graph(30, seed=3)
    stat = power_iteration(g, max_iterations=50000)
    maxima = local_maxima(g, stat.pi)
    got = select_anchors(g, stat.pi, 1000)
    assert sorted(got.anchor_ids) == maxima
    assert np.all(np.diff(got.pi_values) <= 0)
    top = select_anchors(g, stat.pi, 1)
    best = max(maxima, key=lambda i: (stat.pi[i], -i))
    assert list(top.anchor_ids) == [best]
    for anchor in got.anchor_ids:
        nbrs = neighbors(g, anchor)
        assert np.all(stat.pi[anchor] >= stat.pi[nbrs])


def test_cluster_anchors_land_one_per_cluster():
    spec = SyntheticSpec(kind="clusters", per_class=50, classes=3, ambient_dim=8, noise=0.4)
    fs = generate_synthetic(spec, 21)
    fn = l2_normalize(fs)
    g = build_reciprocal_graph(fn, 8)
    stat = power_iteration(g, max_iterations=50000)
    top = select_anchors(g, stat.pi, 3)
    assert len(top) == 3
    # label oracle: the three strongest anchors cover all three clusters
    assert set(fs.labels[top.anchor_ids]) == {0, 1, 2}


def test_anchor_dump_round_trip(tmp_path):
    g = random_graph(20, seed=4)
    stat = power_iteration(g, max_iterations=50000)
    aset = select_anchors(g, stat.pi, 5)
    path = tmp_path / "anchors.txt"
    save_anchors(aset, path)
    loaded = load_anchors(path)
    assert list(loaded.anchor_ids) == list(aset.anchor_ids)
    assert np.allclose(loaded.pi_values, aset.pi_values, atol=1e-8)


@pytest.mark.parametrize("anchor_id", [2**63, 2**64, -(2**63) - 1])
def test_load_anchors_rejects_ids_beyond_int64(tmp_path, anchor_id):
    path = tmp_path / "anchors.txt"
    path.write_text(f"3 0.5\n{anchor_id} 0.25\n")
    with pytest.raises(BadAnchors, match=f"anchors.txt:2: anchor id {anchor_id} does not fit"):
        load_anchors(path)


ANCHOR_LINES = st.lists(st.tuples(st.integers(0, 2**63 - 1), st.floats()), max_size=20)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ANCHOR_LINES)
def test_anchor_file_round_trip_property(tmp_path_factory, lines):
    aset = AnchorSet(
        anchor_ids=np.asarray([i for i, _ in lines], dtype=np.int64),
        pi_values=np.asarray([p for _, p in lines], dtype=np.float64),
    )
    path = tmp_path_factory.mktemp("anchors") / "anchors.txt"
    save_anchors(aset, path)
    first = path.read_bytes()
    loaded = load_anchors(path)
    save_anchors(loaded, path)
    assert path.read_bytes() == first
    assert loaded.anchor_ids.tolist() == [i for i, _ in lines]
    expected = np.asarray([float(f"{p:.9g}") for _, p in lines], dtype=np.float64)
    assert np.array_equal(loaded.pi_values.view(np.int64), expected.view(np.int64))
