"""Reciprocal kNN graph over a feature set, plus its normalized operators.

The adjacency keeps an edge only when both endpoints list each other among
their k most similar items; weights are the clipped-cosine similarity cubed.
Everything is stored CSR via scipy.sparse and is immutable once built.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import KTooLarge
from .features import FeatureSet

GRAPH_MAGIC = "MOMG"
# rows per block in the n-wide rankings: memory is O(BLOCK_ROWS * n), and a
# larger block is no faster but raises peak memory at n = 10^4
BLOCK_ROWS = 256


@dataclass
class NeighborGraph:
    """Sparse symmetric adjacency with zero diagonal and non-negative weights."""

    n: int
    k: int
    adjacency: sp.csr_matrix
    degrees: np.ndarray

    def neighbors(self, i: int) -> np.ndarray:
        return self.adjacency.indices[self.adjacency.indptr[i] : self.adjacency.indptr[i + 1]]

    @classmethod
    def from_edges(cls, n: int, k: int, edges) -> "NeighborGraph":
        """Build a graph from (i, j, w) triples with i < j; each edge is mirrored."""
        rows, cols, vals = [], [], []
        for i, j, w in edges:
            if not 0 <= i < j < n:
                raise ValueError(f"edge ({i},{j}) must satisfy 0 <= i < j < n")
            if w <= 0:
                raise ValueError(f"edge ({i},{j}) must have positive weight, got {w}")
            rows.extend((i, j))
            cols.extend((j, i))
            vals.extend((w, w))
        adj = sp.csr_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
        )
        degrees = np.asarray(adj.sum(axis=1)).ravel()
        return cls(n=n, k=k, adjacency=adj, degrees=degrees)


@dataclass
class NormalizedOperator:
    """Either the symmetric D^-1/2 A D^-1/2 or the row-stochastic D^-1 A."""

    kind: str  # "symmetric" | "stochastic"
    matrix: sp.csr_matrix
    n: int
    isolated_nodes: int


def euclidean_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Clipped-cosine similarity cubed between two unit vectors: max(a.b, 0)^3."""
    return float(max(float(np.dot(a, b)), 0.0) ** 3)


def _similarity_block(x_block: np.ndarray, x_all: np.ndarray) -> np.ndarray:
    return np.clip(x_block @ x_all.T, 0.0, None) ** 3


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, descending, ties by ascending index.

    Works on a 1-D array or on each row of a 2-D block and ranks as a stable
    sort of the negated scores would, NaN last. For k up to n/4 only the
    candidates at or above the k-th largest value are sorted, so ties across
    that boundary survive. For larger k each row gets numpy's default
    (unstable) sort; a row with no equal adjacent keys has only one correct
    order, and on the other rows each run of equal keys (numerically equal,
    so -0.0 equals 0.0, or both NaN) is put back in ascending index order by
    one integer sort of run id * n + index.
    """
    scores = np.asarray(scores)
    block = np.atleast_2d(scores)
    m, n = block.shape
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} must be in [1, {n}]")
    if 4 * k <= n:
        neg = -block
        neg.partition(k - 1, axis=1)
        rows, cols = np.nonzero(block >= -neg[:, k - 1 : k])
        counts = np.bincount(rows, minlength=m)
        if counts.min() >= k:  # else a NaN failed the comparison: sort in full
            order = np.lexsort((cols, -block[rows, cols], rows))
            out = cols[order][(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
            return out[0] if scores.ndim == 1 else out
    order = np.argsort(-block, axis=1)
    # equal negated keys are equal scores; NaNs compare unequal but sort
    # last, so only rows that end in NaN need their NaN keys joined
    keys = np.take_along_axis(block, order, axis=1)
    same = keys[:, 1:] == keys[:, :-1]
    nan_rows = np.flatnonzero(np.isnan(keys[:, -1]))
    same[nan_rows] |= np.isnan(keys[nan_rows, :-1])
    del keys
    tied = np.flatnonzero(same.any(axis=1))
    if tied.size:
        runs = np.zeros((tied.size, n), dtype=np.int64)
        np.cumsum(~same[tied], axis=1, out=runs[:, 1:])
        del same
        runs *= n
        runs += order[tied]
        runs.sort(axis=1)
        order[tied] = np.remainder(runs, n, out=runs)
    out = order[:, :k]
    return out[0] if scores.ndim == 1 else out


def knn_search(features: FeatureSet, k: int):
    """Exact brute-force top-k neighbors by similarity for every item.

    Returns (neighbors, sims), both (n, k), ranked by descending similarity
    with ties broken by ascending index. The item itself is excluded.
    """
    n = features.n
    if not 1 <= k < n:
        raise KTooLarge(f"k={k} must satisfy 1 <= k < n={n}")
    x = features.data
    neighbors = np.empty((n, k), dtype=np.int64)
    sims = np.empty((n, k), dtype=np.float64)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        s = _similarity_block(x[start:stop], x)
        s[np.arange(stop - start), np.arange(start, stop)] = -np.inf  # exclude self
        neighbors[start:stop] = top_k(s, k)
        sims[start:stop] = np.take_along_axis(s, neighbors[start:stop], axis=1)
    return neighbors, sims


def build_reciprocal_graph(features: FeatureSet, k: int) -> NeighborGraph:
    """Adjacency with an edge (i,j) iff i and j are mutually in each other's top-k.

    The weight is the pair similarity, computed once per unordered pair so the
    matrix is symmetric bit-for-bit. Pairs with zero similarity are dropped
    (their adjacency entry would be zero anyway).
    """
    n = features.n
    nbrs, _ = knn_search(features, k)
    rows = np.repeat(np.arange(n), k)
    listed = sp.csr_matrix(
        (np.ones(n * k, dtype=bool), (rows, nbrs.ravel())), shape=(n, n)
    )
    mutual = sp.triu(listed.multiply(listed.T), k=1).tocoo()
    ii, jj = mutual.row, mutual.col
    dots = np.einsum("ij,ij->i", features.data[ii], features.data[jj])
    w = np.clip(dots, 0.0, None) ** 3
    keep = w > 0
    ii, jj, w = ii[keep], jj[keep], w[keep]
    adj = sp.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([ii, jj]), np.concatenate([jj, ii]))),
        shape=(n, n),
    )
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    return NeighborGraph(n=n, k=k, adjacency=adj, degrees=degrees)


def normalize_graph(graph: NeighborGraph, kind: str) -> NormalizedOperator:
    """Build D^-1/2 A D^-1/2 ("symmetric") or D^-1 A ("stochastic").

    Isolated nodes yield all-zero rows/columns; their count is reported on the
    returned operator.
    """
    if kind not in ("symmetric", "stochastic"):
        raise ValueError(f"kind must be 'symmetric' or 'stochastic', got {kind!r}")
    d = graph.degrees
    isolated = int(np.sum(d == 0))
    inv = np.zeros_like(d)
    nz = d > 0
    coo = graph.adjacency.tocoo()
    if kind == "symmetric":
        inv[nz] = 1.0 / np.sqrt(d[nz])
        vals = coo.data * inv[coo.row] * inv[coo.col]
    else:
        inv[nz] = 1.0 / d[nz]
        vals = coo.data * inv[coo.row]
    mat = sp.csr_matrix((vals, (coo.row, coo.col)), shape=(graph.n, graph.n))
    return NormalizedOperator(kind=kind, matrix=mat, n=graph.n, isolated_nodes=isolated)


def save_graph(graph: NeighborGraph, path) -> None:
    """Text format: header "MOMG n k", then "i j w" per edge with i < j."""
    coo = sp.triu(graph.adjacency, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        fh.write(f"{GRAPH_MAGIC} {graph.n} {graph.k}\n")
        for e in order:
            fh.write(f"{coo.row[e]} {coo.col[e]} {coo.data[e]:.9g}\n")


def load_graph(path) -> NeighborGraph:
    """Read a graph file written by :func:`save_graph`, mirroring each edge."""
    from .errors import BadMagic, TruncatedFile

    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != GRAPH_MAGIC:
            raise BadMagic(f"{path}: expected header '{GRAPH_MAGIC} n k'")
        n, k = int(header[1]), int(header[2])
        edges = []
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise TruncatedFile(f"{path}: malformed edge line {line!r}")
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return NeighborGraph.from_edges(n, k, edges)
