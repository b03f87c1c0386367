"""Reciprocal kNN graph over a feature set, plus its normalized operators.

The adjacency keeps an edge only when both endpoints list each other among
their k most similar items; weights are the clipped-cosine similarity cubed.
Everything is stored CSR via scipy.sparse and is immutable once built.
"""

import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BadGraph, BadMagic, KTooLarge, open_text
from .features import FeatureSet

GRAPH_MAGIC = "MOMG"
# one "i j w" line of a graph file
_EDGE_LINE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
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

    @classmethod
    def from_edges(cls, n: int, k: int, edges) -> "NeighborGraph":
        """Build a graph from (i, j, w) triples with i < j; each edge is mirrored."""
        edges = np.array(list(edges), dtype=object).reshape(-1, 3)
        i, j = (edges[:, c].astype(np.int64) for c in (0, 1))
        w = edges[:, 2].astype(np.float64)
        _check_edges(n, i, j, w)
        return _mirrored_graph(n, k, i, j, w)


def _check_edges(n: int, i, j, w, where: str = "graph") -> None:
    """Raise BadGraph unless every edge has 0 <= i < j < n, a finite
    positive weight, and appears once."""
    bad = np.flatnonzero(~((0 <= i) & (i < j) & (j < n)))
    if bad.size:
        e = bad[0]
        raise BadGraph(f"{where}: edge ({i[e]},{j[e]}) must satisfy 0 <= i < j < n={n}")
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    if bad.size:
        e = bad[0]
        raise BadGraph(f"{where}: edge ({i[e]},{j[e]}) needs a finite positive weight, got {w[e]}")
    order = np.lexsort((j, i))
    si, sj = i[order], j[order]
    dup = np.flatnonzero((si[1:] == si[:-1]) & (sj[1:] == sj[:-1]))
    if dup.size:
        e = dup[0]
        raise BadGraph(f"{where}: edge ({si[e]},{sj[e]}) is listed more than once")


def _mirrored_graph(n: int, k: int, i, j, w) -> NeighborGraph:
    """The graph with edges (i, j) and (j, i) of weight w for each i < j."""
    adj = sp.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    )
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    return NeighborGraph(n=n, k=k, adjacency=adj, degrees=degrees)


def components(graph: NeighborGraph) -> np.ndarray:
    """Connected-component labels: each node's label is the smallest node id
    in its component, so an isolated node is labelled with its own id.

    Every round each non-isolated node finds the smallest label among itself
    and its neighbours and hands it to the node its label points at; the
    labels are then pointer-jumped (label <- label[label]) until they are
    roots, so each node ends at or below what it found. A round in which no
    node finds a smaller label ends the loop. Handing the label to the root
    rather than to the node alone keeps a long path with shuffled ids at a
    few rounds.
    """
    indptr, cols = graph.adjacency.indptr, graph.adjacency.indices
    live = np.flatnonzero(np.diff(indptr))
    label = np.arange(graph.n)
    starts = indptr[live]
    while True:
        own = label[live]
        low = np.minimum(np.minimum.reduceat(label[cols], starts), own)
        if np.array_equal(low, own):
            return label
        np.minimum.at(label, own, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


@dataclass
class NormalizedOperator:
    """Either the symmetric D^-1/2 A D^-1/2 or the row-stochastic D^-1 A."""

    kind: str  # "symmetric" | "stochastic"
    matrix: sp.csr_matrix
    n: int


def similarity(dots):
    """The similarity kernel on dot products of unit vectors: max(dot, 0)^3."""
    return np.clip(dots, 0.0, None) ** 3


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
        rows, cols = np.divmod(np.flatnonzero(block >= -neg[:, k - 1 : k]), n)
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
        c = x[start:stop] @ x.T
        np.maximum(c, 0.0, out=c)
        c[np.arange(stop - start), np.arange(start, stop)] = -np.inf  # exclude self
        nbrs = top_k(c, k)
        kept = np.take_along_axis(c, nbrs, axis=1)
        # Ranking the clipped dot c ranks its cube exactly when the k-th kept
        # value is at least 1e-100: x -> x^3 is strictly increasing, the cubes
        # of adjacent doubles there are normal and at least 1.5 ulp apart, and
        # numpy's pow errs by under 0.75 ulp (0.70 measured for numpy 2.4's
        # AVX-512 loop, 0.50 for libm), so no two distinct kept or boundary
        # values cube to equal or swapped results. Below it (or at NaN),
        # clipped zeros tie and tiny cubes underflow; those rows are ranked on
        # the cubes themselves.
        low = np.flatnonzero(~(kept[:, -1] >= 1e-100))
        if low.size:
            nbrs[low] = top_k(c[low] ** 3, k)  # self stays -inf
            kept[low] = np.take_along_axis(c[low], nbrs[low], axis=1)
        neighbors[start:stop] = nbrs
        sims[start:stop] = similarity(kept)
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
    w = similarity(np.einsum("ij,ij->i", features.data[ii], features.data[jj]))
    keep = w > 0
    return _mirrored_graph(n, k, ii[keep], jj[keep], w[keep])


def normalize_graph(graph: NeighborGraph, kind: str) -> NormalizedOperator:
    """Build D^-1/2 A D^-1/2 ("symmetric") or D^-1 A ("stochastic").

    Isolated nodes yield all-zero rows/columns.
    """
    if kind not in ("symmetric", "stochastic"):
        raise ValueError(f"kind must be 'symmetric' or 'stochastic', got {kind!r}")
    d = graph.degrees
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
    return NormalizedOperator(kind=kind, matrix=mat, n=graph.n)


def save_graph(graph: NeighborGraph, path) -> None:
    """Text format: header "MOMG n k", then "i j w" per edge with i < j."""
    coo = sp.triu(graph.adjacency, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    edges = map(
        "{} {} {:.9g}\n".format,
        coo.row[order].tolist(), coo.col[order].tolist(), coo.data[order].tolist(),
    )
    with open(path, "w") as fh:
        fh.write(f"{GRAPH_MAGIC} {graph.n} {graph.k}\n" + "".join(edges))


def load_graph(path) -> NeighborGraph:
    """Read a graph file written by :func:`save_graph`, mirroring each edge.

    Raises BadMagic on a wrong header, and BadGraph on sizes that are not
    integers >= 1, a line that is not "i j w", or an edge that fails
    :func:`_check_edges`.
    """
    with open_text(path, BadGraph) as fh:
        header = fh.readline().split()
        body = fh.read()
    if len(header) != 3 or header[0] != GRAPH_MAGIC:
        raise BadMagic(f"{path}: expected header '{GRAPH_MAGIC} n k'")
    try:
        n, k = int(header[1]), int(header[2])
    except ValueError:
        n = k = 0
    if n < 1 or k < 1:
        raise BadGraph(f"{path}: header sizes must be integers >= 1, got {header[1:]}")
    edges = np.zeros(0, dtype=_EDGE_LINE)
    if body.strip():  # loadtxt warns on a file without lines
        try:
            edges = np.loadtxt(io.StringIO(body), dtype=_EDGE_LINE, comments=None, ndmin=1)
        except ValueError as exc:
            raise BadGraph(f"{path}: malformed edge line: {exc}") from None
    i, j, w = edges["i"], edges["j"], edges["w"]
    _check_edges(n, i, j, w, where=str(path))
    return _mirrored_graph(n, k, i, j, w)
