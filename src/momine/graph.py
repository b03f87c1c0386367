"""Reciprocal kNN graph over a feature set, plus its normalized operators.

The adjacency keeps an edge only when both endpoints list each other among
their k most similar items; weights are the clipped-cosine similarity cubed.
Everything is stored CSR via scipy.sparse and is immutable once built.
"""

import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BadGraph, BadMagic, KTooLarge, open_text
from .features import FeatureSet

GRAPH_MAGIC = "MOMG"
# one "i j w" line of a graph file
_EDGE_LINE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
# rows per block in the n-wide rankings: memory is O(BLOCK_ROWS * n), and a
# larger block is no faster but raises peak memory at n = 10^4. knn_search
# writes every block's GEMM into one (BLOCK_ROWS, n) buffer, and top_k
# selects each block's rows on int64 views of it without a float copy
BLOCK_ROWS = 256
# edges per chunk when build_reciprocal_graph gathers both endpoints to weigh
# them and when save_graph formats them: memory is O(EDGE_CHUNK * d), where
# one gather of every edge is about 5 * n * d doubles at graph.k 30. At d = 64
# a 1024-edge chunk (2 x 512 KB) stays in cache and weighs the 55k edges of
# n = 10^4 about 3x faster than one gather; larger chunks are slower
EDGE_CHUNK = 1024


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


def _mirrored_graph(n: int, k: int, i, j, w, where: str = "graph") -> NeighborGraph:
    """The graph with edges (i, j) and (j, i) of weight w for each i < j.

    Raises BadGraph when a node's finite weights sum past the double range,
    since its degree, and with it the walk and the normalized operators,
    would not be finite.
    """
    adj = sp.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    )
    with np.errstate(over="ignore"):
        degrees = np.asarray(adj.sum(axis=1)).ravel()
    bad = np.flatnonzero(~np.isfinite(degrees))
    if bad.size:
        raise BadGraph(f"{where}: node {bad[0]} has a degree that is not finite: "
                       "its edge weights sum past the double range")
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
    sort of the negated scores would, NaN last, -0.0 equal to 0.0. For k up
    to n/4 a float64 row is selected on the int64 view of its scores above a
    sampled bound (see _top_k_above_bound); the rows that cannot be, and
    every row for larger k, are ranked by a full sort (_top_k_sorted).
    """
    scores = np.asarray(scores)
    block = np.atleast_2d(scores)
    m, n = block.shape
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} must be in [1, {n}]")
    out = np.empty((m, k), dtype=np.int64)
    rest = np.arange(m)
    if 4 * k <= n and block.dtype == np.float64:
        rest = _top_k_above_bound(block, k, out)
    if rest.size:
        out[rest] = _top_k_sorted(block[rest], k)
    return out[0] if scores.ndim == 1 else out


# int64 views of doubles: +inf, and a bound that no key reaches but a NaN
_INF_KEY = np.float64(np.inf).view(np.int64)
_NO_BOUND = np.iinfo(np.int64).max
# each row's sample takes every stride-th column, stride = isqrt(n // (8 k)):
# the sample's cost grows as n / stride and the candidates above its bound
# as k * stride, and 8 balances the two on 256 x 10^4 blocks. stride <= 1
# (n < 32 k) takes every column, so the bound is the row's exact k-th key;
# otherwise n // stride >= 8 k * stride >= k, so every sample holds k keys.
_SAMPLE_SPREAD = 8


def _top_k_above_bound(block: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """Fill the rows of out that can be ranked on int64 keys; return the others.

    A double whose sign bit is clear views as an int64 that orders as the
    double does (+0.0 is 0, +inf is _INF_KEY, a NaN is above it); a set sign
    bit (negatives, -0.0, -inf) views as a negative int64. The k-th largest
    key b of a strided sample of a row is a lower bound on the row's k-th
    largest, since the sample's top k are k entries of the row, so the row's
    top k are among its keys >= b. When b is positive and not a NaN, those
    candidates are positive doubles and NaNs, and every other entry is a
    double below b or one that ranks last; with no NaN among them, the top k
    of the row are the k largest candidate keys, equal keys being equal
    values, ties by index. A row whose b is +0.0 or below (where -0.0 would
    have to tie with 0.0), or a NaN, or whose candidates hold a NaN, is
    returned for the full sort.
    """
    m, n = block.shape
    keys = block.view(np.int64)
    stride = max(1, math.isqrt(n // (_SAMPLE_SPREAD * k)))
    bound = np.partition(keys[:, ::stride], -k, axis=1)[:, -k]
    exact = (bound > 0) & (bound <= _INF_KEY)
    bound[~exact] = _NO_BOUND  # no candidates
    flat = np.flatnonzero(keys >= bound[:, None])
    rows, cols = np.divmod(flat, n)
    vals = keys.ravel()[flat]
    # each row's exact k-th key, from a partition of its candidates alone
    padded = _by_row(rows, vals, m, k, np.iinfo(np.int64).min)
    top = np.partition(padded, -k, axis=1)[:, -k:]
    exact &= top.max(axis=1) <= _INF_KEY
    take = (vals >= top[rows, 0]) & exact[rows]  # k or more per exact row
    rows, cols, vals = rows[take], cols[take], vals[take]
    # each row's entries are in ascending column order, so a stable sort of
    # the negated keys breaks ties by index
    order = np.argsort(_by_row(rows, -vals, m, k, _NO_BOUND), axis=1, kind="stable")
    done = np.flatnonzero(exact)
    out[done] = np.take_along_axis(_by_row(rows, cols, m, k, 0), order[:, :k], axis=1)[done]
    return np.flatnonzero(~exact)


def _by_row(rows: np.ndarray, values: np.ndarray, m: int, k: int, fill) -> np.ndarray:
    """The values of ascending rows laid out one row each, in their order,
    padded with fill to the longest row's length and at least k."""
    counts = np.bincount(rows, minlength=m)
    padded = np.full((m, max(int(counts.max(initial=0)), k)), fill, dtype=values.dtype)
    padded[rows, np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]] = values
    return padded


def _top_k_sorted(block: np.ndarray, k: int) -> np.ndarray:
    """top_k of each row by numpy's default (unstable) sort of the negated
    scores. A row with no equal adjacent keys has only one correct order; on
    the other rows each run of equal keys (numerically equal, so -0.0 equals
    0.0, or both NaN) is put back in ascending index order by one integer
    sort of run id * n + index.
    """
    n = block.shape[1]
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
    return order[:, :k]


def knn_search(features: FeatureSet, k: int):
    """Exact brute-force top-k neighbors by similarity for every item.

    Returns (neighbors, sims), both (n, k), ranked by descending similarity
    with ties broken by ascending index. The item itself is excluded. Each
    block of BLOCK_ROWS rows is one GEMM into a buffer that every block
    reuses, ranked on the raw dot products by top_k.
    """
    n = features.n
    if not 1 <= k < n:
        raise KTooLarge(f"k={k} must satisfy 1 <= k < n={n}")
    x = features.data
    neighbors = np.empty((n, k), dtype=np.int64)
    sims = np.empty((n, k), dtype=np.float64)
    buffer = np.empty((min(BLOCK_ROWS, n), n))
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        rows = np.arange(stop - start)
        c = np.matmul(x[start:stop], x.T, out=buffer[: stop - start])
        c[rows, start + rows] = -np.inf  # exclude self
        nbrs = top_k(c, k)
        kept = np.take_along_axis(c, nbrs, axis=1)
        # Ranking the raw dot ranks the clipped dot exactly when the k-th
        # kept value is at least 1e-100: clipping moves only negatives, to 0,
        # below every kept value. And ranking the clipped dot ranks its cube
        # exactly there: x -> x^3 is strictly increasing, the cubes of
        # adjacent doubles there are normal and at least 1.5 ulp apart, and
        # numpy's pow errs by under 0.75 ulp (0.70 measured for numpy 2.4's
        # AVX-512 loop, 0.50 for libm), so no two distinct kept or boundary
        # values cube to equal or swapped results. Below it (or at NaN),
        # clipped zeros tie and tiny cubes underflow; those rows alone are
        # clipped and ranked on the cubes themselves.
        low = np.flatnonzero(~(kept[:, -1] >= 1e-100))
        if low.size:
            clipped = np.maximum(c[low], 0.0)
            clipped[np.arange(low.size), start + low] = -np.inf  # self stays -inf
            nbrs[low] = top_k(clipped**3, k)
            kept[low] = np.take_along_axis(clipped, nbrs[low], axis=1)
        neighbors[start:stop] = nbrs
        sims[start:stop] = similarity(kept)
    return neighbors, sims


def build_reciprocal_graph(features: FeatureSet, k: int) -> NeighborGraph:
    """Adjacency with an edge (i,j) iff i and j are mutually in each other's top-k.

    The weight is the pair similarity, computed once per unordered pair so the
    matrix is symmetric bit-for-bit. Pairs with zero similarity are dropped
    (their adjacency entry would be zero anyway). The dot products are taken
    EDGE_CHUNK pairs at a time, so the endpoint gathers stay O(EDGE_CHUNK * d)
    and the peak memory is that of knn_search's (BLOCK_ROWS, n) block. Each
    pair's dot is its own einsum, so the chunking leaves every weight's bits
    as they are; the kNN GEMM's values would round differently.
    """
    n = features.n
    nbrs, _ = knn_search(features, k)
    rows = np.repeat(np.arange(n), k)
    listed = sp.csr_matrix(
        (np.ones(n * k, dtype=bool), (rows, nbrs.ravel())), shape=(n, n)
    )
    mutual = sp.triu(listed.multiply(listed.T), k=1).tocoo()
    ii, jj = mutual.row, mutual.col
    x = features.data
    dots = np.empty(ii.size)
    for start in range(0, ii.size, EDGE_CHUNK):
        edges = slice(start, start + EDGE_CHUNK)
        np.einsum("ij,ij->i", x[ii[edges]], x[jj[edges]], out=dots[edges])
    w = similarity(dots)
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
    """Text format: header "MOMG n k", then "i j w" per edge with i < j,
    ascending by (i, j), w at 9 significant digits.

    The edges are sorted once and written EDGE_CHUNK lines at a time, so
    the Python ints, floats and strings of the lines never exist for more
    than one chunk.
    """
    coo = sp.triu(graph.adjacency, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    rows, cols, weights = coo.row[order], coo.col[order], coo.data[order]
    with open(path, "w") as fh:
        fh.write(f"{GRAPH_MAGIC} {graph.n} {graph.k}\n")
        for start in range(0, order.size, EDGE_CHUNK):
            edges = slice(start, start + EDGE_CHUNK)
            fh.write("".join(map(
                "{} {} {:.9g}\n".format,
                rows[edges].tolist(), cols[edges].tolist(), weights[edges].tolist(),
            )))


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
    return _mirrored_graph(n, k, i, j, w, where=str(path))
