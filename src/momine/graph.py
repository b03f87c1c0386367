"""Reciprocal kNN graph over a feature set, plus its normalized operators.

The adjacency keeps an edge only when both endpoints list each other among
their k most similar items; weights are the clipped-cosine similarity cubed.
Everything is stored CSR via scipy.sparse and is immutable once built.
"""

import contextvars
import io
import os
import threading
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .errors import BadGraph, BadMagic, KTooLarge, open_text
from .features import FeatureSet

GRAPH_MAGIC = "MOMG"
# one "i j w" line of a graph file
_EDGE_LINE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
# rows in flight in the n-wide rankings: memory is O(BLOCK_ROWS * n), and a
# larger block is no faster but raises peak memory at n = 10^4
BLOCK_ROWS = 256
# threads of the block loops (kNN, evaluation, mining): one per CPU in the
# process's affinity set, up to MAX_WORKERS, the largest count measured.
# No byte of an artifact depends on the count
MAX_WORKERS = 2
WORKERS = min(MAX_WORKERS, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
# the most rows per kNN and evaluation block, so that MAX_WORKERS blocks
# hold BLOCK_ROWS rows; each worker writes its blocks into one (RANK_ROWS, n)
# buffer. Neither the neighbours nor the reports depend on the grid or on
# the BLAS threads (see knn_search and gram_rows)
RANK_ROWS = BLOCK_ROWS // MAX_WORKERS
# pairs per chunk when _pair_dots gathers both ends of the kNN candidates or
# of the edges to take their dots, and edges per chunk when save_graph
# formats them: memory is O(EDGE_CHUNK * d), where
# one gather of every edge is about 5 * n * d doubles at graph.k 30. At d = 64
# a 1024-edge chunk (2 x 512 KB) stays in cache and weighs the 55k edges of
# n = 10^4 about 3x faster than one gather; larger chunks are slower
EDGE_CHUNK = 1024


@dataclass
class NeighborGraph:
    """Sparse symmetric adjacency with zero diagonal and non-negative weights,
    in canonical CSR form: each row's columns ascending, none twice."""

    n: int
    k: int
    adjacency: sp.csr_matrix
    degrees: np.ndarray


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

    Raises BadGraph when n is too large for the (n + 1)-long index array to
    be allocated, and when a node's finite weights sum past the double
    range, since its degree, and with it the walk and the normalized
    operators, would not be finite.
    """
    try:
        adj = sp.csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(n, n),
        )
    except (ValueError, MemoryError):  # numpy: "array is too big", or no memory
        raise BadGraph(f"{where}: a graph of n={n} nodes does not fit in memory") from None
    with np.errstate(over="ignore"):
        degrees = np.asarray(adj.sum(axis=1)).ravel()
    bad = np.flatnonzero(~np.isfinite(degrees))
    if bad.size:
        raise BadGraph(f"{where}: node {bad[0]} has a degree that is not finite: "
                       "its edge weights sum past the double range")
    return NeighborGraph(n=n, k=k, adjacency=adj, degrees=degrees)


def components(adjacency: sp.csr_matrix) -> np.ndarray:
    """Connected-component labels of a symmetric CSR adjacency: each node gets
    the smallest node id in its component, an isolated node its own id.

    Every round each non-isolated node finds the smallest label among itself
    and its neighbours and hands it to the node its label points at; the
    labels are then pointer-jumped (label <- label[label]) until they are
    roots, so each node ends at or below what it found. A round in which no
    node finds a smaller label ends the loop. Handing the label to the root
    rather than to the node alone keeps a long path with shuffled ids at a
    few rounds.
    """
    indptr, cols = adjacency.indptr, adjacency.indices
    live = np.flatnonzero(np.diff(indptr))
    label = np.arange(adjacency.shape[0])
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
    """The symmetric normalized adjacency D^-1/2 A D^-1/2."""

    matrix: sp.csr_matrix
    n: int


def similarity(dots):
    """The similarity kernel on dot products of unit vectors: max(dot, 0)^3."""
    return np.clip(dots, 0.0, None) ** 3


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, descending, ties by ascending index.

    Works on a 1-D array or on each row of a 2-D block and ranks by numpy's
    stable sort of the negated scores, NaN last, -0.0 equal to 0.0. For k up
    to n/4 a float row's top k are among its scores >= _kth_lower_bound, so
    only those candidates are ranked; a row left with fewer than k (only a
    NaN among its class maxima can do that), and every row for larger k or
    another dtype, is ranked whole. Both go through _top_k_sorted.
    """
    scores = np.asarray(scores)
    block = np.atleast_2d(scores)
    m, n = block.shape
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} must be in [1, {n}]")
    if 4 * k <= n and np.issubdtype(block.dtype, np.floating):
        flat = np.flatnonzero(block >= _kth_lower_bound(block, k)[:, None])
        rows, cols = np.divmod(flat, n)
        # each row's candidates in ascending column order, so a stable
        # ranking breaks ties by index, and the -inf fill ranks after them
        order = _top_k_sorted(_by_row(rows, block.ravel()[flat], m, k, -np.inf), k)
        out = np.take_along_axis(_by_row(rows, cols, m, k, 0), order, axis=1)
        short = np.flatnonzero(np.bincount(rows, minlength=m) < k)
    else:
        out, short = np.empty((m, k), dtype=np.int64), np.arange(m)
    if short.size:
        out[short] = _top_k_sorted(block[short], k)
    return out[0] if scores.ndim == 1 else out


# _kth_lower_bound takes the maxima of B = max(k, min(8k, n // 4)) residue
# classes of each row: the entries above its bound outnumber the row's top k
# only where two of the top k share a class, which more classes make rarer,
# and a partition of more maxima costs more. B is 8k from n / k = 32 on, and
# n // 4 (at least k) below that
_SAMPLE_SPREAD = 8
# knn_search keeps its thresholds at -4 or above, below every float32 score
# of the scaled features (at most 2 in magnitude), so that a vast margin
# neither overflows the cast to float32 nor keeps the self score of -inf
_FLOOR32 = -4.0


def _kth_lower_bound(block: np.ndarray, k: int) -> np.ndarray:
    """Per row, the k-th largest of the maxima of B = max(k, min(8k, n // 4))
    residue classes mod B of its columns, the last n mod B columns left out.

    The maxima are entries of distinct columns, so without a NaN among them
    at least k entries of the row are >= the bound, and the row's k-th
    largest is too. A NaN maximum sorts above every number, so a row with
    one may have fewer than k entries >= its bound. Needs 1 <= k <= n.
    """
    m, n = block.shape
    classes = max(k, min(_SAMPLE_SPREAD * k, n // 4))
    maxima = block[:, : n // classes * classes].reshape(m, -1, classes).max(axis=1)
    return np.partition(maxima, -k, axis=1)[:, -k]


def _by_row(rows: np.ndarray, values: np.ndarray, m: int, k: int, fill) -> np.ndarray:
    """The values of ascending rows laid out one row each, in their order,
    padded with fill to the longest row's length and at least k."""
    counts = np.bincount(rows, minlength=m)
    padded = np.full((m, max(int(counts.max(initial=0)), k)), fill, dtype=values.dtype)
    padded[np.arange(padded.shape[1]) < counts[:, None]] = values  # C order: row by row
    return padded


def _top_k_sorted(block: np.ndarray, k: int) -> np.ndarray:
    """top_k of each row by numpy's stable sort of the negated scores."""
    return np.argsort(-block, axis=1, kind="stable")[:, :k]


def _run_blocks(count: int, size: int, work) -> None:
    """Run range(count) in blocks of at most size items on up to WORKERS
    threads; no caller's results depend on the blocks.

    work(spans) is called once per worker with an iterator over the
    (start, stop) of its blocks: worker w takes blocks w, w + workers, ...
    in ascending order, and any buffers work allocates before its loop are
    that worker's own. B is the fewest blocks of at most size items whose
    number is a multiple of WORKERS, and each block holds ceil(count / B)
    items, which is ceil(count / WORKERS) when count <= WORKERS * size. That
    makes B blocks, or fewer where B blocks of that size would leave one
    empty (4 items on 3 workers take 2 blocks of 2, and 9 items in blocks of
    at most 4 on 2 workers take 3 blocks of 3). The calling thread is
    worker 0; every other worker runs in a copy of the caller's contextvars
    context, where numpy keeps np.errstate. A worker stops at its first
    failing block. Once every worker has finished, the exception of the
    lowest failing block is raised: the one a serial loop would raise, since
    every block below it has run.
    """
    grid = -(-count // (max(1, size) * WORKERS)) * WORKERS or 1
    size = -(-count // grid) or 1
    blocks = -(-count // size)
    workers = max(1, min(WORKERS, blocks))
    failed = {}

    def run(w):
        current = w  # a failure before the first block counts against it

        def spans():
            nonlocal current
            for current in range(w, blocks, workers):
                yield current * size, min(current * size + size, count)

        try:
            work(spans())
        except Exception as exc:
            failed[current] = exc

    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(run, w))
        for w in range(1, workers)
    ]
    for thread in helpers:
        thread.start()
    try:
        run(0)
    finally:
        for thread in helpers:
            thread.join()
    if failed:
        raise failed[min(failed)]


def gram_rows(x: np.ndarray, rows, out=None) -> np.ndarray:
    """The float64 dots of x[rows] (a slice or a gather) with every row of
    x, as an (m, n8) block whose columns n to n8, the multiple of 8 at or
    above n, are 0. A block of at least max(2, 1200 // n8 + 1) rows is
    written into out when given; a smaller one is a new array.

    x is padded with zero rows to n8 once per call (a caller that takes
    many blocks passes x padded already, which is then not copied), and a
    smaller block is computed with zero rows added up to that count, so
    every product is a GEMM of at least two rows, more than 1200 entries and
    a multiple of 8 columns. OpenBLAS rounds each entry of such a product alike whatever
    its row count and BLAS threads. Unpadded, the last n mod 8 columns
    round by both. A one-row product goes to GEMV, and OpenBLAS 0.3.31's
    SkylakeX build sends a product of at most 1200 entries with d >= 32, of
    operands laid out as these are, to its small-matrix kernel; both round
    otherwise.
    """
    right = np.pad(x, ((0, -len(x) % 8), (0, 0))) if len(x) % 8 else x
    left = x[rows]
    short = max(0, 2 - len(left), 1200 // len(right) + 1 - len(left))  # zero rows to add
    if not short:
        return np.matmul(left, right.T, out=out)
    return np.matmul(np.pad(left, ((0, short), (0, 0))), right.T)[: len(left)]


def knn_search(features: FeatureSet, k: int) -> np.ndarray:
    """Exact brute-force top-k neighbors by similarity for every item.

    Returns the (n, k) neighbor ids, ranked by descending similarity with
    ties broken by ascending index. The item itself is excluded. The
    similarity is that of each pair's float64 dot D_ij, the einsum that
    build_reciprocal_graph weighs the pair's edge with, so the neighbours
    depend neither on the BLAS threads nor on the block grid.

    Prefilter. Each block of at most RANK_ROWS rows is one float32 GEMM of
    y = fl32(2^-e x) into its worker's buffer, with e chosen so that every
    ||2^-e x_i|| is at most nu_i < 1; E_ij = 2^-2e x_i.x_j is the exact
    scaled dot. Let u = 2^-24, g(v) = d v / (1 - d v) and t = 2^-126.
    Componentwise |y - 2^-e x| <= u |2^-e x| + t, t covering float32
    subnormals and flush to zero. A float32 dot F_ij of y_i and y_j, summed
    in any order (Higham, Accuracy and Stability of Numerical Algorithms,
    3.1), errs by

        |F_ij - E_ij| <= (g(u) (1 + u)^2 + 2u + u^2) nu_i nu_j + 10 d t,

    the last term bounding every input, product and partial sum that lands
    below t. The float64 pair dot, scaled, errs by
    |2^-2e D_ij - E_ij| <= g(2^-53) nu_i nu_j + 4 d 2^(-1022-2e). Let f be
    row i's k-th largest F. Every j whose D_ij is at least the row's k-th
    largest D (each neighbour, and each item tied with the last) has
    D_ij >= D_il for one of the k items l with F_il >= f, since k items
    cannot all lie below the k-th largest. Going from F_il to E_il, D_il,
    D_ij, E_ij and F_ij costs one bound each, so F_ij >= f - M_i with

        M_i = 2 ((g(u) (1 + u)^2 + 2u + u^2 + g(2^-53)) nu_i max(nu)
                 + 10 d t + 4 d 2^(-1022-2e)),

    rounded up. Each row is bounded by _kth_lower_bound, the k-th largest
    of its residue-class maxima: k entries of a row without NaN, so a bound
    b <= f. The candidates F_ij >= b - M_i (32.5 per row at k = 30 on the
    64-d moons of n = 10^4, 30.1 of them at or above f - M_i) hold every
    neighbour and every item tied with the last.

    Ranking. The candidates are rescored with the pair einsum and ranked by
    top_k on the raw dots, ties by ascending id. That ranks the clipped
    dot exactly when the k-th dot is at least 1e-100: clipping moves only
    negatives, to 0, below every kept value. And ranking the clipped dot
    ranks its cube exactly there: x -> x^3 is strictly increasing, the
    cubes of adjacent doubles there are normal and at least 1.5 ulp apart,
    and numpy's pow errs by under 0.75 ulp (0.70 measured for numpy 2.4's
    AVX-512 loop, 0.50 for libm), so no two distinct kept or boundary
    values cube to equal or swapped results. A row whose k-th dot is below
    1e-100 or a NaN (where clipped zeros tie and tiny cubes underflow), or
    that has more than n/4 candidates, is ranked on the clipped cubes of all
    its pair dots instead. So is every row when x is not finite or e > 511,
    where a float64 dot may overflow.
    """
    n = features.n
    if not 1 <= k < n:
        raise KTooLarge(f"k={k} must satisfy 1 <= k < n={n}")
    x = features.data
    y, margin = _float32_prefilter(x)
    neighbors = np.empty((n, k), dtype=np.int64)

    def rank(spans):
        buffer = np.empty((min(RANK_ROWS, n), n), dtype=np.float32)
        for start, stop in spans:
            m = stop - start
            rows = np.arange(m)
            f = _scores32(y, start, stop, buffer[:m])
            f[rows, start + rows] = -np.inf  # exclude self
            slack = margin[start:stop]
            # the candidates: at or above the class maxima's bound less the margin
            flat = np.flatnonzero(f >= _below(_kth_lower_bound(f, k), slack)[:, None])
            cand, cols = np.divmod(flat, n)
            full = 4 * np.bincount(cand, minlength=m) > n
            keep = ~full[cand]
            cand, cols = cand[keep], cols[keep]
            # each row's candidates in ascending id order, rescored and ranked
            dots = _by_row(cand, _pair_dots(x, start + cand, cols), m, k, -np.inf)
            order = top_k(dots, k)
            nbrs = np.take_along_axis(_by_row(cand, cols, m, k, 0), order, axis=1)
            full = np.flatnonzero(full | ~(dots[rows, order[:, -1]] >= 1e-100))
            if full.size:  # every pair dot of these rows
                pair = np.empty((full.size, n))
                for row, i in enumerate(start + full):
                    np.einsum("j,ij->i", x[i], x, out=pair[row])
                sims = similarity(pair)
                sims[np.arange(full.size), start + full] = -np.inf  # exclude self
                nbrs[full] = top_k(sims, k)
            neighbors[start:stop] = nbrs

    _run_blocks(n, RANK_ROWS, rank)
    return neighbors


def _pair_dots(x: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """The float64 dot of rows ii[e] and jj[e] of x for every pair e, each its
    own einsum, so no dot's bits depend on the chunking. Both ends are
    gathered EDGE_CHUNK pairs at a time; the ids must be in range."""
    dots = np.empty(ii.size)
    ends = np.empty((2, min(EDGE_CHUNK, ii.size), x.shape[1]))
    for s in range(0, ii.size, EDGE_CHUNK):
        c = min(EDGE_CHUNK, ii.size - s)
        # "clip" lets take write into out unbuffered
        a = np.take(x, ii[s : s + c], axis=0, out=ends[0, :c], mode="clip")
        b = np.take(x, jj[s : s + c], axis=0, out=ends[1, :c], mode="clip")
        np.einsum("ij,ij->i", a, b, out=dots[s : s + c])
    return dots


def _scores32(y: np.ndarray, start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """Rows start:stop of the float32 Gram matrix y y^T, written into out."""
    return np.matmul(y[start:stop], y.T, out=out)


def _float32_prefilter(x: np.ndarray):
    """(y, M): the features scaled by 2^-e and rounded to float32, and each
    row's margin M_i (see knn_search). Every margin is infinite, so every
    row is ranked on its full dots, when x is not finite or when a float64
    dot may overflow."""
    n, d = x.shape
    amax = np.max(np.abs(x))
    if not np.isfinite(amax):
        return np.zeros((n, d), dtype=np.float32), np.full(n, np.inf)
    e1 = int(np.frexp(amax)[1])
    x1 = np.ldexp(x, -e1)  # |x1| < 1, so no square overflows
    # upper bounds on the norms, through the roundings and underflows
    nu = np.sqrt(np.einsum("ij,ij->i", x1, x1)) * (1 + 2.0**-20) + 2.0**-500
    e2 = int(np.frexp(nu.max())[1])
    nu = np.ldexp(nu, -e2)  # max(nu) < 1
    y = np.ldexp(x1, -e2).astype(np.float32)
    e = e1 + e2
    if e > 511:  # ||x_i|| ||x_j|| may pass the double range
        return y, np.full(n, np.inf)
    u = 2.0**-24  # float32's unit roundoff
    g32 = d * u / (1 - d * u) if d * u < 0.5 else np.inf
    g64 = d * 2.0**-53 / (1 - d * 2.0**-53)
    rel = g32 * (1 + u) ** 2 + 2 * u + u**2 + g64
    with np.errstate(over="ignore"):
        tiny = 10 * d * 2.0**-126 + np.ldexp(4.0 * d, -1022 - 2 * e)
    return y, 2 * (rel * nu * nu.max() + tiny) * (1 + 2.0**-40)


def _below(scores: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """A float32 at most scores - margin for each float32 score, and at
    least _FLOOR32 or just below it."""
    exact = np.nextafter(scores.astype(np.float64) - margin, -np.inf)
    low = np.maximum(exact, _FLOOR32).astype(np.float32)
    return np.where(low > exact, np.nextafter(low, np.float32(-np.inf)), low)


def build_reciprocal_graph(features: FeatureSet, k: int) -> NeighborGraph:
    """Adjacency with an edge (i,j) iff i and j are mutually in each other's top-k.

    The weight is the pair similarity, computed once per unordered pair so the
    matrix is symmetric bit-for-bit. Pairs with zero similarity are dropped
    (their adjacency entry would be zero anyway). The dots come from
    _pair_dots, as knn_search's rescored ones do, so the peak memory is that
    of knn_search's (RANK_ROWS, n) blocks; the kNN GEMM's values would round
    differently.
    """
    n = features.n
    nbrs = knn_search(features, k)
    rows = np.repeat(np.arange(n), k)
    listed = sp.csr_matrix(
        (np.ones(n * k, dtype=bool), (rows, nbrs.ravel())), shape=(n, n)
    )
    mutual = sp.triu(listed.multiply(listed.T), k=1).tocoo()
    ii, jj = mutual.row, mutual.col
    w = similarity(_pair_dots(features.data, ii, jj))
    keep = w > 0
    return _mirrored_graph(n, k, ii[keep], jj[keep], w[keep])


def normalize_graph(graph: NeighborGraph) -> NormalizedOperator:
    """Build D^-1/2 A D^-1/2 by scaling a copy of the CSR by the row factor,
    then the column factor; isolated nodes yield all-zero rows/columns."""
    d = graph.degrees
    inv = np.zeros_like(d)
    nz = d > 0
    inv[nz] = 1.0 / np.sqrt(d[nz])
    mat = graph.adjacency.copy()
    mat.data *= np.repeat(inv, np.diff(mat.indptr))
    mat.data *= inv[mat.indices]
    return NormalizedOperator(matrix=mat, n=graph.n)


def save_graph(graph: NeighborGraph, path) -> None:
    """Text format: header "MOMG n k", then "i j w" per edge with i < j,
    ascending by (i, j), w at 9 significant digits.

    The canonical CSR holds the edges in that order. They are written
    EDGE_CHUNK lines at a time, each chunk by one %-format, so the Python
    ints, floats and strings of the lines never exist for more than one chunk.
    """
    adj = graph.adjacency
    rows = np.repeat(np.arange(graph.n), np.diff(adj.indptr))
    upper = rows < adj.indices
    rows, cols, weights = rows[upper], adj.indices[upper], adj.data[upper]
    with open(path, "w") as fh:
        fh.write(f"{GRAPH_MAGIC} {graph.n} {graph.k}\n")
        for start in range(0, rows.size, EDGE_CHUNK):
            i, j, w = (a[start : start + EDGE_CHUNK].tolist() for a in (rows, cols, weights))
            fh.write("%d %d %.9g\n" * len(i) % tuple(chain.from_iterable(zip(i, j, w))))


def load_graph(path) -> NeighborGraph:
    """Read a graph file written by :func:`save_graph`, mirroring each edge.

    Raises BadMagic on a wrong header, and BadGraph on sizes that are not
    integers in [1, 2^63), a line that is not "i j w", or an edge that fails
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
    if not (1 <= n < 2**63 and 1 <= k < 2**63):  # an id or size beyond int64
        raise BadGraph(f"{path}: header sizes must be integers in [1, 2^63), got {header[1:]}")
    edges = np.zeros(0, dtype=_EDGE_LINE)
    if body.strip():  # loadtxt warns on a file without lines
        try:
            edges = np.loadtxt(io.StringIO(body), dtype=_EDGE_LINE, comments=None, ndmin=1)
        except ValueError as exc:
            raise BadGraph(f"{path}: malformed edge line: {exc}") from None
    i, j, w = edges["i"], edges["j"], edges["w"]
    _check_edges(n, i, j, w, where=str(path))
    return _mirrored_graph(n, k, i, j, w, where=str(path))
