"""Label-based embedding metrics: Recall@k, NMI over k-means, and mAP."""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, KTooLarge, LengthMismatch, NonFinite
from .graph import RANK_ROWS, _run_blocks, gram_rows, top_k

KMEANS_MAX_ITER = 100  # Lloyd rounds; the loop also stops once no assignment changes
_INF_BITS = np.float64(np.inf).view(np.uint64)  # above it: negative, -0.0 or NaN


@dataclass
class EvalReport:
    recall_at: dict
    nmi: float
    map_score: float
    n_queries: int
    seed: int


def _check_inputs(embeddings: np.ndarray, labels) -> np.ndarray:
    """The labels as an array, once the embeddings are finite and the labels
    fit them; a NaN or inf would rank as no distance can."""
    bad = np.flatnonzero(~np.isfinite(embeddings).all(axis=1))
    if bad.size:
        raise NonFinite(f"embedding row {int(bad[0])} has a NaN or infinite value")
    labels = np.asarray(labels)
    if labels.shape[0] != embeddings.shape[0]:
        raise LengthMismatch(
            f"{labels.shape[0]} labels for {embeddings.shape[0]} embeddings"
        )
    if np.unique(labels).size < 2:
        raise DegenerateLabels("all items share one label")
    return labels


def _row_aps(rel: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """AP of each row of a (rows, depth) relevance block whose row i holds
    totals[i] hits; rows without hits get an unspecified value.

    Rows with equal hit counts share a shape, so each AP is the same row
    mean as a per-query loop would take. The hit-rank temporaries are freed
    on return, before the next block is ranked.
    """
    m, depth = rel.shape
    aps = np.empty(m)
    for total in np.unique(totals[totals > 0]):
        rows = np.flatnonzero(totals == total)
        sub = rel if rows.size == m else rel[rows]
        offsets = np.arange(rows.size) * depth - 1
        hit_ranks = np.flatnonzero(sub).reshape(rows.size, total) - offsets[:, None]
        aps[rows] = (np.arange(1, total + 1) / hit_ranks).mean(axis=1)
    return aps


def _ranking_metrics(embeddings: np.ndarray, labels: np.ndarray, ks):
    """(Recall@k per k in ks, mAP, scorable queries) from one ranking.

    Each query ranks every other item by ascending squared Euclidean
    distance, ties by ascending index, in blocks of at most RANK_ROWS
    queries on each worker thread, so memory is O(BLOCK_ROWS * n). Queries
    whose label occurs once are excluded.

    Only the label pattern of a ranking enters the metrics, so a row is one
    int64 sort of packed keys: the bits of d >= +0.0 (ordered as d is) with
    the lowest bit set to "label differs from the query's". Same-label ties
    and last-bit swaps cannot change the pattern. A row goes back to top_k
    when a d is negative, -0.0 or NaN, or when two of its first n sorted
    keys differ in the label bit alone (a cross-label tie up to the last
    bit). The rows are as wide as gram_rows' padded block: a pad column's
    distance is +inf and its label bit set, so its keys sort after the n
    real ones.
    """
    n = embeddings.shape[0]
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    totals = counts[inverse] - 1  # same-label items per query
    scorable = int(np.count_nonzero(totals))
    if scorable == 0:
        raise DegenerateLabels("no query has a same-label counterpart")
    depth, pad = n - 1, -n % 8
    x = np.pad(embeddings, ((0, pad), (0, 0)))  # padded once, so no block copies it
    codes = np.append(inverse, np.full(pad, counts.size)).astype(np.min_scalar_type(counts.size))
    sq = np.concatenate([np.sum(embeddings**2, axis=1), np.full(pad, np.inf)])
    hits = []  # one integer count per worker, summed at the end
    aps = np.empty(n)

    def rank(spans):
        # a worker's distances, keys and (RANK_ROWS, n8) temporaries go into
        # three buffers that all its blocks reuse, so no block allocates (and
        # page faults) arrays of that size afresh
        dist_buf, temp_buf = np.empty((2, min(RANK_ROWS, n), sq.size))
        key_buf = np.empty(dist_buf.shape, dtype=np.int64)
        found = np.zeros(len(ks), dtype=np.int64)
        hits.append(found)
        for start, stop in spans:
            m = stop - start
            # |x|^2 + |y|^2 - 2 x.y, built in place; the self distance is +inf
            dist = gram_rows(x, slice(start, stop), out=dist_buf[:m])
            dist *= -2.0
            dist += np.add(sq[start:stop, None], sq[None, :], out=temp_buf[:m])
            dist[np.arange(m), np.arange(start, stop)] = np.inf
            fallback = (dist.view(np.uint64) > _INF_BITS).any(axis=1)
            key = np.bitwise_and(dist.view(np.int64), -2, out=key_buf[:m])
            key |= codes[None, :] != codes[start:stop, None]
            key.sort(axis=1)
            pairs = temp_buf[:m].view(np.int64)[:, :depth]
            fallback |= (np.bitwise_xor(key[:, 1:n], key[:, :depth], out=pairs) == 1).any(axis=1)
            rel = np.bitwise_and(key[:, :depth], 1, out=pairs) == 0
            rows = np.flatnonzero(fallback)
            if rows.size:
                ranked = top_k(np.negative(dist[rows, :n]), depth)
                rel[rows] = codes[ranked] == codes[start + rows, None]
            first = np.where(rel.any(axis=1), rel.argmax(axis=1), depth)
            found += np.count_nonzero(first[:, None] < np.asarray(ks), axis=0)
            aps[start:stop] = _row_aps(rel, totals[start:stop])

    _run_blocks(n, RANK_ROWS, rank)
    recall = {k: int(h) / scorable for k, h in zip(ks, sum(hits))}
    return recall, float(np.mean(aps[totals > 0])), scorable


def kmeans(embeddings: np.ndarray, c: int, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm with seeded farthest-point initialization.

    Deterministic per seed: argmin/argmax ties go to the lowest index, and an
    emptied cluster keeps its previous center.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"c must be in [1, n={n}]")
    rng = np.random.default_rng(seed)
    centers = np.empty((c, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    mind = np.linalg.norm(x - centers[0], axis=1)
    for j in range(1, c):
        centers[j] = x[int(np.argmax(mind))]
        mind = np.minimum(mind, np.linalg.norm(x - centers[j], axis=1))
    assign = np.full(n, -1, dtype=np.int64)
    sq = np.sum(x**2, axis=1)[:, None]
    for _ in range(KMEANS_MAX_ITER):
        d2 = (
            sq
            - 2.0 * (x @ centers.T)
            + np.sum(centers**2, axis=1)[None, :]
        )
        new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(c):
            mask = assign == j
            if mask.any():
                centers[j] = x[mask].mean(axis=0)
    return assign


def nmi(labels_a, labels_b) -> float:
    """Mutual information normalized by the mean of the two entropies.

    Convention 0/0 -> 0 (e.g. one side is a single cluster).
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape[0] != b.shape[0] or a.shape[0] < 1:
        raise LengthMismatch(f"label lengths differ: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    counts = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(counts, (ai, bi), 1.0)
    pa = counts.sum(axis=1) / n
    pb = counts.sum(axis=0) / n
    pj = counts / n
    nz = pj > 0
    terms = pj[nz] * np.log(pj[nz] / np.outer(pa, pb)[nz])
    # summing in sorted order makes the value exactly transpose-invariant
    mi = float(np.sort(terms).sum())
    ha = float(-np.sum(pa[pa > 0] * np.log(pa[pa > 0])))
    hb = float(-np.sum(pb[pb > 0] * np.log(pb[pb > 0])))
    denom = 0.5 * (ha + hb)
    if denom <= 0.0:
        return 0.0
    return max(0.0, min(1.0, mi / denom))


def recall_depths(ks, n: int) -> list:
    """The depths of ks in [1, n - 1], ascending; KTooLarge when none is."""
    depths = sorted(int(k) for k in ks if 1 <= k <= n - 1)
    if not depths:
        raise KTooLarge(f"no recall depth lies in [1, n-1={n - 1}]")
    return depths


def evaluate_embeddings(
    embeddings: np.ndarray,
    labels,
    ks=(1, 2, 4, 8),
    seed: int = 0,
) -> EvalReport:
    """Full report: Recall@k, NMI of a seeded k-means (one cluster per label
    value), and mAP. n_queries counts the items whose label
    occurs at least twice."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = _check_inputs(embeddings, labels)
    recall, ap, n_queries = _ranking_metrics(embeddings, labels,
                                             recall_depths(ks, embeddings.shape[0]))
    c = int(np.unique(labels).size)
    clusters = kmeans(embeddings, c, seed=seed)
    score = nmi(labels, clusters)
    return EvalReport(
        recall_at=recall, nmi=score, map_score=ap, n_queries=n_queries, seed=seed
    )
