"""Shared builders and independent oracles for the test suite.

The oracles here re-derive expected values straight from definitions
(exhaustive scans, dense solves, hand counting) and never call the code
paths they are checking.
"""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from momine.diffusion import SimilarityBlock, solve_columns
from momine.errors import EmptyGraph
from momine.evaluation import _row_aps
from momine.graph import (
    GRAPH_MAGIC,
    RANK_ROWS,
    _check_edges,
    _mirrored_graph,
    _run_blocks,
    gram_rows,
    knn_search,
    similarity,
    top_k,
)
from momine.mining import AnchorPools, _block_pools
from momine.trainer import _LOSSES, _backward, _forward_cache, forward, sgd_momentum_step

DENSE_ORACLE_LIMIT = 2000


def graph_from_edges(n, k, edges):
    """A graph from (i, j, w) triples with i < j; each edge is mirrored."""
    edges = np.array(list(edges), dtype=object).reshape(-1, 3)
    i, j = (edges[:, c].astype(np.int64) for c in (0, 1))
    w = edges[:, 2].astype(np.float64)
    _check_edges(n, i, j, w)
    return _mirrored_graph(n, k, i, j, w)


class TooLarge(Exception):
    """Instance exceeds the dense oracle's size guard."""


def dense_oracle(operator, alpha):
    """Dense (1-alpha)(I - alpha*S)^-1 by direct solve."""
    n = operator.n
    if n > DENSE_ORACLE_LIMIT:
        raise TooLarge(f"dense oracle capped at n={DENSE_ORACLE_LIMIT}, got {n}")
    m = np.eye(n) - alpha * operator.matrix.toarray()
    return np.linalg.solve(m, (1.0 - alpha) * np.eye(n))


@dataclass
class StationaryDistribution:
    pi: np.ndarray
    iterations_used: int
    converged: bool
    l1_delta: float


def power_iteration(graph, tolerance=1e-10, max_iterations=10000):
    """Reference for anchors.stationary: iterate pi <- pi P on the
    row-stochastic P = D^-1 A from the uniform distribution until the L1
    change drops below tolerance.

    The vector is renormalized to sum 1 every step since isolated nodes leak
    mass. stationary is the closed form of its limit (and of its Cesaro mean
    on a bipartite component, where the iterate oscillates).
    """
    if graph.adjacency.nnz == 0:
        raise EmptyGraph("graph has no edges; the walk is undefined")
    d = graph.degrees
    inv = np.zeros_like(d)
    inv[d > 0] = 1.0 / d[d > 0]
    pt = sp.diags(inv).dot(graph.adjacency).T.tocsr()  # pi @ P as a csr matvec
    pi = np.full(graph.n, 1.0 / graph.n)
    delta = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        nxt = pt @ pi
        nxt /= nxt.sum()
        delta = float(np.abs(nxt - pi).sum())
        pi = nxt
        if delta <= tolerance:
            return StationaryDistribution(pi, iterations, True, delta)
    return StationaryDistribution(pi, iterations, False, delta)


def raises_with_peak(error, call):
    """The peak of Python-tracked memory while call() raises `error`."""
    tracemalloc.start()
    try:
        try:
            call()
        except error:
            return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    raise AssertionError(f"{error.__name__} not raised")


def random_graph(n, seed, extra_edges=None, connected=True, ensure_triangle=True):
    """Random weighted undirected graph: spanning tree plus extra edges.

    With the defaults the graph is connected and non-bipartite (a triangle
    on nodes 0,1,2 is forced), weights uniform in (0.1, 1].
    """
    rng = np.random.default_rng(seed)
    edges = {}
    if connected:
        for j in range(1, n):
            i = int(rng.integers(j))
            edges[(i, j)] = 0.1 + 0.9 * rng.random()
    if extra_edges is None:
        extra_edges = n
    for _ in range(extra_edges):
        i, j = rng.integers(n), rng.integers(n)
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        edges[key] = 0.1 + 0.9 * rng.random()
    if ensure_triangle and n >= 3:
        for key in ((0, 1), (1, 2), (0, 2)):
            edges.setdefault(key, 0.1 + 0.9 * rng.random())
    return graph_from_edges(
        n, k=n, edges=[(i, j, w) for (i, j), w in sorted(edges.items())]
    )


def circulant_graph(n, offsets=(1, 2), weight=1.0):
    """Regular graph: node i linked to i +- each offset (mod n). With offsets
    (1, 2) it contains triangles, hence non-bipartite."""
    edges = {}
    for i in range(n):
        for off in offsets:
            j = (i + off) % n
            key = (min(i, j), max(i, j))
            edges[key] = weight
    return graph_from_edges(n, k=n, edges=[(i, j, w) for (i, j), w in sorted(edges.items())])


def knn_oracle(data, k):
    """Exhaustive top-k by clipped-cubed cosine, ties by ascending index."""
    n = data.shape[0]
    out = []
    for i in range(n):
        sims = []
        for j in range(n):
            if j == i:
                continue
            sims.append((-max(float(np.dot(data[i], data[j])), 0.0) ** 3, j))
        sims.sort()
        out.append([j for _, j in sims[:k]])
    return out


def pair_dot_knn_oracle(data, k):
    """Exhaustive top-k by clipped-cubed pair dot, ties by ascending index:
    each dot is the einsum of the pair's two rows, as build_reciprocal_graph
    weighs an edge, and each row is one lexsort."""
    n = data.shape[0]
    scores = np.empty((n, n))
    for i in range(n):
        scores[i] = np.einsum("ij,ij->i", np.repeat(data[i : i + 1], n, axis=0), data)
    scores = np.clip(scores, 0.0, None) ** 3
    np.fill_diagonal(scores, -np.inf)
    return lexsort_top_k(scores, k)


def reciprocal_graph_reference(features, k):
    """Reference for graph.build_reciprocal_graph: the mutual pairs of
    knn_search, every pair's endpoints gathered at once and weighed by one
    einsum over all of them."""
    n = features.n
    nbrs = knn_search(features, k)
    rows = np.repeat(np.arange(n), k)
    listed = sp.csr_matrix((np.ones(n * k, dtype=bool), (rows, nbrs.ravel())), shape=(n, n))
    mutual = sp.triu(listed.multiply(listed.T), k=1).tocoo()
    ii, jj = mutual.row, mutual.col
    w = similarity(np.einsum("ij,ij->i", features.data[ii], features.data[jj]))
    keep = w > 0
    return _mirrored_graph(n, k, ii[keep], jj[keep], w[keep])


def save_graph_reference(graph, path):
    """Reference for graph.save_graph: every edge line formatted at once and
    written as one joined string."""
    coo = sp.triu(graph.adjacency, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    edges = map(
        "{} {} {:.9g}\n".format,
        coo.row[order].tolist(), coo.col[order].tolist(), coo.data[order].tolist(),
    )
    with open(path, "w") as fh:
        fh.write(f"{GRAPH_MAGIC} {graph.n} {graph.k}\n" + "".join(edges))


def disjoint_union(*graphs, isolated=0):
    """One graph holding the given graphs side by side (node ids offset in
    order), followed by `isolated` nodes without edges."""
    edges, offset = [], 0
    for g in graphs:
        coo = g.adjacency.tocoo()
        upper = coo.row < coo.col
        edges += [(int(i) + offset, int(j) + offset, float(w))
                  for i, j, w in zip(coo.row[upper], coo.col[upper], coo.data[upper])]
        offset += g.n
    n = offset + isolated
    return graph_from_edges(n, k=n, edges=sorted(edges))


def neighbors(graph, i):
    """Ids of the nodes adjacent to node i, ascending."""
    return graph.adjacency.indices[graph.adjacency.indptr[i] : graph.adjacency.indptr[i + 1]]


def components_reference(graph):
    """Breadth-first search from each unlabelled node in ascending order, so
    every node is labelled with the smallest id in its component."""
    label = np.full(graph.n, -1, dtype=np.int64)
    for start in range(graph.n):
        if label[start] >= 0:
            continue
        label[start] = start
        queue = [start]
        for i in queue:
            for j in neighbors(graph, i):
                if label[j] < 0:
                    label[j] = start
                    queue.append(j)
    return label


def local_maxima_reference(graph, pi):
    """Reference for anchors.local_maxima: flood the exact-equality plateau of
    every non-isolated node in index order, keeping the smallest index of each
    plateau that has no strictly greater neighbour."""
    pi = np.asarray(pi, dtype=np.float64)
    indptr, cols = graph.adjacency.indptr, graph.adjacency.indices
    visited = np.zeros(graph.n, dtype=bool)
    out = []
    for start in range(graph.n):
        if visited[start] or indptr[start] == indptr[start + 1]:
            continue
        level = pi[start]
        plateau = [start]
        visited[start] = True
        dominated = False
        q = 0
        while q < len(plateau):
            i = plateau[q]
            q += 1
            for j in cols[indptr[i] : indptr[i + 1]]:
                if pi[j] > level:
                    dominated = True
                elif pi[j] == level and not visited[j]:
                    visited[j] = True
                    plateau.append(j)
        if not dominated:
            out.append(min(plateau))
    out.sort()
    return out


def local_maxima_oracle(graph, pi):
    """Direct neighbor comparison; assumes pi has no exact ties."""
    out = []
    for i in range(graph.n):
        nbrs = neighbors(graph, i)
        if len(nbrs) == 0:
            continue
        if all(pi[i] > pi[j] for j in nbrs):
            out.append(i)
    return out


def recall_oracle(embeddings, labels, k):
    """Definition-level Recall@k with the same tie rule (distance, index)."""
    n = len(labels)
    hits = 0
    scorable = 0
    for i in range(n):
        order = sorted(
            (float(np.linalg.norm(embeddings[i] - embeddings[j])), j)
            for j in range(n)
            if j != i
        )
        rel = [j for _, j in order if labels[j] == labels[i]]
        if not rel:
            continue
        scorable += 1
        if any(labels[j] == labels[i] for _, j in order[:k]):
            hits += 1
    return hits / scorable


def ap_oracle(embeddings, labels, query):
    """Average precision for one query, precision accumulated at each hit."""
    n = len(labels)
    order = sorted(
        (float(np.linalg.norm(embeddings[query] - embeddings[j])), j)
        for j in range(n)
        if j != query
    )
    hits = 0
    precisions = []
    for rank, (_, j) in enumerate(order, start=1):
        if labels[j] == labels[query]:
            hits += 1
            precisions.append(hits / rank)
    if not precisions:
        return None
    return float(np.mean(precisions))


def map_oracle(embeddings, labels):
    aps = [ap_oracle(embeddings, labels, q) for q in range(len(labels))]
    aps = [a for a in aps if a is not None]
    return float(np.mean(aps))


def nmi_oracle(a, b):
    """Contingency-table NMI with the arithmetic-mean normalizer."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = len(a)
    mi = 0.0
    pa = {}
    pb = {}
    joint = {}
    for x, y in zip(a, b):
        pa[x] = pa.get(x, 0) + 1
        pb[y] = pb.get(y, 0) + 1
        joint[(x, y)] = joint.get((x, y), 0) + 1
    for (x, y), c in joint.items():
        p = c / n
        mi += p * np.log(p / ((pa[x] / n) * (pb[y] / n)))
    ha = -sum((c / n) * np.log(c / n) for c in pa.values())
    hb = -sum((c / n) * np.log(c / n) for c in pb.values())
    denom = 0.5 * (ha + hb)
    if denom <= 0:
        return 0.0
    return max(0.0, min(1.0, mi / denom))


def lexsort_top_k(scores, k):
    """Reference for graph.top_k: a full lexsort per row on (-score, index)."""
    scores = np.asarray(scores)
    rows = np.atleast_2d(scores)
    idx = np.arange(rows.shape[1])
    out = np.array([np.lexsort((idx, -row))[:k] for row in rows])
    return out[0] if scores.ndim == 1 else out


def ranked_others(embeddings):
    """Per query, all other indices ordered by ascending Euclidean distance,
    ties by ascending index; the distances come from one n x n product."""
    n = embeddings.shape[0]
    sq = np.sum(embeddings**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (embeddings @ embeddings.T)
    idx = np.arange(n)
    out = np.empty((n, n - 1), dtype=np.int64)
    for i in range(n):
        row = d2[i].copy()
        row[i] = np.inf
        out[i] = np.lexsort((idx, row))[: n - 1]
    return out


def ranking_metrics_oracle(embeddings, labels, ks):
    """(Recall@k per k, mAP, n_queries) by per-query loops over ranked_others."""
    labels = np.asarray(labels)
    ranked = ranked_others(np.asarray(embeddings, dtype=np.float64))
    hits = {k: 0 for k in ks}
    aps = []
    for i in range(len(labels)):
        rel = labels[ranked[i]] == labels[i]
        total = int(rel.sum())
        if total == 0:
            continue
        for k in ks:
            hits[k] += bool(rel[:k].any())
        hit_ranks = np.flatnonzero(rel) + 1
        aps.append(float((np.arange(1, total + 1) / hit_ranks).mean()))
    return {k: hits[k] / len(aps) for k in ks}, float(np.mean(aps)), len(aps)


def ranking_metrics_reference(embeddings, labels, ks):
    """Reference for evaluation._ranking_metrics: each block of queries is
    ranked by top_k on the negated squared distances, the self score -inf,
    built on the first n columns of gram_rows. The blocks are the ones
    _run_blocks gives _ranking_metrics, so a failure (such as _row_aps on an
    inf row) names the same block shape."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    totals = counts[inverse] - 1
    scorable = int(np.count_nonzero(totals))
    depth = n - 1
    sq = np.sum(embeddings**2, axis=1)
    hits = np.zeros(len(ks), dtype=np.int64)
    aps = np.empty(n)
    spans = []
    _run_blocks(n, RANK_ROWS, spans.extend)
    for start, stop in sorted(spans):
        score = gram_rows(embeddings, slice(start, stop))[:, :n]
        score *= 2.0
        score -= sq[start:stop, None] + sq[None, :]
        score[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        rel = inverse[top_k(score, depth)] == inverse[start:stop, None]
        first = np.where(rel.any(axis=1), rel.argmax(axis=1), depth)
        hits += np.count_nonzero(first[:, None] < np.asarray(ks), axis=0)
        aps[start:stop] = _row_aps(rel, totals[start:stop])
    recall = {k: int(h) / scorable for k, h in zip(ks, hits)}
    return recall, float(np.mean(aps[totals > 0])), scorable


def solve_column_reference(operator, anchor, config):
    """Reference for diffusion.solve_columns: CG on one vector, with one
    sparse matvec and scalar dot products per iteration, best iterate kept.
    Returns a one-row block."""
    n = operator.n
    alpha = config.alpha
    mat = operator.matrix
    b = np.zeros(n)
    b[anchor] = 1.0 - alpha
    if mat.indptr[anchor] == mat.indptr[anchor + 1]:  # isolated: system decouples
        return SimilarityBlock(b[None], np.zeros(1), np.zeros(1, np.int64), np.ones(1, bool))
    b_norm = 1.0 - alpha
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    best_x = x.copy()
    best_rel = np.sqrt(rs) / b_norm
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        ap = p - alpha * (mat @ p)
        denom = float(p @ ap)
        if denom <= 0.0:
            iterations -= 1
            break
        gamma = rs / denom
        x += gamma * p
        r -= gamma * ap
        rs_new = float(r @ r)
        rel = np.sqrt(rs_new) / b_norm
        if rel < best_rel:
            best_rel = rel
            best_x = x.copy()
        if best_rel <= config.tolerance:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return SimilarityBlock(best_x[None], np.array([best_rel]), np.array([iterations]),
                           np.array([converged]))


def euclidean_row(features, anchor):
    """s_e of one anchor to every item, the clipped cube of its float64 dots
    from gram_rows, the one product mining takes them from: a GEMV such as
    x @ x[anchor] rounds some of them differently."""
    return np.clip(gram_rows(features.data, [anchor])[0, : features.n], 0.0, None) ** 3


def pools_two_rankings(anchor, values, features, mining_config):
    """Reference for mining's one-ranking pools from the anchor's column
    `values`: each side ranked separately at k_pos and at k_neg by a full
    lexsort, as the pool rule reads."""
    n = features.n
    k_pos = min(mining_config.k_pos, n - 1)
    k_neg = min(mining_config.k_neg, n - 1)
    manifold = values.copy()
    manifold[anchor] = -np.inf
    sims = euclidean_row(features, anchor)
    sims[anchor] = -np.inf
    m_pos, e_pos = lexsort_top_k(manifold, k_pos), lexsort_top_k(sims, k_pos)
    positives = [(int(j), float(values[j])) for j in m_pos if j not in set(e_pos)]
    positives = positives[: mining_config.max_pos or None]
    m_neg, e_neg = lexsort_top_k(manifold, k_neg), lexsort_top_k(sims, k_neg)
    negatives = [(int(j), float(sims[j])) for j in e_neg if j not in set(m_neg)]
    return AnchorPools(anchor, positives, negatives[: mining_config.max_neg])


def mine_pools(anchor, features, operator, diffusion_config, mining_config):
    """One anchor's pools from its single diffusion solve, as
    mining.build_training_pool mines them, empty pools included."""
    block = solve_columns(operator, [anchor], diffusion_config)
    pools, _ = _block_pools(np.array([anchor]), block.values, features, mining_config)
    return pools[0]


def sample_epoch_tuples_reference(pools, current_embeddings, mining_config, seed):
    """Reference for mining.sample_epoch_tuples: one step per pool, with a
    scalar draw for the positive and one for the hard-window negative.
    Returns ((anchor, positive, negative, weight) lists, skipped)."""
    rng = np.random.default_rng(seed)
    z = np.asarray(current_embeddings)
    tuples = []
    skipped = 0
    for pool in pools:
        if not pool.positives or not pool.negatives:
            skipped += 1
            continue
        pos_id, pos_w = pool.positives[rng.integers(len(pool.positives))]
        neg_ids = np.asarray([j for j, _ in pool.negatives], dtype=np.int64)
        dists = np.linalg.norm(z[neg_ids] - z[pool.anchor_id], axis=1)
        window = neg_ids[np.lexsort((neg_ids, dists))[: mining_config.hard_subset_size]]
        neg_id = int(window[rng.integers(len(window))])
        tuples.append((pool.anchor_id, int(pos_id), neg_id, float(pos_w)))
    return tuple(list(col) for col in zip(*tuples)) or ([], [], [], []), skipped


def tuple_lists(tuples):
    """The (anchor, positive, negative, weight) arrays of sample_epoch_tuples as lists."""
    return tuple(np.asarray(col).tolist() for col in tuples)


def train_reference(features, pools, model, train_config, mining_config, seed=0):
    """Reference for trainer.train: tuples drawn pool by pool as Python
    tuples, batches assembled from them, per-anchor-max weights taken over
    every positive of the anchor in any pool."""
    max_w = {}
    for pool in pools:
        for _, w in pool.positives:
            max_w[pool.anchor_id] = max(max_w.get(pool.anchor_id, w), w)
    members = sorted({p.anchor_id for p in pools}
                     | {j for p in pools for j, _ in p.positives + p.negatives})
    loss_fn = _LOSSES[train_config.loss]
    velocity = [[np.zeros_like(w), np.zeros_like(b)] for w, b in model.layers]
    shuffle_rng = np.random.default_rng([seed, 1])
    log = []
    for epoch in range(train_config.epochs):
        lr = train_config.lr0 * train_config.lr_decay ** (epoch // train_config.lr_decay_every)
        z_pool = np.zeros((features.n, model.output_dim))
        z_pool[members] = forward(model, features.data[members])
        columns, _ = sample_epoch_tuples_reference(
            pools, z_pool, mining_config, [seed, 2, epoch]
        )
        tuples = list(zip(*columns))
        if not tuples:
            log.append({"epoch": epoch, "mean_loss": 0.0, "lr": lr, "tuples_used": 0})
            continue
        order = shuffle_rng.permutation(len(tuples))
        total = 0.0
        for start in range(0, len(order), train_config.batch_size):
            batch = [tuples[t] for t in order[start : start + train_config.batch_size]]
            r_ids, p_ids, n_ids = (np.asarray([t[c] for t in batch]) for c in range(3))
            if train_config.weight_normalization == "unit":
                w = np.ones(len(batch))
            elif train_config.weight_normalization == "per-anchor-max":
                w = np.asarray([t[3] / max_w[t[0]] if max_w[t[0]] > 0 else 0.0 for t in batch])
            else:
                w = np.asarray([t[3] for t in batch])
            zr, cr = _forward_cache(model, features.data[r_ids])
            zp, cp = _forward_cache(model, features.data[p_ids])
            zn, cn = _forward_cache(model, features.data[n_ids])
            losses, g_r, g_p, g_n = loss_fn(zr, zp, zn, train_config.margin)
            scale = (w / len(batch))[:, None]
            grads = [[np.zeros_like(wm), np.zeros_like(bm)] for wm, bm in model.layers]
            _backward(model, cr, g_r * scale, grads)
            _backward(model, cp, g_p * scale, grads)
            _backward(model, cn, g_n * scale, grads)
            sgd_momentum_step(model.layers, grads, velocity, lr, train_config.momentum)
            total += float(np.sum(losses * w))
        log.append({"epoch": epoch, "mean_loss": total / len(tuples), "lr": lr,
                    "tuples_used": len(tuples)})
    return model, log


def baseline_pools_reference(anchor, features, k_base, seed, max_neg):
    """Reference for one anchor's baseline pools (mining.build_training_pool
    with mode "baseline"): the candidate set built by a Python loop and every
    ranking by a full lexsort on (-s_e, id)."""
    n = features.n
    sims = euclidean_row(features, anchor)
    others = sims.copy()
    others[anchor] = -np.inf
    nn_e = lexsort_top_k(others, min(k_base, n - 1))
    excluded = set(nn_e.tolist()) | {anchor}
    candidates = np.asarray([j for j in range(n) if j not in excluded], dtype=np.int64)
    rng = np.random.default_rng([seed, anchor])
    take = min(max_neg, candidates.size)
    drawn = rng.choice(candidates, size=take, replace=False) if take else candidates[:0]
    drawn = drawn[np.lexsort((drawn, -sims[drawn]))]
    return AnchorPools(anchor, [(int(j), float(sims[j])) for j in nn_e],
                       [(int(j), float(sims[j])) for j in drawn])


def oracle_side_reference(anchor, features, labels, same_label, limit):
    """Reference for the side an oracle swaps in (mining.build_training_pool
    with an oracle): the other-than-anchor items with (or without) the
    anchor's label by a full lexsort on (-s_e, id)."""
    sims = euclidean_row(features, anchor)
    ids = np.flatnonzero((np.asarray(labels) == labels[anchor]) == same_label)
    ids = ids[ids != anchor]
    ids = ids[np.lexsort((ids, -sims[ids]))][:limit]
    return [(int(j), float(sims[j])) for j in ids]
