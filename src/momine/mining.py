"""Per-anchor positive/negative pools and epoch-level tuple sampling.

build_training_pool mines every pool mode in one pass over anchor blocks:
mined pools (positives are manifold neighbors that are not Euclidean
neighbors, negatives the reverse) or the Euclidean-NN baseline, then any
label oracle. A round's pools are one `Pools` of flat arrays, frozen once
mined; only the per-epoch hard-negative window reads the current embedding.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .diffusion import DiffusionConfig, solve_columns
from .errors import (AllPoolsEmpty, BadAnchors, BadGraph, BadPools, DimMismatch, LabelsMissing,
                     Ruled, read_lines, ruled)
from .features import FeatureSet, check_ids, check_labels
from .graph import _run_blocks, gram_rows, similarity, top_k

# anchors per block: the sampler's distance block is
# O(ANCHOR_BLOCK * max_neg * d), and build_training_pool solves and ranks at
# most ANCHOR_BLOCK anchors, and at most ANCHOR_CELLS // n, per block. A
# (rows, n) float64 array of the block CG and its rankings then takes at
# most 1 MiB (one row where n > ANCHOR_CELLS), so a worker's CG state stays
# near its core's L2 cache and mining's memory is not O(ANCHOR_BLOCK * n)
ANCHOR_BLOCK = 64
ANCHOR_CELLS = 2**17


@dataclass
class MiningConfig(Ruled):
    k_pos: int = ruled(50, ">= 1")
    k_neg: int = ruled(100, ">= 1")
    max_pos: int = ruled(0, ">= 0")  # 0 = unlimited
    max_neg: int = ruled(50, ">= 1")
    hard_subset_size: int = ruled(10, ">= 1")  # and <= max_neg
    mode: str = ruled("mined", ("mined", "baseline"))  # baseline: Euclidean kNN, drawn negatives
    baseline_k: int = ruled(5, ">= 1")  # the baseline's positives
    oracle: str = ruled("none", ("none", "positive", "negative"))  # that side from the labels

    def __post_init__(self):
        super().__post_init__()
        if self.hard_subset_size > self.max_neg:
            raise ValueError(f"hard_subset_size must be <= max_neg ({self.max_neg}),"
                             f" got {self.hard_subset_size!r}")


@dataclass(eq=False)
class Pools:
    """Every anchor's pools in order; an anchor may repeat. Pool i, of anchors[i],
    holds the next pos_sizes[i] pos_ids, by descending s_m (pos_weights), and
    the next neg_sizes[i] neg_ids, by descending s_e (neg_weights)."""

    anchors: np.ndarray
    pos_ids: np.ndarray
    pos_weights: np.ndarray
    pos_sizes: np.ndarray
    neg_ids: np.ndarray
    neg_weights: np.ndarray
    neg_sizes: np.ndarray


def _euclidean_block(features: FeatureSet, anchors: np.ndarray) -> np.ndarray:
    """s_e to each anchor, self at -inf, from one gram_rows block."""
    sims = similarity(gram_rows(features.data, anchors)[:, : features.n])
    sims[np.arange(len(anchors)), anchors] = -np.inf
    return sims


def _side(ranked: np.ndarray, keep: np.ndarray, values: np.ndarray) -> tuple:
    """(ids, weights, sizes) of one side: each row's ranked columns where keep holds."""
    return ranked[keep], np.take_along_axis(values, ranked, axis=1)[keep], keep.sum(axis=1)


def _block_pools(anchors: np.ndarray, manifold: np.ndarray, features: FeatureSet,
                 mining_config: MiningConfig) -> tuple:
    """The mined Pools of the anchors from their rows of the solved block
    `manifold`, and the anchors' Euclidean block. Positives: manifold
    top-k_pos minus Euclidean top-k_pos, by descending s_m, the first max_pos
    (0: all). Negatives: Euclidean top-k_neg minus manifold top-k_neg, by
    descending s_e, the first max_neg.

    Each side of the block is ranked once, to the larger k, by one 2-D
    top_k; the rankings are exact, so their prefixes are the smaller
    rankings. The anchor's own manifold value is set to -inf in place, which
    ranks the others as "top k+1, then drop self" does. Neighbor counts
    above n-1 are clamped (the large-set k_neg default can exceed a
    desk-scale collection).
    """
    rows = np.arange(anchors.size)[:, None]
    k_pos, k_neg = (min(k, features.n - 1) for k in (mining_config.k_pos, mining_config.k_neg))
    manifold[rows[:, 0], anchors] = -np.inf
    nn_m = top_k(manifold, max(k_pos, k_neg))
    sims = _euclidean_block(features, anchors)  # once top_k's temporaries are freed
    nn_e = top_k(sims, max(k_pos, k_neg))
    # membership in the other side's top-k, marked on n-wide rows: memory
    # O(block * n), where comparing every pair of two top-k lists is O(block * k^2)
    listed = np.zeros((2,) + manifold.shape, dtype=bool)
    listed[0, rows, nn_e[:, :k_pos]] = listed[1, rows, nn_m[:, :k_neg]] = True
    pos, neg = nn_m[:, :k_pos], nn_e[:, :k_neg]
    pos_kept, neg_kept = ~listed[0, rows, pos], ~listed[1, rows, neg]
    pos_kept &= np.cumsum(pos_kept, axis=1) <= (mining_config.max_pos or k_pos)
    neg_kept &= np.cumsum(neg_kept, axis=1) <= mining_config.max_neg
    return Pools(anchors, *_side(pos, pos_kept, manifold), *_side(neg, neg_kept, sims)), sims


def _ranked(keep: np.ndarray, sims: np.ndarray, limit=None) -> tuple:
    """One pool side of the block: per row, at most limit (None: all) of the
    columns where keep holds, by descending sims, ties by column: one top_k
    of the block with the other columns at -inf, each row cut to its count."""
    counts = np.minimum(np.count_nonzero(keep, axis=1), keep.shape[1] if limit is None else limit)
    k = int(counts.max(initial=0))
    ranked = top_k(np.where(keep, sims, -np.inf), k) if k else np.zeros((keep.shape[0], 0), int)
    return _side(ranked, np.arange(k) < counts[:, None], sims)


def _baseline_pools(anchors: np.ndarray, sims: np.ndarray, mining_config: MiningConfig,
                    seed) -> Pools:
    """Euclidean-NN baseline pools of each anchor: its baseline_k nearest
    neighbors, and a uniform draw of at most max_neg of the other items,
    seeded by (seed, anchor), by descending s_e."""
    n = sims.shape[1]
    rows = np.arange(anchors.size)
    nn_e = top_k(sims, min(mining_config.baseline_k, n - 1))
    rest = np.ones(sims.shape, dtype=bool)
    rest[rows[:, None], nn_e] = rest[rows, anchors] = False
    # every row leaves the same n - 1 - k candidates, so every anchor draws alike
    take = min(mining_config.max_neg, n - 1 - nn_e.shape[1])
    drawn = np.zeros(sims.shape, dtype=bool)
    for i, anchor in enumerate(anchors.tolist()):
        rng = np.random.default_rng([seed, anchor])
        drawn[i, rng.choice(np.flatnonzero(rest[i]), size=take, replace=False)] = True
    return Pools(anchors, *_side(nn_e, np.ones(nn_e.shape, bool), sims), *_ranked(drawn, sims))


def _oracle_pools(pools: Pools, sims: np.ndarray, labels: np.ndarray,
                  mining_config: MiningConfig) -> Pools:
    """The block's pools with one side swapped for label ground truth, by
    descending s_e: the anchor's other same-label items, at most max_pos (oracle
    "positive"), or its items of another label, at most max_neg ("negative")."""
    positive, anchors = mining_config.oracle == "positive", pools.anchors
    keep = (labels[anchors][:, None] == labels) == positive
    keep[np.arange(anchors.size), anchors] = False
    limit = (mining_config.max_pos or None) if positive else mining_config.max_neg
    side = _ranked(keep, sims, limit)
    if positive:
        return Pools(anchors, *side, pools.neg_ids, pools.neg_weights, pools.neg_sizes)
    return Pools(anchors, pools.pos_ids, pools.pos_weights, pools.pos_sizes, *side)


def build_training_pool(
    anchor_set,
    features: FeatureSet,
    operator: sp.csr_matrix | None,
    diffusion_config: DiffusionConfig,
    mining_config: MiningConfig,
    labels=None,
    seed=0,
):
    """The Pools of every anchor, in mining_config's mode.

    The m anchors are ranked in blocks of at most
    min(ANCHOR_BLOCK, max(1, ANCHOR_CELLS // n)), balanced over the worker
    threads (see graph._run_blocks): the fewest such blocks whose number is
    a multiple of the workers, so mining's memory is O(ANCHOR_CELLS + n)
    per worker. A block takes its Euclidean rows once and, for mined pools,
    solves its diffusion columns, each bit-equal to its single-anchor solve
    whatever the block size; the pools are joined in block order. Baseline
    pools need no `operator` (None); a given one must match the features' n,
    and mined pools raise BadGraph without one. Baseline negatives are drawn
    from default_rng([seed, anchor]); an oracle reads `labels`, one per item,
    and raises LabelsMissing without them.

    Diffusion solves that stop above diffusion_config.tolerance are counted
    in one warning. Anchors whose base pools (before an oracle swaps a side)
    are both empty are dropped and counted in one warning; AllPoolsEmpty is
    raised when none is left.
    """
    if operator is None and mining_config.mode == "mined":
        raise BadGraph("mined pools need the graph's diffusion operator")
    if operator is not None and operator.shape[0] != features.n:
        raise DimMismatch(f"graph has n={operator.shape[0]}, features have n={features.n}")
    anchors = check_ids(anchor_set.anchor_ids, features.n, BadAnchors, "anchor id")
    if mining_config.oracle != "none":
        if labels is None:
            raise LabelsMissing("oracle pools need the label sidecar")
        labels = np.asarray(labels)
        check_labels(labels, features.n)
    mined, stopped = {}, []

    def mine(spans):
        for start, stop in spans:
            ids = anchors[start:stop]
            if mining_config.mode == "baseline":
                sims = _euclidean_block(features, ids)
                pools = _baseline_pools(ids, sims, mining_config, seed)
            else:
                block = solve_columns(operator, ids, diffusion_config)
                stopped.append(np.count_nonzero(~block.converged))
                pools, sims = _block_pools(ids, block.values, features, mining_config)
            kept = (pools.pos_sizes > 0) | (pools.neg_sizes > 0)  # before an oracle swaps a side
            if mining_config.oracle != "none":
                pools = _oracle_pools(pools, sims, labels, mining_config)
            mined[start] = pools, kept
            del sims  # a (rows, n) block, not to be held through the next solve

    _run_blocks(anchors.size, min(ANCHOR_BLOCK, ANCHOR_CELLS // features.n), mine)
    if sum(stopped):
        warnings.warn(f"{sum(stopped)} of {anchors.size} diffusion solves stopped above "
                      "diffusion.tolerance", stacklevel=2)
    blocks = [mined[start] for start in sorted(mined)]
    kept = np.concatenate([keep for _, keep in blocks] or [np.zeros(0, bool)])  # no anchors: []
    if not kept.all():
        warnings.warn(f"dropped {np.count_nonzero(~kept)} anchors with empty pools", stacklevel=2)
    if not kept.any():
        raise AllPoolsEmpty("every anchor produced empty pools")
    # each field of the blocks' Pools joined, then the dropped anchors masked out
    pools = Pools(*map(np.concatenate, zip(*(vars(part).values() for part, _ in blocks))))
    pos, neg = np.repeat(kept, pools.pos_sizes), np.repeat(kept, pools.neg_sizes)
    return Pools(pools.anchors[kept], pools.pos_ids[pos], pools.pos_weights[pos],
                 pools.pos_sizes[kept], pools.neg_ids[neg], pools.neg_weights[neg],
                 pools.neg_sizes[kept])


@dataclass
class PoolTable:
    """The usable pools (with a positive and a negative) as the sampler
    reads them, in pool order. Pool i draws its positive from
    pos_ids[pos_offsets[i] : pos_offsets[i + 1]], and a tuple with positive t
    trains at weights[t]. Its negatives are neg_ids[i, : neg_sizes[i]],
    sorted by id; the rest of the row is 0."""

    anchors: np.ndarray
    pos_offsets: np.ndarray
    pos_ids: np.ndarray
    weights: np.ndarray
    neg_ids: np.ndarray
    neg_sizes: np.ndarray
    members: np.ndarray  # sorted ids of every anchor and member of every pool
    skipped: int  # pools without a positive or without a negative


def pool_table(pools: Pools, weighting: str) -> PoolTable:
    """The pools as one table. A tuple's weight is its positive's s_m
    ("none"); that divided by the largest s_m among all positives of the same
    anchor, in any pool, or 0 where that is not positive ("per-anchor-max");
    or 1 ("unit")."""
    anchors, weights = pools.anchors, pools.pos_weights
    n_pos, n_neg = pools.pos_sizes, pools.neg_sizes
    if weighting == "per-anchor-max":
        keys, owner = np.unique(np.repeat(anchors, n_pos), return_inverse=True)
        top = np.full(keys.size, -np.inf)
        np.maximum.at(top, owner, weights)
        weights = np.divide(weights, top[owner], out=np.zeros_like(weights), where=top[owner] > 0)
    elif weighting == "unit":
        weights = np.ones_like(weights)
    use = (n_pos > 0) & (n_neg > 0)
    sizes = n_neg[use]
    block = np.full((sizes.size, sizes.max(initial=0)), np.iinfo(np.int64).max)
    real = np.arange(block.shape[1]) < sizes[:, None]
    block[real] = pools.neg_ids[np.repeat(use, n_neg)]
    block.sort(axis=1)
    block[~real] = 0
    pos = np.repeat(use, n_pos)
    return PoolTable(anchors[use], np.concatenate([[0], np.cumsum(n_pos[use])]), pools.pos_ids[pos],
                     weights[pos], block, sizes,
                     np.unique(np.concatenate([anchors, pools.pos_ids, pools.neg_ids])),
                     anchors.size - sizes.size)


def sample_epoch_tuples(table: PoolTable, current_embeddings, mining_config: MiningConfig, seed):
    """One (anchor, positive, negative, weight) tuple per pool of the table.

    The positive is uniform over the positive pool; the negative is uniform
    over the hard window: the hard_subset_size pool members closest to the
    anchor in the current embedding space, ranked by top_k, ties by id.
    Returns the four columns as arrays and the table's skipped count.
    """
    anchors, ids, m = table.anchors, table.neg_ids, table.anchors.size
    z = np.asarray(current_embeddings)
    check_ids(table.members, len(z), BadPools, "pool member id")
    dists = np.empty(ids.shape)
    # np.linalg.norm's steps (square, add.reduce over the last axis, sqrt)
    # in one reused buffer: the same values bit for bit
    buf = np.empty((min(m, ANCHOR_BLOCK), ids.shape[1], z.shape[1]))
    for start in range(0, m, ANCHOR_BLOCK):
        block = slice(start, start + ANCHOR_BLOCK)
        diff = buf[: min(ANCHOR_BLOCK, m - start)]
        np.take(z, ids[block], axis=0, out=diff, mode="clip")  # ids checked above
        diff -= z[anchors[block], None]
        diff *= diff
        np.add.reduce(diff, axis=2, out=dists[block])
    np.sqrt(dists, out=dists)
    # +inf pads keep top_k's candidate bound, where NaN would not; ids ascend, so ties go by id
    dists[np.arange(ids.shape[1]) >= table.neg_sizes[:, None]] = np.inf
    k = min(mining_config.hard_subset_size, ids.shape[1])
    window = top_k(-dists, k) if k else np.zeros((m, 0), dtype=np.int64)
    # one draw per positive pool and per hard window, in pool order
    bounds = np.column_stack([np.diff(table.pos_offsets),
                              np.minimum(table.neg_sizes, mining_config.hard_subset_size)])
    pos_draws, neg_draws = np.random.default_rng(seed).integers(bounds).T
    rows = np.arange(m)
    pick = table.pos_offsets[:-1] + pos_draws
    negatives = ids[rows, window[rows, neg_draws]]
    return (anchors, table.pos_ids[pick], negatives, table.weights[pick]), table.skipped


def save_pools(pools: Pools, path) -> None:
    """JSON lines, one object per anchor, weights at 9 significant digits. A
    zero weight is written as 0 whatever its sign: "%.9g" writes -0.0 as "-0",
    which json reads back as the integer 0, so the file would not round-trip;
    adding 0.0 turns -0.0 into 0.0 and keeps every other weight."""
    sides = []
    for ids, weights, sizes in ((pools.pos_ids, pools.pos_weights, pools.pos_sizes),
                                (pools.neg_ids, pools.neg_weights, pools.neg_sizes)):
        pairs = ["[%d, %.9g]" % pair for pair in zip(ids.tolist(), (weights + 0.0).tolist())]
        ends = np.cumsum(sizes).tolist()
        sides.append([", ".join(pairs[start:end]) for start, end in zip([0] + ends, ends)])
    with open(path, "w") as fh:
        for anchor, pos, neg in zip(pools.anchors.tolist(), *sides):
            fh.write(f'{{"anchor": {anchor}, "positives": [{pos}], "negatives": [{neg}]}}\n')


def _is_id(j) -> bool:
    return type(j) is int and 0 <= j < 2**63  # an int64 array index


def _entry(pair) -> tuple:
    j, w = pair if isinstance(pair, list) and len(pair) == 2 else (None, None)
    if not _is_id(j) or type(w) not in (int, float) or not (math.isfinite(w) and w >= 0):
        raise ValueError(f"{pair!r} is not an [id >= 0, finite weight >= 0] pair")
    return j, float(w)


def _pool_line(line) -> tuple:
    """(anchor, positives, negatives) of one line, each side [(id, weight), ...]."""
    obj = json.loads(line.rstrip())
    if not (isinstance(obj, dict) and _is_id(obj.get("anchor"))):
        raise ValueError('not an object with an integer "anchor" >= 0')
    return obj["anchor"], *([_entry(e) for e in obj[side]] for side in ("positives", "negatives"))


def load_pools(path) -> Pools:
    """Read a pools file written by :func:`save_pools`. Raises BadPools,
    naming the file and line, on a line that is not an object with an integer
    "anchor" and "positives" and "negatives" lists of [id, weight] pairs
    (ids below 2^63, both >= 0, weights finite), and on a file without pools."""
    lines = read_lines(path, BadPools, _pool_line)
    if not lines:
        raise BadPools(f"{path}: no pools")
    anchors, *sides = zip(*lines)
    columns = [np.array(anchors, dtype=np.int64)]
    for side in sides:  # the positives, then the negatives
        pairs = [pair for pool in side for pair in pool]
        columns += [np.array([j for j, _ in pairs], dtype=np.int64),
                    np.array([w for _, w in pairs], dtype=np.float64),
                    np.array([len(pool) for pool in side], dtype=np.int64)]
    return Pools(*columns)
