"""Per-anchor positive/negative pools and epoch-level tuple sampling.

build_training_pool mines every pool mode in one pass over anchor blocks:
mined pools (positives are manifold neighbors that are not Euclidean
neighbors, negatives the reverse) or the Euclidean-NN baseline, then any
label oracle. Pools are computed once per mining round and frozen; only the
per-epoch hard-negative window looks at the current embedding.
"""

import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .diffusion import DiffusionConfig, solve_columns
from .errors import (AllPoolsEmpty, BadAnchors, BadGraph, BadPools, DimMismatch, LabelsMissing,
                     read_lines)
from .features import FeatureSet, check_ids, check_labels
from .graph import NormalizedOperator, _run_blocks, gram_rows, similarity, top_k

# anchors per block: the sampler's distance block is
# O(ANCHOR_BLOCK * max_neg * d), and build_training_pool solves and ranks at
# most ANCHOR_BLOCK anchors, and at most ANCHOR_CELLS // n, per block. A
# (rows, n) float64 array of the block CG and its rankings then takes at
# most 1 MiB (one row where n > ANCHOR_CELLS), so a worker's CG state stays
# near its core's L2 cache and mining's memory is not O(ANCHOR_BLOCK * n)
ANCHOR_BLOCK = 64
ANCHOR_CELLS = 2**17


@dataclass
class MiningConfig:
    k_pos: int = 50
    k_neg: int = 100
    max_pos: int = 0  # 0 = unlimited
    max_neg: int = 50
    hard_subset_size: int = 10
    mode: str = "mined"  # mined | baseline (Euclidean-NN positives, drawn negatives)
    baseline_k: int = 5  # the baseline's positives
    oracle: str = "none"  # none | positive | negative: that side from the labels

    def __post_init__(self):
        if self.k_pos < 1 or self.k_neg < 1:
            raise ValueError("k_pos and k_neg must be >= 1")
        if self.max_pos < 0:
            raise ValueError(f"max_pos must be >= 0 (0 = unlimited), got {self.max_pos!r}")
        if self.max_neg < 1:
            raise ValueError("max_neg must be >= 1")
        if not 1 <= self.hard_subset_size <= self.max_neg:
            raise ValueError("hard_subset_size must be in [1, max_neg]")
        if self.mode not in ("mined", "baseline"):
            raise ValueError(f"mode must be 'mined' or 'baseline', got {self.mode!r}")
        if self.baseline_k < 1:
            raise ValueError(f"baseline_k must be >= 1, got {self.baseline_k!r}")
        if self.oracle not in ("none", "positive", "negative"):
            raise ValueError(f"oracle must be 'none', 'positive' or 'negative', got {self.oracle!r}")


@dataclass
class AnchorPools:
    """Ordered pools for one anchor: positives by descending manifold
    similarity, negatives by descending Euclidean similarity."""

    anchor_id: int
    positives: list  # [(item_id, s_m), ...]
    negatives: list  # [(item_id, s_e), ...]


def _euclidean_block(features: FeatureSet, anchors: np.ndarray) -> np.ndarray:
    """s_e to each anchor, self at -inf, from one gram_rows block."""
    sims = similarity(gram_rows(features.data, anchors)[:, : features.n])
    sims[np.arange(len(anchors)), anchors] = -np.inf
    return sims


def _pairs(ids: np.ndarray, values: np.ndarray) -> list:
    return list(zip(ids.tolist(), values[ids].tolist()))


def _block_pools(anchors: np.ndarray, manifold: np.ndarray, features: FeatureSet,
                 mining_config: MiningConfig) -> tuple:
    """The mined pools of each anchor from its row of the solved block
    `manifold`, and the anchors' Euclidean block. Positives: manifold
    top-k_pos minus Euclidean top-k_pos, by descending s_m. Negatives:
    Euclidean top-k_neg minus manifold top-k_neg, by descending s_e, capped
    at max_neg.

    Each side of the block is ranked once, to the larger k, by one 2-D
    top_k; the rankings are exact, so their prefixes are the smaller
    rankings. The anchor's own manifold value is set to -inf in place, which
    ranks the others as "top k+1, then drop self" does. Neighbor counts
    above n-1 are clamped (the large-set k_neg default can exceed a
    desk-scale collection).
    """
    n = features.n
    rows = np.arange(anchors.size)[:, None]
    k_pos = min(mining_config.k_pos, n - 1)
    k_neg = min(mining_config.k_neg, n - 1)
    manifold[rows[:, 0], anchors] = -np.inf
    nn_m = top_k(manifold, max(k_pos, k_neg))
    sims = _euclidean_block(features, anchors)  # once top_k's temporaries are freed
    nn_e = top_k(sims, max(k_pos, k_neg))
    # membership in the other side's top-k, marked on n-wide rows: memory
    # O(block * n), where comparing every pair of two top-k lists is O(block * k^2)
    listed = np.zeros((2,) + manifold.shape, dtype=bool)
    listed[0, rows, nn_e[:, :k_pos]] = listed[1, rows, nn_m[:, :k_neg]] = True
    pos_kept = ~listed[0, rows, nn_m[:, :k_pos]]
    neg_kept = ~listed[1, rows, nn_e[:, :k_neg]]
    pools = []
    for i, anchor in enumerate(anchors.tolist()):
        pos = nn_m[i, :k_pos][pos_kept[i]][: mining_config.max_pos or None]
        neg = nn_e[i, :k_neg][neg_kept[i]][: mining_config.max_neg]
        pools.append(AnchorPools(anchor, _pairs(pos, manifold[i]), _pairs(neg, sims[i])))
    return pools, sims


def _ranked(keep: np.ndarray, sims: np.ndarray, limit=None) -> list:
    """Per row of the block, at most limit (None: all) of the columns where
    keep holds, by descending sims, ties by column: one top_k of the block
    with the other columns at -inf, each row cut to its own count."""
    counts = np.minimum(np.count_nonzero(keep, axis=1), keep.shape[1] if limit is None else limit)
    k = int(counts.max(initial=0))
    ranked = top_k(np.where(keep, sims, -np.inf), k) if k else np.zeros((keep.shape[0], 0), int)
    return [row[:count] for row, count in zip(ranked, counts.tolist())]


def _baseline_pools(anchors: np.ndarray, sims: np.ndarray, mining_config: MiningConfig,
                    seed) -> list:
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
    return [AnchorPools(anchor, _pairs(pos, row), _pairs(neg, row))
            for anchor, pos, neg, row in zip(anchors.tolist(), nn_e, _ranked(drawn, sims), sims)]


def _oracle_pools(pools: list, anchors: np.ndarray, sims: np.ndarray, labels: np.ndarray,
                  mining_config: MiningConfig) -> list:
    """The pools with one side swapped for label ground truth, by descending
    s_e: the anchor's other same-label items, at most max_pos (oracle
    "positive"), or its items of another label, at most max_neg ("negative")."""
    positive = mining_config.oracle == "positive"
    keep = (labels[anchors][:, None] == labels) == positive
    keep[np.arange(anchors.size), anchors] = False
    limit = (mining_config.max_pos or None) if positive else mining_config.max_neg
    sides = [_pairs(ids, row) for ids, row in zip(_ranked(keep, sims, limit), sims)]
    if positive:
        return [AnchorPools(p.anchor_id, side, p.negatives) for p, side in zip(pools, sides)]
    return [AnchorPools(p.anchor_id, p.positives, side) for p, side in zip(pools, sides)]


def build_training_pool(
    anchor_set,
    features: FeatureSet,
    operator: NormalizedOperator | None,
    diffusion_config: DiffusionConfig,
    mining_config: MiningConfig,
    labels=None,
    seed=0,
):
    """Pools for every anchor, in mining_config's mode, plus the item union they span.

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
    if operator is not None and operator.n != features.n:
        raise DimMismatch(f"graph has n={operator.n}, features have n={features.n}")
    anchors = check_ids(anchor_set.anchor_ids, features.n, BadAnchors, "anchor id")
    if mining_config.oracle != "none":
        if labels is None:
            raise LabelsMissing("oracle pools need the label sidecar")
        labels = np.asarray(labels)
        check_labels(labels, features.n)
    mined, stopped, dropped = {}, [], []

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
            kept = [i for i, p in enumerate(pools) if p.positives or p.negatives]
            dropped.append(len(pools) - len(kept))
            if mining_config.oracle != "none":
                pools = _oracle_pools(pools, ids, sims, labels, mining_config)
            mined[start] = [pools[i] for i in kept]
            del sims  # a (rows, n) block, not to be held through the next solve

    _run_blocks(anchors.size, min(ANCHOR_BLOCK, ANCHOR_CELLS // features.n), mine)
    if sum(stopped):
        warnings.warn(f"{sum(stopped)} of {anchors.size} diffusion solves stopped above "
                      "diffusion.tolerance", stacklevel=2)
    if sum(dropped):
        warnings.warn(f"dropped {sum(dropped)} anchors with empty pools", stacklevel=2)
    pools = list(chain.from_iterable(mined[start] for start in sorted(mined)))
    if not pools:
        raise AllPoolsEmpty("every anchor produced empty pools")
    members = [p.anchor_id for p in pools] + [j for p in pools for j, _ in p.positives + p.negatives]
    return pools, np.unique(np.array(members, dtype=np.int64))


@dataclass
class PoolTable:
    """Pools flattened for sampling, in pool order, keeping the usable ones
    (with a positive and a negative). Pool i draws its positive from
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


def pool_table(pools: list, weighting: str) -> PoolTable:
    """The pools as one table. A tuple's weight is its positive's s_m
    ("none"); that divided by the largest s_m among all positives of the same
    anchor, in any pool, or 0 where that is not positive ("per-anchor-max");
    or 1 ("unit")."""
    anchors = np.fromiter((p.anchor_id for p in pools), np.int64, len(pools))
    n_pos = np.fromiter((len(p.positives) for p in pools), np.int64, len(pools))
    n_neg = np.fromiter((len(p.negatives) for p in pools), np.int64, len(pools))
    pos_ids = np.fromiter((j for p in pools for j, _ in p.positives), np.int64, n_pos.sum())
    weights = np.fromiter((w for p in pools for _, w in p.positives), np.float64, n_pos.sum())
    neg_ids = np.fromiter((j for p in pools for j, _ in p.negatives), np.int64, n_neg.sum())
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
    block[real] = neg_ids[np.repeat(use, n_neg)]
    block.sort(axis=1)
    block[~real] = 0
    return PoolTable(
        anchors[use], np.concatenate([[0], np.cumsum(n_pos[use])]),
        pos_ids[np.repeat(use, n_pos)], weights[np.repeat(use, n_pos)], block, sizes,
        np.unique(np.concatenate([anchors, pos_ids, neg_ids])), len(pools) - sizes.size,
    )


def sample_epoch_tuples(table: PoolTable, current_embeddings, mining_config: MiningConfig, seed):
    """One (anchor, positive, negative, weight) tuple per pool of the table.

    The positive is uniform over the positive pool; the negative is uniform
    over the hard window: the hard_subset_size pool members closest to the
    anchor in the current embedding space, ties by id. Returns the four
    columns as arrays and the table's skipped count.
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
    dists[np.arange(ids.shape[1]) >= table.neg_sizes[:, None]] = np.nan
    # rows are sorted by id, so a stable sort breaks distance ties by id
    order = np.argsort(dists, axis=1, kind="stable")
    # one draw per positive pool and per hard window, in pool order
    bounds = np.empty(2 * m, dtype=np.int64)
    bounds[0::2] = np.diff(table.pos_offsets)
    bounds[1::2] = np.minimum(table.neg_sizes, mining_config.hard_subset_size)
    draws = np.random.default_rng(seed).integers(bounds)
    rows = np.arange(m)
    pick = table.pos_offsets[:-1] + draws[0::2]
    negatives = ids[rows, order[rows, draws[1::2]]]
    return (anchors, table.pos_ids[pick], negatives, table.weights[pick]), table.skipped


def save_pools(pools: list, path) -> None:
    """JSON lines, one object per anchor, weights at 9 significant digits.

    A zero weight is written as 0 whatever its sign: "%.9g" writes -0.0 as
    "-0", which json reads back as the integer 0, so the file would not
    round-trip. A weight is the only field that follows ", ", so ", -0]"
    marks exactly the weights written as "-0", and one replace per formatted
    side rewrites them.
    """
    with open(path, "w") as fh:
        for pool in pools:
            # one %-format per side, "[id, weight], ..."
            pos, neg = (
                (", ".join(["[%d, %.9g]"] * len(side)) % tuple(chain.from_iterable(side)))
                .replace(", -0]", ", 0]")
                for side in (pool.positives, pool.negatives)
            )
            fh.write(
                f'{{"anchor": {pool.anchor_id}, "positives": [{pos}], "negatives": [{neg}]}}\n'
            )


def _is_id(j) -> bool:
    return type(j) is int and 0 <= j < 2**63  # an int64 array index


def _pool_entry(pair) -> tuple:
    j, w = pair if isinstance(pair, list) and len(pair) == 2 else (None, None)
    if not _is_id(j) or type(w) not in (int, float) or not (math.isfinite(w) and w >= 0):
        raise ValueError(f"{pair!r} is not an [id >= 0, finite weight >= 0] pair")
    return j, float(w)


def _pool_from_json(obj) -> AnchorPools:
    if not (isinstance(obj, dict) and _is_id(obj.get("anchor"))):
        raise ValueError('not an object with an integer "anchor" >= 0')
    pos, neg = ([_pool_entry(e) for e in obj[side]] for side in ("positives", "negatives"))
    return AnchorPools(obj["anchor"], pos, neg)


def load_pools(path) -> list:
    """Read a pools file written by :func:`save_pools`. Raises BadPools,
    naming the file and line, on a line that is not an object with an integer
    "anchor" and "positives" and "negatives" lists of [id, weight] pairs
    (ids below 2^63, both >= 0, weights finite), and on a file without pools."""
    pools = read_lines(path, BadPools, lambda line: _pool_from_json(json.loads(line)))
    if not pools:
        raise BadPools(f"{path}: no pools")
    return pools
