"""Per-anchor positive/negative pools and epoch-level tuple sampling.

Positives are manifold neighbors that are not Euclidean neighbors; negatives
the reverse. Pools are computed once per mining round and frozen; only the
per-epoch hard-negative window looks at the current embedding.
"""

import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .diffusion import DiffusionConfig, check_anchor_ids, solve_columns
from .errors import AllPoolsEmpty, BadPools, DimMismatch, LabelsMissing, open_text
from .features import FeatureSet
from .graph import NormalizedOperator, _run_blocks, similarity, top_k

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
    max_pos: int | None = None
    max_neg: int = 50
    hard_subset_size: int = 10

    def __post_init__(self):
        if self.k_pos < 1 or self.k_neg < 1:
            raise ValueError("k_pos and k_neg must be >= 1")
        if self.max_neg < 1:
            raise ValueError("max_neg must be >= 1")
        if not 1 <= self.hard_subset_size <= self.max_neg:
            raise ValueError("hard_subset_size must be in [1, max_neg]")


@dataclass
class AnchorPools:
    """Ordered pools for one anchor: positives by descending manifold
    similarity, negatives by descending Euclidean similarity."""

    anchor_id: int
    positives: list  # [(item_id, s_m), ...]
    negatives: list  # [(item_id, s_e), ...]


def _euclidean_block(features: FeatureSet, anchors: list) -> np.ndarray:
    """s_e to each anchor, self at -inf, a GEMV per row: a GEMM rounds differently."""
    sims = np.stack([similarity(features.data @ features.data[a]) for a in anchors])
    sims[np.arange(len(anchors)), anchors] = -np.inf
    return sims


def _pairs(ids: np.ndarray, values: np.ndarray) -> list:
    return list(zip(ids.tolist(), values[ids].tolist()))


def _block_pools(anchors: np.ndarray, manifold: np.ndarray, features: FeatureSet,
                 mining_config: MiningConfig) -> list:
    """The pools of each anchor from its row of the solved block `manifold`.
    Positives: manifold top-k_pos minus Euclidean top-k_pos, by descending
    s_m. Negatives: Euclidean top-k_neg minus manifold top-k_neg, by
    descending s_e, capped at max_neg.

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
    sims = _euclidean_block(features, anchors)
    nn_e = top_k(sims, max(k_pos, k_neg))
    # membership in the other side's top-k, marked on n-wide rows: memory
    # O(block * n), where comparing every pair of two top-k lists is O(block * k^2)
    listed = np.zeros((2,) + manifold.shape, dtype=bool)
    listed[0, rows, nn_e[:, :k_pos]] = listed[1, rows, nn_m[:, :k_neg]] = True
    pos_kept = ~listed[0, rows, nn_m[:, :k_pos]]
    neg_kept = ~listed[1, rows, nn_e[:, :k_neg]]
    pools = []
    for i, anchor in enumerate(anchors.tolist()):
        pos = nn_m[i, :k_pos][pos_kept[i]][: mining_config.max_pos]
        neg = nn_e[i, :k_neg][neg_kept[i]][: mining_config.max_neg]
        pools.append(AnchorPools(anchor, _pairs(pos, manifold[i]), _pairs(neg, sims[i])))
    return pools


def drop_empty_pools(pools: list) -> list:
    """The pools with a positive or a negative. Warns, from the caller's
    caller, with the number of anchors dropped, and raises AllPoolsEmpty
    when none is left."""
    kept = [p for p in pools if p.positives or p.negatives]
    if len(kept) < len(pools):
        warnings.warn(f"dropped {len(pools) - len(kept)} anchors with empty pools", stacklevel=3)
    if not kept:
        raise AllPoolsEmpty("every anchor produced empty pools")
    return kept


def _ranked(ids: np.ndarray, sims: np.ndarray, k) -> np.ndarray:
    """At most k of the ascending ids, by descending sims[id], ties by id."""
    k = ids.size if k is None else min(k, ids.size)
    return ids[top_k(sims[ids], k)] if k else ids[:0]


def baseline_pools(
    anchor: int,
    features: FeatureSet,
    k_base: int = 5,
    seed: int = 0,
    max_neg: int = 50,
) -> AnchorPools:
    """Euclidean-NN baseline: positives are the k_base nearest neighbors and
    negatives a seeded uniform draw from everything else."""
    if k_base < 1:
        raise ValueError("k_base must be >= 1")
    n = features.n
    check_anchor_ids([anchor], n)
    sims = _euclidean_block(features, [anchor])[0]
    nn_e = top_k(sims, min(k_base, n - 1))
    candidate = np.ones(n, dtype=bool)
    candidate[nn_e] = candidate[anchor] = False
    candidates = np.flatnonzero(candidate)
    rng = np.random.default_rng([seed, anchor])
    take = min(max_neg, candidates.size)
    drawn = rng.choice(candidates, size=take, replace=False) if take else candidates[:0]
    neg = _ranked(np.sort(drawn), sims, take)
    return AnchorPools(anchor, _pairs(nn_e, sims), _pairs(neg, sims))


def oracle_pools(
    base: AnchorPools,
    labels: np.ndarray,
    mode: str,
    features: FeatureSet,
    max_neg: int = 50,
    max_pos: int | None = None,
) -> AnchorPools:
    """Ablation helper: replace one pool with label ground truth.

    mode="positive" swaps in all same-label items; mode="negative" swaps in
    the hardest different-label items by Euclidean similarity. The other pool
    is left untouched. Evaluation/ablation only.
    """
    if labels is None:
        raise LabelsMissing("oracle pools need the label sidecar")
    if mode not in ("positive", "negative"):
        raise ValueError(f"mode must be 'positive' or 'negative', got {mode!r}")
    labels = np.asarray(labels)
    anchor = base.anchor_id
    sims = _euclidean_block(features, [anchor])[0]
    same = labels == labels[anchor]
    if mode == "positive":
        same[anchor] = False
        pool = _pairs(_ranked(np.flatnonzero(same), sims, max_pos), sims)
        return AnchorPools(anchor, pool, list(base.negatives))
    pool = _pairs(_ranked(np.flatnonzero(~same), sims, max_neg), sims)
    return AnchorPools(anchor, list(base.positives), pool)


def build_training_pool(
    anchor_set,
    features: FeatureSet,
    operator: NormalizedOperator,
    diffusion_config: DiffusionConfig,
    mining_config: MiningConfig,
):
    """Pools for every anchor plus the item union they span.

    The m anchors are solved and ranked in blocks of at most
    min(ANCHOR_BLOCK, max(1, ANCHOR_CELLS // n)), balanced over the worker
    threads (see graph._run_blocks): the fewest such blocks whose number is
    a multiple of the workers, so mining's memory is O(ANCHOR_CELLS + n)
    per worker. The pools are joined in block order; each column is
    bit-equal to its single-anchor solve, whatever the block size.

    Diffusion solves that stop above diffusion_config.tolerance are counted
    in one warning. Anchors whose pools both come out empty are dropped by
    drop_empty_pools and do not enter the union.
    """
    if operator.n != features.n:
        raise DimMismatch(f"graph has n={operator.n}, features have n={features.n}")
    anchors = check_anchor_ids(anchor_set.anchor_ids, features.n)
    mined, stopped = {}, []

    def mine(spans):
        for start, stop in spans:
            block = solve_columns(operator, anchors[start:stop], diffusion_config)
            stopped.append(np.count_nonzero(~block.converged))
            mined[start] = _block_pools(anchors[start:stop], block.values, features,
                                        mining_config)

    size = min(ANCHOR_BLOCK, max(1, ANCHOR_CELLS // features.n))
    _run_blocks(anchors.size, size, mine, balance=True)
    if sum(stopped):
        warnings.warn(f"{sum(stopped)} of {anchors.size} diffusion solves stopped above "
                      "diffusion.tolerance", stacklevel=2)
    pools = drop_empty_pools(list(chain.from_iterable(mined[start] for start in sorted(mined))))
    members = {p.anchor_id for p in pools}
    for p in pools:
        members.update(j for j, _ in p.positives)
        members.update(j for j, _ in p.negatives)
    return pools, np.array(sorted(members), dtype=np.int64)


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


def pool_table(pools: list, weighting: str = "none") -> PoolTable:
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
    if table.members.size and not 0 <= table.members[0] <= table.members[-1] < len(z):
        raise BadPools(f"pool member ids outside the {len(z)} rows of the embeddings")
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
    pools = []
    with open_text(path, BadPools) as fh:
        for number, line in enumerate(fh, 1):
            try:
                if line.strip():
                    pools.append(_pool_from_json(json.loads(line)))
            except (KeyError, ValueError, TypeError, OverflowError) as exc:
                raise BadPools(f"{path}:{number}: {type(exc).__name__}: {exc}") from None
    if not pools:
        raise BadPools(f"{path}: no pools")
    return pools
