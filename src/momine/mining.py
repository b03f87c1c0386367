"""Per-anchor positive/negative pools and epoch-level tuple sampling.

Positives are manifold neighbors that are not Euclidean neighbors; negatives
the reverse. Pools are computed once per mining round and frozen; only the
per-epoch hard-negative window looks at the current embedding.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .diffusion import (
    DiffusionConfig,
    SimilarityColumn,
    check_anchor_ids,
    manifold_knn,
    solve_column,
    solve_columns,
)
from .errors import AllPoolsEmpty, DimMismatch, LabelsMissing
from .features import FeatureSet
from .graph import NormalizedOperator, similarity, top_k

# anchors per block: the CG state of a block solve is O(ANCHOR_BLOCK * n),
# below the kNN block's memory, and the sampler's distance block is
# O(ANCHOR_BLOCK * max_neg * d)
ANCHOR_BLOCK = 64


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
    diffusion_converged: bool = True


@dataclass
class TrainingTuple:
    anchor_id: int
    positive_id: int
    negative_id: int
    weight: float  # s_m of the chosen positive


def _euclidean_ranked(features: FeatureSet, anchor: int, k: int):
    """Top-k items by similarity to the anchor, self excluded; same ranking
    rule as knn_search (descending s_e, ties by ascending index)."""
    sims = similarity(features.data @ features.data[anchor])
    sims[anchor] = -np.inf
    order = top_k(sims, k)
    return order, sims[order]


def mine_anchor_pools(
    anchor: int,
    features: FeatureSet,
    operator: NormalizedOperator,
    diffusion_config: DiffusionConfig,
    mining_config: MiningConfig,
) -> AnchorPools:
    """Both pools from a single diffusion solve for the anchor."""
    column = solve_column(operator, anchor, diffusion_config)
    return _pools_from_column(column, features, mining_config)


def _pools_from_column(
    column: SimilarityColumn, features: FeatureSet, mining_config: MiningConfig
) -> AnchorPools:
    """Positives: manifold top-k_pos minus Euclidean top-k_pos, by descending
    s_m. Negatives: Euclidean top-k_neg minus manifold top-k_neg, by
    descending s_e, capped at max_neg.

    Each side is ranked once, to the larger k; the rankings are exact, so
    their prefixes are the smaller rankings. Neighbor counts above n-1 are
    clamped (the large-set k_neg default can exceed a desk-scale collection).
    """
    n = features.n
    anchor = column.anchor_index
    k_pos = min(mining_config.k_pos, n - 1)
    k_neg = min(mining_config.k_neg, n - 1)
    k = max(k_pos, k_neg)
    nn_m = manifold_knn(column, k, exclude_self=True)
    nn_e, sims_e = _euclidean_ranked(features, anchor, k)

    euclid_set = set(nn_e[:k_pos].tolist())
    positives = [
        (j, float(column.values[j])) for j in nn_m[:k_pos].tolist() if j not in euclid_set
    ]
    if mining_config.max_pos is not None:
        positives = positives[: mining_config.max_pos]

    manifold_set = set(nn_m[:k_neg].tolist())
    negatives = [
        (j, float(s))
        for j, s in zip(nn_e[:k_neg].tolist(), sims_e[:k_neg])
        if j not in manifold_set
    ]
    negatives = negatives[: mining_config.max_neg]

    return AnchorPools(
        anchor_id=anchor,
        positives=positives,
        negatives=negatives,
        diffusion_converged=column.converged,
    )


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
    k_base = min(k_base, n - 1)
    nn_e, sims = _euclidean_ranked(features, anchor, k_base)
    positives = [(int(j), float(s)) for j, s in zip(nn_e, sims)]
    excluded = set(int(j) for j in nn_e) | {anchor}
    candidates = np.asarray([j for j in range(n) if j not in excluded], dtype=np.int64)
    rng = np.random.default_rng([seed, anchor])
    take = min(max_neg, candidates.size)
    drawn = rng.choice(candidates, size=take, replace=False) if take else candidates[:0]
    sims_all = similarity(features.data @ features.data[anchor])
    order = np.lexsort((drawn, -sims_all[drawn]))
    negatives = [(int(j), float(sims_all[j])) for j in drawn[order]]
    return AnchorPools(anchor_id=anchor, positives=positives, negatives=negatives)


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
    sims = similarity(features.data @ features.data[anchor])
    same = labels == labels[anchor]
    if mode == "positive":
        ids = np.flatnonzero(same)
        ids = ids[ids != anchor]
        order = np.lexsort((ids, -sims[ids]))
        pool = [(int(j), float(sims[j])) for j in ids[order]]
        if max_pos is not None:
            pool = pool[:max_pos]
        return AnchorPools(anchor, pool, list(base.negatives), base.diffusion_converged)
    ids = np.flatnonzero(~same)
    order = np.lexsort((ids, -sims[ids]))[:max_neg]
    pool = [(int(j), float(sims[j])) for j in ids[order]]
    return AnchorPools(anchor, list(base.positives), pool, base.diffusion_converged)


def build_training_pool(
    anchor_set,
    features: FeatureSet,
    operator: NormalizedOperator,
    diffusion_config: DiffusionConfig,
    mining_config: MiningConfig,
):
    """Pools for every anchor plus the item union they span.

    Anchors are solved ANCHOR_BLOCK at a time; each column is bit-equal to
    its single-anchor solve.

    Anchors whose pools both come out empty are dropped (with a warning) and
    do not enter the union. Raises AllPoolsEmpty if nothing survives.
    """
    if operator.n != features.n:
        raise DimMismatch(f"graph has n={operator.n}, features have n={features.n}")
    anchors = check_anchor_ids(anchor_set.anchor_ids, features.n)
    pools = []
    members = set()
    dropped = 0
    for start in range(0, anchors.size, ANCHOR_BLOCK):
        block = anchors[start : start + ANCHOR_BLOCK]
        for column in solve_columns(operator, block, diffusion_config):
            p = _pools_from_column(column, features, mining_config)
            if not p.positives and not p.negatives:
                dropped += 1
                continue
            pools.append(p)
            members.add(p.anchor_id)
            members.update(j for j, _ in p.positives)
            members.update(j for j, _ in p.negatives)
    if dropped:
        warnings.warn(f"dropped {dropped} anchors with empty pools", stacklevel=2)
    if not pools:
        raise AllPoolsEmpty("every anchor produced empty pools")
    return pools, np.asarray(sorted(members), dtype=np.int64)


def sample_epoch_tuples(
    pools: list,
    current_embeddings: np.ndarray,
    mining_config: MiningConfig,
    seed,
):
    """One (anchor, positive, negative) tuple per usable anchor.

    The positive is uniform over the positive pool; the negative is uniform
    over the hard window: the hard_subset_size pool members closest to the
    anchor in the current embedding space. Returns (tuples, skipped_count).
    """
    usable = [p for p in pools if p.positives and p.negatives]
    skipped = len(pools) - len(usable)
    if not usable:
        return [], skipped
    z = np.asarray(current_embeddings)
    anchors = np.asarray([p.anchor_id for p in usable], dtype=np.int64)
    sizes = np.asarray([len(p.negatives) for p in usable])
    real = np.arange(sizes.max()) < sizes[:, None]
    # negatives padded to one id block; the padding sorts after every member
    ids = np.full(real.shape, np.iinfo(np.int64).max)
    ids[real] = [j for p in usable for j, _ in p.negatives]
    rows = np.where(real, ids, 0)
    dists = np.empty(real.shape)
    for start in range(0, len(usable), ANCHOR_BLOCK):
        block = slice(start, start + ANCHOR_BLOCK)
        dists[block] = np.linalg.norm(z[rows[block]] - z[anchors[block], None], axis=2)
    dists[~real] = np.nan
    windows = np.take_along_axis(ids, np.lexsort((ids, dists), axis=-1), axis=1)
    # one draw per positive pool and per hard window, in pool order
    bounds = np.empty(2 * len(usable), dtype=np.int64)
    bounds[0::2] = [len(p.positives) for p in usable]
    bounds[1::2] = np.minimum(sizes, mining_config.hard_subset_size)
    draws = np.random.default_rng(seed).integers(bounds)
    negatives = windows[np.arange(len(usable)), draws[1::2]].tolist()
    tuples = []
    for pool, pick, neg_id in zip(usable, draws[0::2].tolist(), negatives):
        pos_id, pos_w = pool.positives[pick]
        tuples.append(
            TrainingTuple(
                anchor_id=pool.anchor_id,
                positive_id=int(pos_id),
                negative_id=neg_id,
                weight=float(pos_w),
            )
        )
    return tuples, skipped


def save_pools(pools: list, path) -> None:
    """JSON lines, one object per anchor, weights at 9 significant digits."""
    with open(path, "w") as fh:
        for pool in pools:
            pos = ", ".join(f"[{j}, {w:.9g}]" for j, w in pool.positives)
            neg = ", ".join(f"[{j}, {w:.9g}]" for j, w in pool.negatives)
            fh.write(
                f'{{"anchor": {pool.anchor_id}, "positives": [{pos}], "negatives": [{neg}]}}\n'
            )


def load_pools(path) -> list:
    pools = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            pools.append(
                AnchorPools(
                    anchor_id=int(obj["anchor"]),
                    positives=[(int(j), float(w)) for j, w in obj["positives"]],
                    negatives=[(int(j), float(w)) for j, w in obj["negatives"]],
                )
            )
    return pools


def save_tuples(tuples: list, path) -> None:
    with open(path, "w") as fh:
        for t in tuples:
            fh.write(
                f'{{"r": {t.anchor_id}, "p": {t.positive_id}, "n": {t.negative_id}, '
                f'"w": {t.weight:.9g}}}\n'
            )
