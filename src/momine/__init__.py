"""momine: unsupervised hard-example mining on data manifolds.

Builds a reciprocal kNN graph over feature vectors, measures manifold
similarity with a regularized random walk, picks anchors at the modes of the
walk's stationary distribution, mines positive/negative pools from
Euclidean-vs-manifold disagreement, and trains a small normalized embedding
on the mined tuples.
"""

__version__ = "0.1.0"

from .anchors import (
    AnchorSet,
    local_maxima,
    select_anchors,
    stationary,
)
from .diffusion import DiffusionConfig, solve_columns
from .features import (
    FeatureSet,
    SyntheticSpec,
    WhiteningTransform,
    generate_synthetic,
    l2_normalize,
    load_features,
    load_labels,
    pca_whiten_apply,
    pca_whiten_fit,
    save_features,
    save_labels,
)
from .graph import (
    NeighborGraph,
    NormalizedOperator,
    build_reciprocal_graph,
    knn_search,
    load_graph,
    normalize_graph,
    save_graph,
)
from .mining import (
    AnchorPools,
    MiningConfig,
    build_training_pool,
    load_pools,
    pool_table,
    sample_epoch_tuples,
    save_pools,
)
from .evaluation import EvalReport, evaluate_embeddings, kmeans, nmi
from .trainer import (
    EmbeddingModel,
    TrainConfig,
    forward,
    load_model,
    save_model,
    sgd_momentum_step,
    train,
)
