"""momine: unsupervised hard-example mining on data manifolds.

Builds a reciprocal kNN graph over feature vectors, measures manifold
similarity with a regularized random walk, picks anchors at the modes of the
walk's stationary distribution, mines positive/negative pools from
Euclidean-vs-manifold disagreement, and trains a small normalized embedding
on the mined tuples.

`import momine` loads no submodule. Each public name below is imported from
its submodule on first access (PEP 562), so a process that only generates,
writes or reads features loads numpy and `momine.features` alone, not scipy.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "anchors": ("AnchorSet", "local_maxima", "select_anchors", "stationary"),
    "diffusion": ("DiffusionConfig", "solve_columns"),
    "features": (
        "FeatureSet",
        "SyntheticSpec",
        "generate_synthetic",
        "l2_normalize",
        "load_features",
        "load_labels",
        "pca_whiten",
        "save_features",
        "save_labels",
    ),
    "graph": (
        "NeighborGraph",
        "build_reciprocal_graph",
        "knn_search",
        "load_graph",
        "normalize_graph",
        "save_graph",
    ),
    "mining": (
        "MiningConfig",
        "Pools",
        "build_training_pool",
        "load_pools",
        "pool_table",
        "sample_epoch_tuples",
        "save_pools",
    ),
    "evaluation": ("EvalReport", "evaluate_embeddings", "kmeans", "nmi"),
    "trainer": (
        "EmbeddingModel",
        "TrainConfig",
        "forward",
        "load_model",
        "save_model",
        "sgd_momentum_step",
        "train",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "config", "errors")

__all__ = list(_HOME)


def __getattr__(name):
    """A public name or a submodule, imported on first access and then kept
    in the package globals, so later lookups bypass this function."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
