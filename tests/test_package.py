"""The package namespace: `import momine` loads each submodule on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import momine

# the public names and the submodule that defines each
PUBLIC = {
    "anchors": ["AnchorSet", "local_maxima", "select_anchors", "stationary"],
    "diffusion": ["DiffusionConfig", "solve_columns"],
    "features": ["FeatureSet", "SyntheticSpec", "generate_synthetic", "l2_normalize",
                 "load_features", "load_labels", "pca_whiten", "save_features", "save_labels"],
    "graph": ["NeighborGraph", "build_reciprocal_graph", "knn_search",
              "load_graph", "normalize_graph", "save_graph"],
    "mining": ["MiningConfig", "Pools", "build_training_pool", "load_pools", "pool_table",
               "sample_epoch_tuples", "save_pools"],
    "evaluation": ["EvalReport", "evaluate_embeddings", "kmeans", "nmi"],
    "trainer": ["EmbeddingModel", "TrainConfig", "forward", "load_model", "save_model",
                "sgd_momentum_step", "train"],
}


def run_fresh(script):
    """Run `script` in a new interpreter that imports this checkout's momine;
    returns its stdout lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(next(iter(momine.__path__)) + "/..")
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


def test_the_data_layer_loads_no_scipy_and_no_stage(tmp_path):
    script = (
        "import sys\n"
        "import momine\n"
        "spec = momine.SyntheticSpec(kind='clusters', per_class=10, classes=3, ambient_dim=4)\n"
        "feats = momine.generate_synthetic(spec, 1)\n"
        f"momine.save_features(feats, {str(tmp_path / 'f.bin')!r})\n"
        f"momine.save_labels(feats.labels, {str(tmp_path / 'l.txt')!r})\n"
        f"back = momine.load_features({str(tmp_path / 'f.bin')!r})\n"
        f"labels = momine.load_labels({str(tmp_path / 'l.txt')!r}, back.n)\n"
        "assert back.n == 30 and (labels == feats.labels).all()\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('momine', 'scipy')))\n"
    )
    assert run_fresh(script)[-1] == str(["momine", "momine.errors", "momine.features"])


def test_every_public_name_is_its_submodules_object():
    assert sorted(momine.__all__) == sorted(name for names in PUBLIC.values() for name in names)
    assert len(momine.__all__) == 39
    for module, names in PUBLIC.items():
        source = importlib.import_module(f"momine.{module}")
        for name in names:
            assert getattr(momine, name) is getattr(source, name), name
    assert set(momine.__all__) <= set(dir(momine))


def test_star_import_binds_every_public_name():
    names = {}
    exec("from momine import *", names)
    for name in momine.__all__:
        assert names[name] is getattr(momine, name)


def test_a_submodule_resolves_as_a_module_and_an_unknown_name_does_not():
    script = (
        "import sys\n"
        "import momine\n"
        "graph = momine.graph\n"
        "print(type(graph).__name__, graph is sys.modules['momine.graph'])\n"
    )
    assert run_fresh(script)[-1] == "module True"
    assert momine.graph is importlib.import_module("momine.graph")
    with pytest.raises(AttributeError, match="no attribute 'recall_at_k'"):
        momine.recall_at_k
    assert not hasattr(momine, "no_such_name")
