"""RunConfig: the one home of every `mom` key's default and rule."""

import json

import numpy as np
import pytest

from momine import cli
from momine.anchors import load_anchors, select_anchors, stationary
from momine.config import AnchorsConfig, EvalConfig, ModelConfig, RunConfig
from momine.errors import BadConfig
from momine.features import SyntheticSpec, generate_synthetic, l2_normalize, load_features, save_features
from momine.graph import build_reciprocal_graph, load_graph, normalize_graph
from momine.mining import MiningConfig, build_training_pool, save_pools
from momine.trainer import save_model, train

from helpers import declared_rule

# mom's 34 keys, each with its default and so its type
DEFAULTS = {
    "seed": 0,
    "gen.kind": "moons",
    "gen.classes": 2,
    "gen.per_class": 200,
    "gen.ambient_dim": 16,
    "gen.noise": 0.15,
    "prep.whiten_dims": 0,
    "graph.k": 30,
    "diffusion.alpha": 0.99,
    "diffusion.tolerance": 1e-6,
    "diffusion.max_iterations": 100,
    "anchors.count": 64,
    "anchors.mode": "maxima",
    "mining.k_pos": 50,
    "mining.k_neg": 100,
    "mining.max_pos": 0,
    "mining.max_neg": 50,
    "mining.hard_subset_size": 10,
    "mining.mode": "mined",
    "mining.baseline_k": 5,
    "mining.oracle": "none",
    "model.output_dim": 16,
    "model.hidden_dim": 0,
    "train.loss": "contrastive",
    "train.margin": 0.0,
    "train.lr0": 0.01,
    "train.lr_decay": 0.1,
    "train.lr_decay_every": 10,
    "train.momentum": 0.9,
    "train.batch_size": 42,
    "train.epochs": 30,
    "train.weight_normalization": "per-anchor-max",
    "eval.ks": "1,2,4,8",
    "rounds": 1,
}


def test_the_defaults_keep_their_keys_values_and_types():
    assert cli.DEFAULTS == DEFAULTS == RunConfig.defaults()
    assert {key: type(value) for key, value in cli.DEFAULTS.items()} == {
        key: type(value) for key, value in DEFAULTS.items()}
    assert len(DEFAULTS) == 34
    assert {type(value) for value in DEFAULTS.values()} == {int, float, str}


def test_the_flat_defaults_are_the_default_run():
    run = RunConfig.from_flat(DEFAULTS)
    assert run == RunConfig()
    assert run.train.margin == 0.7 and run.eval.depths == [1, 2, 4, 8]
    assert RunConfig.from_flat({}) == run


def test_the_run_seed_feeds_the_trainer(tmp_path, monkeypatch, capsys):
    # mom pipeline trains with the run's seed, which train() takes as `seed`
    monkeypatch.delenv("MOM_SEED", raising=False)
    out = tmp_path / "run"
    assert cli.main(["pipeline", "--out", str(out), "--seed", "9", "--set", "gen.per_class", "60",
                     "--set", "graph.k", "8", "--set", "train.epochs", "3"]) == 0
    capsys.readouterr()
    run = RunConfig.from_flat(json.loads((out / "config.json").read_text()))
    feats = l2_normalize(generate_synthetic(run.gen, run.seed))
    graph = build_reciprocal_graph(feats, run.graph.k)
    anchors = select_anchors(graph, stationary(graph)[0], run.anchors.count, run.anchors.mode)
    pools = build_training_pool(anchors, feats, normalize_graph(graph), run.diffusion,
                                run.mining, None, run.seed)
    for seed in (9, 10):
        model = run.model.initialize(feats.d, run.seed)
        model, _ = train(feats, pools, model, run.train, run.mining, seed=seed)
        save_model(model, tmp_path / "library.bin")
        same = (tmp_path / "library.bin").read_bytes() == (out / "model.bin").read_bytes()
        assert same == (seed == run.seed)


@pytest.mark.parametrize("flat,message", [
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"rounds": 0}, "rounds must be >= 1, got 0"),
    ({"graph.k": 0}, "graph.k must be >= 1, got 0"),
    ({"prep.whiten_dims": -2}, "prep.whiten_dims must be >= 0, got -2"),
    ({"anchors.mode": "bogus"}, "anchors.mode must be 'maxima' or 'all', got 'bogus'"),
    ({"mining.max_pos": -5}, "mining.max_pos must be >= 0, got -5"),
    ({"model.hidden_dim": -1}, "model.hidden_dim must be >= 0, got -1"),
    ({"eval.ks": "0,1"}, "eval.ks must list recall depths >= 1, got '0,1'"),
    ({"diffusion.alpha": 1.5}, "diffusion.alpha must be in [0, 1), got 1.5"),
    ({"gen.per_class": 0}, "gen.per_class must be >= 1, got 0"),
    ({"gen.kind": "x"}, "gen.kind must be 'moons', 'circles', 'swiss-roll' or 'clusters', got 'x'"),
    ({"gen.classes": 3}, "gen.classes must be 2 for kind 'moons', got 3"),
    ({"mining.k_neg": 0}, "mining.k_neg must be >= 1, got 0"),
    ({"mining.hard_subset_size": 51}, "mining.hard_subset_size must be <= max_neg (50), got 51"),
    ({"train.momentum": 1.0}, "train.momentum must be in [0, 1), got 1.0"),
    ({"model.output_dim": 0}, "model.output_dim must be >= 1, got 0"),
    ({"gen.kind": "swiss-roll", "gen.ambient_dim": 2},
     "gen.ambient_dim must be >= 3 for kind 'swiss-roll', got 2"),
])
def test_a_rejected_value_is_reported_under_its_dotted_key(flat, message):
    with pytest.raises(BadConfig) as caught:
        RunConfig.from_flat(flat)
    assert str(caught.value) == message


# a value just outside each range rule
OUTSIDE = {">= 0": -1, ">= 1": 0, "> 0": 0, "in [0, 1)": 1}


@pytest.mark.parametrize("key", [key for key in DEFAULTS if isinstance(declared_rule(key), str)])
def test_every_range_rule_rejects_a_value_just_outside_it(key):
    rule = declared_rule(key)
    value = type(DEFAULTS[key])(OUTSIDE[rule])
    with pytest.raises(BadConfig) as caught:
        RunConfig.from_flat({key: value})
    assert str(caught.value) == f"{key} must be {rule}, got {value!r}"


@pytest.mark.parametrize("key", [
    "graf.k", "graph.kk", "sede", "seed.x", "train.seed", "train.weighted", "model.kind",
])
def test_a_key_that_is_not_a_mom_key_is_named_in_bad_config(key):
    # a library caller's hand-written dict gets mom's own message
    with pytest.raises(BadConfig) as caught:
        RunConfig.from_flat({key: 3})
    assert str(caught.value) == f"unknown config key {key!r}"


@pytest.mark.parametrize("flat,message", [
    ({"graph.k": "3"}, "graph.k must be an integer, got '3'"),
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"eval.ks": 5}, "eval.ks must be a string, got 5"),
    ({"anchors.count": 2.5}, "anchors.count must be an integer, got 2.5"),
    ({"train.weight_normalization": 1}, "train.weight_normalization must be a string, got 1"),
])
def test_a_value_of_another_type_is_named_in_bad_config(flat, message):
    # the JSON typing rule of mom's --config, for a library caller's dict
    with pytest.raises(BadConfig) as caught:
        RunConfig.from_flat(flat)
    assert str(caught.value) == message


def test_each_section_checks_its_own_values():
    with pytest.raises(ValueError, match="^count must be >= 1, got 0$"):
        AnchorsConfig(count=0)
    with pytest.raises(ValueError, match="^hidden_dim must be >= 0, got -1$"):
        ModelConfig(hidden_dim=-1)
    with pytest.raises(ValueError, match="^ks must list recall depths >= 1"):
        EvalConfig(ks="2,x")
    assert EvalConfig(ks=" 8, 2,").depths == [8, 2]


@pytest.mark.parametrize("seed", [0, 7])
def test_the_default_spec_writes_the_bytes_of_mom_gen(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.delenv("MOM_SEED", raising=False)
    assert cli.main(["gen", "--out", str(tmp_path / "gen"), "--seed", str(seed)]) == 0
    save_features(generate_synthetic(SyntheticSpec(), seed), tmp_path / "library.bin")
    assert (tmp_path / "library.bin").read_bytes() == (tmp_path / "gen" / "features.bin").read_bytes()
    capsys.readouterr()


def test_max_pos_zero_mines_the_pools_of_mom(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MOM_SEED", raising=False)
    data, graph, anchors = (str(tmp_path / name) for name in ("data", "graph", "anchors"))
    assert cli.main(["gen", "--out", data, "--seed", "3"]) == 0
    assert cli.main(["graph", "--out", graph, "--features", f"{data}/features.bin"]) == 0
    assert cli.main(["anchors", "--out", anchors, "--graph", f"{graph}/graph.txt"]) == 0
    assert cli.main(["mine", "--out", str(tmp_path / "mine"), "--features", f"{data}/features.bin",
                     "--graph", f"{graph}/graph.txt", "--anchors", f"{anchors}/anchors.txt",
                     "--set", "mining.max_pos", "0"]) == 0
    run = RunConfig(mining=MiningConfig(max_pos=0))
    pools = build_training_pool(
        load_anchors(f"{anchors}/anchors.txt"), l2_normalize(load_features(f"{data}/features.bin")),
        normalize_graph(load_graph(f"{graph}/graph.txt")), run.diffusion, run.mining, None,
        run.seed)
    save_pools(pools, tmp_path / "library.jsonl")
    assert (tmp_path / "library.jsonl").read_bytes() == (tmp_path / "mine" / "pools.jsonl").read_bytes()
    assert pools.pos_sizes.max() > 1  # 0 keeps every positive
    assert json.loads((tmp_path / "mine" / "config.json").read_text())["mining.max_pos"] == 0
    capsys.readouterr()
