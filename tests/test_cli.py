import json
import os
import re
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import momine.mining
from momine.cli import DEFAULTS, main
from momine.features import FeatureSet, l2_normalize, load_features, load_labels, save_features
from momine.mining import MiningConfig, load_pools, save_pools
from momine.trainer import EmbeddingModel, TrainConfig, save_model, train

from helpers import make_pools, pool_lists

GEN_ARGS = [
    "--set", "gen.kind", "clusters",
    "--set", "gen.classes", "4",
    "--set", "gen.per_class", "30",
    "--set", "gen.ambient_dim", "8",
    "--set", "gen.noise", "0.6",
]

SMALL_PIPELINE = GEN_ARGS + [
    "--set", "graph.k", "8",
    "--set", "diffusion.alpha", "0.95",
    "--set", "anchors.mode", "all",
    "--set", "mining.k_pos", "15",
    "--set", "mining.k_neg", "40",
    "--set", "mining.max_neg", "10",
    "--set", "mining.hard_subset_size", "5",
    "--set", "train.epochs", "3",
    "--set", "train.batch_size", "16",
]


def run_gen(out, seed=5):
    assert main(["gen", "--out", str(out), "--seed", str(seed)] + GEN_ARGS) == 0


def test_gen_writes_artifacts(tmp_path, capsys):
    run_gen(tmp_path / "data")
    feats = load_features(tmp_path / "data" / "features.bin")
    assert feats.n == 120 and feats.d == 8
    labels = load_labels(tmp_path / "data" / "labels.txt", 120)
    assert set(labels.tolist()) == {0, 1, 2, 3}
    cfg = json.loads((tmp_path / "data" / "config.json").read_text())
    assert cfg["gen.kind"] == "clusters" and cfg["seed"] == 5
    assert "gen:" in capsys.readouterr().out


def test_gen_deterministic_bytes(tmp_path):
    run_gen(tmp_path / "a")
    run_gen(tmp_path / "b")
    assert (tmp_path / "a" / "features.bin").read_bytes() == (tmp_path / "b" / "features.bin").read_bytes()


def test_stage_by_stage_chain(tmp_path, capsys):
    data = tmp_path / "data"
    run_gen(data)
    feats_arg = str(data / "features.bin")

    assert main(["graph", "--out", str(tmp_path / "g"), "--features", feats_arg,
                 "--set", "graph.k", "8"]) == 0
    graph_arg = str(tmp_path / "g" / "graph.txt")

    assert main(["anchors", "--out", str(tmp_path / "a"), "--graph", graph_arg]) == 0
    anchors_arg = str(tmp_path / "a" / "anchors.txt")

    assert main(["mine", "--out", str(tmp_path / "m"), "--features", feats_arg,
                 "--graph", graph_arg, "--anchors", anchors_arg,
                 "--set", "mining.k_pos", "15", "--set", "mining.k_neg", "40",
                 "--set", "mining.max_neg", "10", "--set", "mining.hard_subset_size", "5"]) == 0
    pools_arg = str(tmp_path / "m" / "pools.jsonl")

    assert main(["train", "--out", str(tmp_path / "t"), "--features", feats_arg,
                 "--pools", pools_arg, "--set", "train.epochs", "2",
                 "--set", "model.output_dim", "8", "--set", "train.batch_size", "16"]) == 0
    log = (tmp_path / "t" / "train_log.csv").read_text().splitlines()
    assert log[0] == "epoch,mean_loss,lr,tuples_used"
    assert len(log) == 3

    assert main(["eval", "--out", str(tmp_path / "e"), "--features", feats_arg,
                 "--labels", str(data / "labels.txt"),
                 "--model", str(tmp_path / "t" / "model.bin")]) == 0
    report = json.loads((tmp_path / "e" / "report.json").read_text())
    assert set(report) == {"recall_at", "nmi", "map_score", "n_queries", "seed"}
    assert 0.0 <= report["recall_at"]["1"] <= 1.0
    capsys.readouterr()


def test_eval_initial_features(tmp_path, capsys):
    data = tmp_path / "data"
    run_gen(data)
    assert main(["eval", "--out", str(tmp_path / "e"), "--features",
                 str(data / "features.bin"), "--labels", str(data / "labels.txt")]) == 0
    assert (tmp_path / "e" / "initial_report.json").exists()
    capsys.readouterr()


def test_eval_non_integer_label_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    run_gen(data)
    labels = tmp_path / "labels.txt"
    labels.write_text("a\nb\n")
    code = main(["eval", "--out", str(tmp_path / "e"), "--features",
                 str(data / "features.bin"), "--labels", str(labels)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("mom eval: error:") and f"{labels}:1:" in err
    assert not (tmp_path / "e").exists()


def test_eval_label_beyond_int64_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    run_gen(data)
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n" * 119 + f"{2**63}\n")
    code = main(["eval", "--out", str(tmp_path / "e"), "--features",
                 str(data / "features.bin"), "--labels", str(labels)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"mom eval: error: {labels}:120: a label beyond 64 bits: '{2**63}'\n")
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("code,hidden", [(0, 4), (1, 0)])
def test_eval_model_whose_kind_and_hidden_width_disagree_is_data_error(tmp_path, capsys,
                                                                      code, hidden):
    data = tmp_path / "data"
    run_gen(data)
    save_model(EmbeddingModel.initialize(8, 4, seed=0), tmp_path / "m.bin")
    blob = bytearray((tmp_path / "m.bin").read_bytes())
    blob[4:8], blob[16:20] = code.to_bytes(4, "little"), hidden.to_bytes(4, "little")
    (tmp_path / "m.bin").write_bytes(blob)
    out = tmp_path / "e"
    assert main(["eval", "--out", str(out), "--features", str(data / "features.bin"),
                 "--labels", str(data / "labels.txt"), "--model", str(tmp_path / "m.bin")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mom eval: error: {tmp_path / 'm.bin'}: a ") and "Traceback" not in err
    assert not out.exists()


def test_eval_non_finite_model_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    run_gen(data)
    model = EmbeddingModel.initialize(8, 4, seed=0)
    model.layers[0][0][1, 2] = np.inf
    save_model(model, tmp_path / "bad.bin")
    code = main(["eval", "--out", str(tmp_path / "e"), "--features", str(data / "features.bin"),
                 "--labels", str(data / "labels.txt"), "--model", str(tmp_path / "bad.bin")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("mom eval: error:") and "bad.bin" in err
    assert not (tmp_path / "e").exists()


def test_out_under_a_file_is_data_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main(["gen", "--out", str(tmp_path / "file" / "run")] + GEN_ARGS) == 2
    err = capsys.readouterr().err
    assert err.startswith("mom gen: error:") and "Traceback" not in err


def test_non_utf8_config_file_is_data_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_bytes(b'{"graph.k": "\xff"}')
    out = tmp_path / "run"
    assert main(["gen", "--out", str(out), "--config", str(config)] + GEN_ARGS) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("mom gen: error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["gen", "--config", "{truncated}"],
    ["gen", "--config", "{undecodable}"],
    ["eval", "--features", "{features}", "--labels", "{undecodable}"],
    ["anchors", "--graph", "{undecodable}"],
    ["mine", "--features", "{features}", "--graph", "{graph}", "--anchors", "{undecodable}"],
    ["train", "--features", "{features}", "--pools", "{undecodable}"],
], ids=["config-truncated", "config", "labels", "graph", "anchors", "pools"])
def test_unreadable_text_file_is_named_in_the_data_error(tmp_path, capsys, argv):
    run_gen(tmp_path / "data")
    paths = {
        "truncated": tmp_path / "truncated.json",
        "undecodable": tmp_path / "undecodable.txt",
        "features": tmp_path / "data" / "features.bin",
        "graph": tmp_path / "graph.txt",
    }
    paths["truncated"].write_text('{"graph.k": ')
    paths["undecodable"].write_bytes(b"0 0.5\n\xff\n")
    paths["graph"].write_text("MOMG 120 8\n")
    bad = paths[argv[-1][1:-1]]
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"mom {argv[0]}: error: {bad}: ")
    assert not out.exists()


def test_oracle_without_labels_fails_before_any_work(tmp_path, capsys):
    run_gen(tmp_path / "data")
    features = str(tmp_path / "data" / "features.bin")
    graph, anchors = tmp_path / "graph.txt", tmp_path / "anchors.txt"
    graph.write_text("MOMG 120 8\n")
    anchors.write_text("0 0.5\n")
    out = tmp_path / "run"
    capsys.readouterr()
    for argv in (
        ["pipeline", "--features", features, "--set", "mining.oracle", "positive"],
        ["mine", "--features", features, "--graph", str(graph), "--anchors", str(anchors),
         "--set", "mining.oracle", "negative"],
    ):
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"mom {argv[0]}: error: mining.oracle {argv[-1]} needs --labels\n"
        assert not out.exists()


def test_mine_missing_graph_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    run_gen(data)
    missing = tmp_path / "nope" / "graph.txt"
    code = main(["mine", "--out", str(tmp_path / "m"), "--features",
                 str(data / "features.bin"), "--graph", str(missing),
                 "--anchors", str(missing)])
    assert code == 2
    err = capsys.readouterr().err
    assert "nope" in err


def test_usage_error_exit_code_one(tmp_path, capsys):
    out = tmp_path / "x"
    for argv in (
        ["mine"],  # missing required flags
        ["frobnicate"],
        # generated data brings its own labels, which --labels would not replace
        ["pipeline", "--labels", "no-such-file.txt", "--seed", "1",
         "--set", "gen.per_class", "50"],
        # removed: mining.mode and mining.oracle are the one spelling of the
        # ablations, and solve_columns is the library's one-column solve
        ["diffuse", "--graph", "graph.txt", "--anchor", "3"],
        ["pipeline", "--baseline", "euclidean"],
        ["pipeline", "--oracle", "positive"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_unknown_config_key_is_data_error(tmp_path, capsys):
    # the anchors.* keys are still in every config.json written before the
    # damped walk was removed, train.weighted in every one written before
    # train.weight_normalization took "unit", and model.kind in every one
    # written before model.hidden_dim alone set the architecture, so feeding
    # one back fails here
    unknown = {"gen.bogus": 1, "anchors.damping": 0.0, "anchors.max_iterations": 10000,
               "anchors.tolerance": 1e-10, "train.weighted": True, "model.kind": "mlp"}
    config, out = tmp_path / "config.json", tmp_path / "x"
    for key, value in unknown.items():
        config.write_text(json.dumps({**DEFAULTS, key: value}, indent=2, sort_keys=True) + "\n")
        for extra in (["--set", key, str(value)], ["--config", str(config)]):
            assert main(["gen", "--out", str(out)] + extra) == 2
            assert capsys.readouterr().err == f"mom gen: error: unknown config key {key!r}\n"
            assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "momine" in capsys.readouterr().out


def test_mom_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("MOM_SEED", "77")
    assert main(["gen", "--out", str(tmp_path / "env")] + GEN_ARGS) == 0
    cfg = json.loads((tmp_path / "env" / "config.json").read_text())
    assert cfg["seed"] == 77
    monkeypatch.delenv("MOM_SEED")


def test_pipeline_end_to_end(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--out", str(out), "--seed", "5"] + SMALL_PIPELINE) == 0
    for name in ("features.bin", "labels.txt", "graph.txt", "anchors.txt",
                 "pools.jsonl", "model.bin", "train_log.csv", "config.json",
                 "initial_report.json", "report.json"):
        assert (out / name).exists(), name
    capsys.readouterr()


def test_pipeline_rounds_write_round_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--out", str(out), "--seed", "5", "--rounds", "2"]
                + SMALL_PIPELINE) == 0
    assert (out / "pools.round2.jsonl").exists()
    assert (out / "graph.round2.txt").exists()
    capsys.readouterr()


def test_pipeline_baseline_mode(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--out", str(out), "--seed", "5", "--set", "mining.mode", "baseline"]
                + SMALL_PIPELINE) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["mining.mode"] == "baseline"
    capsys.readouterr()


def test_pipeline_reproducible_bytes_subprocess(tmp_path):
    # two identical single-threaded invocations must agree byte for byte
    import momine

    env = dict(os.environ)
    env["PYTHONPATH"] = str(next(iter(momine.__path__)) + "/..")
    cmd = [sys.executable, "-m", "momine.cli", "pipeline", "--seed", "5"] + SMALL_PIPELINE
    for sub in ("r1", "r2"):
        res = subprocess.run(
            cmd + ["--out", str(tmp_path / sub)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert res.returncode == 0, res.stderr
    for name in ("pools.jsonl", "model.bin", "report.json", "train_log.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_mine_warns_when_diffusion_solves_stop_early(tmp_path, capsys):
    # the count goes to stderr as one warning, and the pools are still written
    import momine

    run_gen(tmp_path / "data")
    features = str(tmp_path / "data" / "features.bin")
    assert main(["graph", "--out", str(tmp_path / "g"), "--features", features,
                 "--set", "graph.k", "8"]) == 0
    graph = str(tmp_path / "g" / "graph.txt")
    assert main(["anchors", "--out", str(tmp_path / "a"), "--graph", graph]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = str(next(iter(momine.__path__)) + "/..")
    mine = ["mine", "--features", features, "--graph", graph,
            "--anchors", str(tmp_path / "a" / "anchors.txt")]
    for name, starved in (("starved", ["--set", "diffusion.max_iterations", "1"]), ("healthy", [])):
        res = subprocess.run([sys.executable, "-m", "momine.cli"] + mine + starved
                             + ["--out", str(tmp_path / name)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        warned = re.findall(r"^mom mine: warning: (\d+) of (\d+) diffusion solves stopped above "
                            r"diffusion\.tolerance$", res.stderr, flags=re.M)
        # one line per warning, without a source file or line
        assert all(line.startswith("mom mine: warning: ")
                   for line in res.stderr.splitlines()), res.stderr
        if starved:
            assert len(warned) == 1 and 0 < int(warned[0][0]) <= int(warned[0][1]), res.stderr
        else:
            assert warned == [], res.stderr
        assert (tmp_path / name / "pools.jsonl").exists()
    capsys.readouterr()


def test_eval_ks_without_one(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--out", str(out), "--seed", "5"] + SMALL_PIPELINE
                + ["--set", "eval.ks", "2,4"]) == 0
    for name in ("initial_report.json", "report.json"):
        assert set(json.loads((out / name).read_text())["recall_at"]) == {"2", "4"}
    assert "recall@2 initial=" in capsys.readouterr().out
    assert main(["eval", "--out", str(tmp_path / "e"), "--features", str(out / "features.bin"),
                 "--labels", str(out / "labels.txt"), "--model", str(out / "model.bin"),
                 "--set", "eval.ks", "4"]) == 0
    assert "recall@4=" in capsys.readouterr().out


def test_eval_ks_beyond_n_is_data_error(tmp_path, capsys):
    run_gen(tmp_path / "data")
    code = main(["eval", "--out", str(tmp_path / "e"),
                 "--features", str(tmp_path / "data" / "features.bin"),
                 "--labels", str(tmp_path / "data" / "labels.txt"), "--set", "eval.ks", "500"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("diffusion.alpha", "1.5"),
    ("graph.k", "abc"),
    ("mining.max_neg", "0"),
    ("train.loss", "hinge"),
    ("eval.ks", ","),
    ("eval.ks", "0,1"),
])
def test_bad_config_value_exits_two_before_any_work(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    code = main(["pipeline", "--out", str(out), "--seed", "5"] + SMALL_PIPELINE + ["--set", key, value])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("mom pipeline: error:") and "Traceback" not in err


@pytest.mark.parametrize("key,value", [
    ("model.kind", "foo"),  # a removed key: refused as unknown, before any work too
    ("anchors.mode", "bogus"),
    ("mining.oracle", "both"),
    ("train.margin", "-1"),
    ("model.hidden_dim", "-1"),  # 0 is one affine layer, more a hidden layer that wide
    ("train.batch_size", "0"),
    ("train.lr_decay_every", "0"),
    ("train.weight_normalization", "maybe"),
    ("eval.ks", "1,x"),
    ("mining.max_pos", "-5"),
    ("train.epochs", "-1"),
    ("diffusion.tolerance", "nan"),
    ("train.lr0", "nan"),
    ("train.lr_decay", "nan"),
    ("train.lr0", "-1"),
    ("train.lr0", "0"),
    ("gen.noise", "inf"),
    ("train.margin", "1e400"),  # inf once parsed
])
def test_unchecked_config_value_exits_two_before_any_work(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    code = main(["pipeline", "--out", str(out), "--seed", "5"] + SMALL_PIPELINE + ["--set", key, value])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("mom pipeline: error:") and key in err


@pytest.mark.parametrize("payload,named", [
    pytest.param({"graph.k": "abc"}, "graph.k", id="graph.k-abc"),
    # train.weighted is gone: a file that still sets it fails as an unknown key
    pytest.param({"train.weighted": "false"}, "train.weighted", id="train.weighted-string"),
    pytest.param({"train.weighted": 0}, "train.weighted", id="train.weighted-number"),
    pytest.param({"train.weight_normalization": 1}, "train.weight_normalization",
                 id="train.weight_normalization-number"),
    pytest.param(5, "top level", id="not-an-object"),
    pytest.param({"train.margin": "0.5"}, "train.margin", id="train.margin-string"),
    pytest.param({"train.lr0": "abc"}, "train.lr0", id="train.lr0-abc"),
    pytest.param({"gen.noise": "x"}, "gen.noise", id="gen.noise-x"),
    pytest.param({"graph.k": True}, "graph.k", id="graph.k-bool"),
    pytest.param({"graph.k": 2.7}, "graph.k", id="graph.k-float"),
    pytest.param({"train.epochs": "3"}, "train.epochs", id="train.epochs-string"),
    pytest.param({"train.lr0": 10**400}, "train.lr0", id="train.lr0-huge-int"),
])
def test_bad_config_file_value_exits_two_before_any_work(tmp_path, capsys, payload, named):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "run"
    code = main(["pipeline", "--out", str(out), "--seed", "5", "--config", str(config)] + GEN_ARGS)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_set_and_config_file_write_the_same_config(tmp_path, monkeypatch):
    # every key's default, once as --set text and once as its JSON value,
    # gives the same typed config; a file's integer for a float key is a float
    monkeypatch.delenv("MOM_SEED", raising=False)
    config = tmp_path / "cfg.json"

    def written(name, argv):
        assert main(["gen", "--out", str(tmp_path / name)] + argv) == 0
        return (tmp_path / name / "config.json").read_text()

    for key, value in DEFAULTS.items():
        config.write_text(json.dumps({key: value}))
        assert written(f"set-{key}", ["--set", key, str(value)]) == written(
            f"file-{key}", ["--config", str(config)]), key
    config.write_text(json.dumps({"train.margin": 1}))
    recorded = written("int-for-float", ["--config", str(config)])
    assert '"train.margin": 1.0,' in recorded
    assert recorded == written("set-margin", ["--set", "train.margin", "1"])


def test_pipeline_whiten_beyond_dim_is_data_error(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["pipeline", "--out", str(out), "--seed", "5"] + SMALL_PIPELINE
                + ["--set", "prep.whiten_dims", "100"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("mom pipeline: error:") and "retained_dims" in err


def test_bad_mom_seed_exits_two_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MOM_SEED", "abc")
    out = tmp_path / "env"
    assert main(["gen", "--out", str(out)] + GEN_ARGS) == 2
    assert not out.exists()
    assert "MOM_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("how", ["flag", "env", "config"])
def test_negative_seed_exits_two_before_any_work(tmp_path, capsys, monkeypatch, how):
    run_gen(tmp_path / "data")
    argv = ["pipeline", "--features", str(tmp_path / "data" / "features.bin")] + SMALL_PIPELINE
    if how == "flag":
        argv += ["--seed", "-1"]
    elif how == "env":
        monkeypatch.setenv("MOM_SEED", "-3")
    else:
        (tmp_path / "cfg.json").write_text('{"seed": -2}')
        argv += ["--config", str(tmp_path / "cfg.json")]
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("mom pipeline: error: seed must be >= 0")


@pytest.mark.parametrize("per_class", [str(2**63), "100000000000"])
def test_gen_of_a_size_beyond_memory_is_data_error(tmp_path, capsys, per_class):
    # numpy refuses 2^63 items per class as too many dimensions, and 10^11
    # doubles (745 GiB) as too much memory. A 512 GiB address-space cap makes
    # the second refusal hold under every overcommit policy, so the case
    # never fills memory
    out = tmp_path / "gen"
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2**39 if soft == resource.RLIM_INFINITY else min(soft, 2**39)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        code = main(["gen", "--out", str(out), "--set", "gen.per_class", per_class])
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == (f"mom gen: error: 2 classes of {per_class} items in 16 dimensions"
                   " do not fit in memory\n")


@pytest.mark.parametrize("noise", ["1e308", "1e39"])  # past float64, past float32
def test_gen_of_a_noise_past_float32_is_data_error(tmp_path, capsys, noise):
    out = tmp_path / "gen"
    assert main(["gen", "--out", str(out), "--set", "gen.noise", noise]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"mom gen: error: noise {float(noise)} takes the points past float32's range\n")


@pytest.mark.parametrize("pairs,message", [
    pytest.param({"gen.per_class": "5"}, "graph.k=30 must be below n=10", id="graph.k-at-n"),
    pytest.param({"prep.whiten_dims": "40"}, "retained_dims must be in [1, min(n-1, d)=16]",
                 id="whiten-beyond-d"),
    pytest.param({"gen.noise": "inf"}, "gen.noise must be a finite number", id="noise-inf"),
    pytest.param({"gen.per_class": "100", "eval.ks": "500"},
                 "no recall depth lies in [1, n-1=199]", id="eval.ks-beyond-n"),
    pytest.param({"model.output_dim": str(2**63)}, "output_dim=9223372036854775808",
                 id="output-dim-2^63"),
    pytest.param({"model.hidden_dim": str(2**63)},
                 "hidden_dim=9223372036854775808 does not fit", id="hidden-dim-2^63"),
    pytest.param({"model.output_dim": "100000000000"}, "output_dim=100000000000",
                 id="output-dim-1e11"),
])
def test_pipeline_checks_its_config_against_the_input_before_creating_out(
    tmp_path, capsys, pairs, message
):
    # 10^11 outputs of 16 inputs are 1.6e12 doubles (12 TiB); the 512 GiB
    # address-space cap makes numpy refuse them under every overcommit policy
    out = tmp_path / "run"
    argv = ["pipeline", "--out", str(out), "--seed", "5"]
    for key, value in pairs.items():
        argv += ["--set", key, value]
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2**39 if soft == resource.RLIM_INFINITY else min(soft, 2**39)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        code = main(argv)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("mom pipeline: error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("header", [b"MOM1\0\0\0\0\5\0\0\0", b"MOM1\5\0\0\0\0\0\0\0"])
def test_empty_feature_matrix_is_data_error(tmp_path, capsys, header):
    path = tmp_path / "empty.bin"
    path.write_bytes(header)
    out = tmp_path / "g"
    assert main(["graph", "--out", str(out), "--features", str(path)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"mom graph: error: {path}: header promises an empty")
    with pytest.raises(ValueError):  # EmptyFeatures, for library callers
        FeatureSet(np.zeros((0, 3)))


def test_eval_model_of_another_width_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    run_gen(data)
    save_model(EmbeddingModel.initialize(16, 4, seed=0), tmp_path / "wide.bin")
    out = tmp_path / "e"
    code = main(["eval", "--out", str(out), "--features", str(data / "features.bin"),
                 "--labels", str(data / "labels.txt"), "--model", str(tmp_path / "wide.bin")])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "mom eval: error: model expects input_dim=16, features have d=8\n")


@pytest.mark.parametrize("anchors_txt", [
    "-3 0.1\n", "7 0.2\n500 0.1\n", "x y\n", "7 0.2\n18446744073709551616 0.1\n",
])
def test_mine_bad_anchor_ids_are_data_errors(tmp_path, capsys, anchors_txt):
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data), "--seed", "5"] + GEN_ARGS
                + ["--set", "gen.per_class", "25"]) == 0  # 100 items
    assert main(["graph", "--out", str(tmp_path / "g"), "--features", str(data / "features.bin"),
                 "--set", "graph.k", "8"]) == 0
    anchors = tmp_path / "anchors.txt"
    anchors.write_text(anchors_txt)
    for extra in ([], ["--set", "mining.mode", "baseline"]):
        code = main(["mine", "--out", str(tmp_path / "m"), "--features", str(data / "features.bin"),
                     "--graph", str(tmp_path / "g" / "graph.txt"), "--anchors", str(anchors)]
                    + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("mom mine: error:") and "anchor" in err
        assert not (tmp_path / "m").exists()


def test_mine_with_an_empty_anchors_file_is_data_error(tmp_path, capsys):
    run_gen(tmp_path / "data")
    features = str(tmp_path / "data" / "features.bin")
    assert main(["graph", "--out", str(tmp_path / "g"), "--features", features,
                 "--set", "graph.k", "8"]) == 0
    anchors = tmp_path / "anchors.txt"
    anchors.write_text("")
    for mode in ("mined", "baseline"):
        code = main(["mine", "--out", str(tmp_path / "m"), "--features", features,
                     "--graph", str(tmp_path / "g" / "graph.txt"), "--anchors", str(anchors),
                     "--set", "mining.mode", mode])
        assert code == 2
        assert capsys.readouterr().err == "mom mine: error: every anchor produced empty pools\n"
        assert not (tmp_path / "m").exists()


def test_baseline_mine_needs_no_graph(tmp_path, capsys):
    run_gen(tmp_path / "data")
    features = str(tmp_path / "data" / "features.bin")
    assert main(["graph", "--out", str(tmp_path / "g"), "--features", features,
                 "--set", "graph.k", "8"]) == 0
    (tmp_path / "anchors.txt").write_text("3 0.1\n5 0.1\n7 0.1\n")
    mine = ["mine", "--features", features, "--anchors", str(tmp_path / "anchors.txt")]
    graph = ["--graph", str(tmp_path / "g" / "graph.txt")]
    baseline = ["--set", "mining.mode", "baseline"]
    assert main(mine + graph + baseline + ["--out", str(tmp_path / "with")]) == 0
    assert main(mine + baseline + ["--out", str(tmp_path / "without")]) == 0
    for name in ("pools.jsonl", "config.json"):
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(mine + ["--out", str(tmp_path / "mined")])
    assert exc.value.code == 1
    assert "mine needs --graph for mined pools" in capsys.readouterr().err
    assert not (tmp_path / "mined").exists()
    # a given graph is still read and checked against the features
    (tmp_path / "small.txt").write_text("MOMG 4 2\n0 1 0.5\n")
    assert main(mine + baseline + ["--graph", str(tmp_path / "small.txt"),
                                   "--out", str(tmp_path / "other")]) == 2
    assert "graph has n=4, features have n=120" in capsys.readouterr().err
    assert not (tmp_path / "other").exists()


@pytest.mark.parametrize("loss", ["contrastive", "triplet", "triplet-literal"])
def test_the_library_trains_what_mom_trains(tmp_path, loss):
    # TrainConfig's default margin is the loss's own, as train.margin 0 is.
    # On these pools the triplet loss trains other weights at 0.5 and 0.7
    run = tmp_path / "run"
    assert main(["pipeline", "--out", str(run), "--seed", "1"] + SMALL_PIPELINE) == 0
    features, pools = run / "features.bin", run / "pools.jsonl"
    assert main(["train", "--out", str(tmp_path / "mom"), "--features", str(features),
                 "--pools", str(pools), "--set", "train.loss", loss, "--seed", "9"]) == 0
    feats = l2_normalize(load_features(features))
    model = EmbeddingModel.initialize(feats.d, DEFAULTS["model.output_dim"], seed=9)
    model, _ = train(feats, load_pools(pools), model, TrainConfig(loss=loss), MiningConfig(),
                     seed=9)
    save_model(model, tmp_path / "library.bin")
    assert (tmp_path / "library.bin").read_bytes() == (tmp_path / "mom" / "model.bin").read_bytes()


def test_baseline_mine_drops_empty_pools_with_a_warning(tmp_path, capsys, monkeypatch):
    # baseline pools always hold the anchor's nearest neighbours, so empty
    # ones are made here; mined mode drops its empty pools by the same rule
    run_gen(tmp_path / "data")
    features = str(tmp_path / "data" / "features.bin")
    assert main(["graph", "--out", str(tmp_path / "g"), "--features", features,
                 "--set", "graph.k", "8"]) == 0
    real = momine.mining._baseline_pools
    for empty, code in (({3, 5}, 0), ({3, 5, 7}, 2)):
        monkeypatch.setattr(momine.mining, "_baseline_pools", lambda *args: make_pools([
            (p.anchor, [], []) if p.anchor in empty else p for p in pool_lists(real(*args))]))
        (tmp_path / "anchors.txt").write_text("3 0.1\n5 0.1\n7 0.1\n")
        out = tmp_path / f"m{code}"
        capsys.readouterr()
        shown = warnings.showwarning
        assert main(["mine", "--out", str(out), "--features", features,
                     "--graph", str(tmp_path / "g" / "graph.txt"),
                     "--anchors", str(tmp_path / "anchors.txt"),
                     "--set", "mining.mode", "baseline"]) == code
        assert warnings.showwarning is shown  # in-process callers keep their handler
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"mom mine: warning: dropped {len(empty)} anchors with empty pools"
        if code:
            assert err[1:] == ["mom mine: error: every anchor produced empty pools"]
            assert not out.exists()
        else:
            assert err[1:] == []
            assert load_pools(out / "pools.jsonl").anchors.tolist() == [7]


def test_train_with_pools_from_a_larger_set_is_data_error(tmp_path, capsys):
    small, large = tmp_path / "small", tmp_path / "large"
    run_gen(small)  # 120 items
    assert main(["gen", "--out", str(large), "--seed", "5"] + GEN_ARGS
                + ["--set", "gen.per_class", "40"]) == 0  # 160 items
    feats = str(large / "features.bin")
    assert main(["graph", "--out", str(tmp_path / "g"), "--features", feats,
                 "--set", "graph.k", "8"]) == 0
    assert main(["anchors", "--out", str(tmp_path / "a"),
                 "--graph", str(tmp_path / "g" / "graph.txt")]) == 0
    assert main(["mine", "--out", str(tmp_path / "m"), "--features", feats,
                 "--graph", str(tmp_path / "g" / "graph.txt"),
                 "--anchors", str(tmp_path / "a" / "anchors.txt"),
                 "--set", "mining.k_pos", "15", "--set", "mining.k_neg", "40",
                 "--set", "mining.max_neg", "10"]) == 0
    pools = tmp_path / "m" / "pools.jsonl"
    assert max(j for p in pool_lists(load_pools(pools)) for j, _ in p.positives + p.negatives) >= 120
    capsys.readouterr()
    code = main(["train", "--out", str(tmp_path / "t"), "--features",
                 str(small / "features.bin"), "--pools", str(pools)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("mom train: error:") and "out of range [0, 120)" in err


def test_train_names_the_item_of_a_degenerate_embedding_and_writes_nothing(tmp_path, capsys):
    # the seeded model's one hidden ReLU unit is 0 on item 5 alone, so item 5
    # embeds to zero; the pool members are [0, 2, 5, 7]
    w = EmbeddingModel.initialize(3, 2, hidden_dim=1, seed=0).layers[0][0][0]
    data = w + 0.1 * np.random.default_rng(1).normal(size=(8, 3))
    data[5] = -w
    save_features(FeatureSet(data), tmp_path / "features.bin")
    save_pools(make_pools([(0, [(2, 1.0)], [(5, 0.5), (7, 0.4)])]), tmp_path / "pools.jsonl")
    code = main(["train", "--out", str(tmp_path / "t"), "--seed", "0",
                 "--features", str(tmp_path / "features.bin"),
                 "--pools", str(tmp_path / "pools.jsonl"),
                 "--set", "model.output_dim", "2", "--set", "model.hidden_dim", "1"])
    assert code == 2 and not (tmp_path / "t").exists()
    assert capsys.readouterr().err == ("mom train: error: pre-normalization norm below 1e-12"
                                       " for item 5 at epoch 0\n")


def test_pipeline_on_too_few_items_for_k_neg_trains_nothing_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    # n = 80 <= mining.k_neg + 1: the Euclidean and manifold top-k_neg are both
    # every other item, so the one pool has no negative
    monkeypatch.delenv("MOM_SEED", raising=False)
    code = main(["pipeline", "--out", str(tmp_path / "run"), "--set", "gen.per_class", "40"])
    assert code == 2 and not (tmp_path / "run").exists()
    assert capsys.readouterr().err == (
        "mom pipeline: error: no pool has both a positive and a negative (1 pools)\n")


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("whiten", ["0", "4"])
def test_graph_non_finite_features_are_data_errors(tmp_path, capsys, bad, whiten):
    run_gen(tmp_path / "data")
    path = tmp_path / "data" / "features.bin"
    blob = bytearray(path.read_bytes())
    offset = 12 + (5 * 8 + 2) * 4  # row 5, column 2 of the 8-d float32 payload
    blob[offset : offset + 4] = np.float32(bad).tobytes()
    path.write_bytes(bytes(blob))
    code = main(["graph", "--out", str(tmp_path / "g"), "--features", str(path),
                 "--set", "graph.k", "8", "--set", "prep.whiten_dims", whiten])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_trailing_bytes_are_data_errors(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--out", str(out), "--seed", "5"] + SMALL_PIPELINE) == 0
    for name in ("features.bin", "model.bin"):
        path = out / name
        path.write_bytes(path.read_bytes() + b"\x00\x00")
    capsys.readouterr()
    code = main(["graph", "--out", str(tmp_path / "g"), "--features", str(out / "features.bin"),
                 "--set", "graph.k", "8"])
    assert code == 2
    assert "features.bin: bytes after" in capsys.readouterr().err
    (out / "features.bin").write_bytes((out / "features.bin").read_bytes()[:-2])
    code = main(["eval", "--out", str(tmp_path / "e"), "--features", str(out / "features.bin"),
                 "--labels", str(out / "labels.txt"), "--model", str(out / "model.bin")])
    assert code == 2
    assert "model.bin: bytes after" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "MOMG four 2\n0 1 0.5\n",
    "MOMG 18446744073709551616 2\n0 1 0.5\n",  # sizes beyond int64
    "MOMG 4 18446744073709551616\n0 1 0.5\n",
    "MOMG 4 2\n0 1 0.5x\n",
    "MOMG 4 2\n0 1\n",
    "MOMG 4 2\n0 9 0.5\n",
    "MOMG 4 2\n2 1 0.5\n",
    "MOMG 4 2\n0 1 nan\n",
    "MOMG 4 2\n0 1 -0.5\n",
    "MOMG 4 2\n0 1 0.5\n1 2 0.5\n0 1 0.5\n",
    "MOMG 3 2\n0 1 1e308\n0 2 1e308\n",
    "MOMG 4611686018427387904 2\n0 1 0.5\n",  # n = 2^62: too big for numpy to size
    "MOMG 1125899906842624 2\n0 1 0.5\n",  # n = 2^50: no memory for its index array
])
def test_bad_graph_file_is_data_error(tmp_path, capsys, body):
    path = tmp_path / "graph.txt"
    path.write_text(body)
    code = main(["anchors", "--graph", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, body
    assert err.startswith("mom anchors: error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_pipeline_uses_the_closed_form_every_round(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--out", str(out), "--seed", "5", "--rounds", "2"]
                + SMALL_PIPELINE) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rounds = [line for line in captured.out.splitlines() if line.startswith("round ")]
    assert len(rounds) == 2
    for line in rounds:
        assert re.search(r"\(stationary: closed form, [1-9][0-9]* components\)", line), line


def test_anchors_on_an_edgeless_graph_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text("MOMG 5 2\n")
    code = main(["anchors", "--graph", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("mom anchors: error:") and "no edges" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "anchors.txt").exists()


def test_pipeline_loads_no_dense_or_graph_solvers(tmp_path):
    # scipy.sparse.csgraph pulls in scipy.linalg and scipy.sparse.linalg:
    # about 10 MB of resident memory and 0.14 s per process
    import momine

    env = dict(os.environ)
    env["PYTHONPATH"] = str(next(iter(momine.__path__)) + "/..")
    script = (
        "import sys\n"
        "from momine.cli import main\n"
        f"assert main({['pipeline', '--seed', '5', '--out', str(tmp_path / 'run')] + SMALL_PIPELINE!r}) == 0\n"
        "heavy = ('scipy.sparse.csgraph', 'scipy.sparse.linalg', 'scipy.linalg')\n"
        "print('loaded:', [m for m in heavy if m in sys.modules])\n"
    )
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "loaded: []"
    assert (tmp_path / "run" / "report.json").exists()


def test_importing_the_cli_loads_scipy_sparse_and_every_stage():
    # `mom` imports every stage before it runs one, so no stage's wall time
    # includes an import; `import momine` alone loads them on first use
    import momine

    env = dict(os.environ)
    env["PYTHONPATH"] = str(next(iter(momine.__path__)) + "/..")
    stages = ("anchors", "diffusion", "errors", "evaluation", "features", "graph", "mining",
              "trainer")
    script = (
        "import sys\n"
        "import momine.cli\n"
        f"wanted = ['scipy.sparse'] + ['momine.' + stage for stage in {stages!r}]\n"
        "print('missing:', [m for m in wanted if m not in sys.modules])\n"
    )
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "missing: []"


@pytest.mark.parametrize("value", ["-1", "0", "-0.0"])
def test_a_nonpositive_lr_decay_exits_two_before_any_work(tmp_path, capsys, value):
    out = tmp_path / "run"
    code = main(["pipeline", "--out", str(out), "--seed", "5"] + SMALL_PIPELINE
                + ["--set", "train.lr_decay", value])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"mom pipeline: error: train.lr_decay must be > 0, got {float(value)}\n")


def test_pipeline_with_one_label_exits_two_before_any_work(tmp_path, capsys):
    run_gen(tmp_path / "data")
    same = tmp_path / "same.txt"
    same.write_text("3\n" * 120)
    out = tmp_path / "run"
    code = main(["pipeline", "--out", str(out), "--seed", "5",
                 "--features", str(tmp_path / "data" / "features.bin"), "--labels", str(same)]
                + SMALL_PIPELINE)
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines()[-1] == "mom pipeline: error: all items share one label"


def test_pipeline_whose_weights_leave_float32_exits_two_without_a_model(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["pipeline", "--out", str(out), "--seed", "5"] + SMALL_PIPELINE
                + ["--set", "train.lr0", "1e50"])
    assert code == 2
    assert capsys.readouterr().err == (
        "mom pipeline: error: a model parameter left float32's range at epoch 0\n")
    assert not out.exists()


def test_pipeline_whose_round_mines_no_pool_exits_two_without_out(tmp_path, capsys):
    # one anchor whose single manifold and Euclidean neighbours agree: both pools empty
    out = tmp_path / "run"
    code = main(["pipeline", "--out", str(out), "--set", "gen.kind", "circles",
                 "--set", "gen.per_class", "100", "--set", "anchors.count", "1",
                 "--set", "mining.k_pos", "1", "--set", "mining.k_neg", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("mom pipeline: warning: dropped 1 anchors with empty pools\n"
                            "mom pipeline: error: every anchor produced empty pools\n")
    assert not out.exists()


GOOD_POOL_LINE = '{"anchor": 0, "positives": [[1, 0.5]], "negatives": [[2, 0.25]]}\n'


@pytest.mark.parametrize("line,needle", [
    ('{"anchor": 3, "positives": [[1, 0.5]]}', "KeyError: 'negatives'"),
    ('{"anchor": 3, "positives": [[1, "0.5x"]], "negatives": [[2, 0.5]]}', "[1, '0.5x']"),
    ('{"anchor": 3, "positives": [[1, NaN]], "negatives": [[2, 0.5]]}', "[1, nan]"),
    ('{"anchor": 3, "positives": [[1, 0.5]], "negatives": [[2, -0.5]]}', "[2, -0.5]"),
    ('{"anchor": 3, "positives": [[1.7, 0.5]], "negatives": [[2, 0.5]]}', "[1.7, 0.5]"),
    ('{"anchor": 3.0, "positives": [[1, 0.5]], "negatives": [[2, 0.5]]}', "integer \"anchor\""),
    ('{"anchor": -3, "positives": [[1, 0.5]], "negatives": [[2, 0.5]]}', "integer \"anchor\""),
    ('{"anchor": 3, "positives": [[1, 0.5]], "negatives": [[2, 0.5], [-2, 0.5]]}', "[-2, 0.5]"),
    ('{"anchor": 3, "positives": [[%d, 0.5]], "negatives": [[2, 0.5]]}' % 2**64, str(2**64)),
    ('{"anchor": 3, "positives": [[1, 0.5, 7]], "negatives": [[2, 0.5]]}', "[1, 0.5, 7]"),
    ('{"anchor": 3, "positives": [[1, 0.5]], "negatives": [[2, 0.5]', "JSONDecodeError"),
], ids=["missing-key", "non-numeric-weight", "nan-weight", "negative-weight", "fractional-id",
        "fractional-anchor", "negative-anchor", "negative-id", "id-past-int64", "not-a-pair",
        "bad-json"])
def test_train_rejects_a_bad_pool_line_with_file_and_line(tmp_path, capsys, line, needle):
    run_gen(tmp_path / "data")
    pools = tmp_path / "pools.jsonl"
    pools.write_text(GOOD_POOL_LINE + "\n" + line + "\n")
    capsys.readouterr()
    code = main(["train", "--out", str(tmp_path / "t"), "--features",
                 str(tmp_path / "data" / "features.bin"), "--pools", str(pools)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("mom train: error:") and f"{pools}:3:" in err and needle in err
    assert "Traceback" not in err
    assert not (tmp_path / "t").exists()


def test_train_rejects_a_pool_file_without_pools(tmp_path, capsys):
    run_gen(tmp_path / "data")
    pools = tmp_path / "pools.jsonl"
    pools.write_text("\n  \n")
    capsys.readouterr()
    code = main(["train", "--out", str(tmp_path / "t"), "--features",
                 str(tmp_path / "data" / "features.bin"), "--pools", str(pools)])
    assert code == 2
    assert f"{pools}: no pools" in capsys.readouterr().err
