"""Command-line pipeline: gen, graph, diffuse, anchors, mine, train, eval,
and the chained `pipeline` with optional alternating rounds.

Every subcommand reads a flat dotted-key JSON config (CLI flags win) and its
inputs, and only then creates the output directory, writes its resolved
config next to its outputs and prints a one-line summary.
Exit codes: 0 success, 1 usage error, 2 data error; a warning prints as one
line, "mom <command>: warning: <message>". Artifacts contain no
timestamps, so a fixed seed reproduces them byte for byte.
"""

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .anchors import (
    ANCHOR_MODES,
    AnchorSet,
    load_anchors,
    save_anchors,
    select_anchors,
    stationary,
)
from .diffusion import DiffusionConfig, solve_columns
from .errors import BadConfig, BadModel, KTooLarge, LabelsMissing, MomineError, open_text
from .features import (
    FeatureSet,
    SyntheticSpec,
    generate_synthetic,
    l2_normalize,
    load_features,
    load_labels,
    pca_whiten_apply,
    pca_whiten_fit,
    save_features,
    save_labels,
)
from .graph import build_reciprocal_graph, load_graph, normalize_graph, save_graph, top_k
from .mining import MiningConfig, build_training_pool, load_pools, save_pools
from .evaluation import check_labels_differ, evaluate_embeddings, recall_depths
from .trainer import (
    EmbeddingModel,
    TrainConfig,
    forward,
    load_model,
    save_model,
    save_train_log,
    train,
)

DEFAULTS = {
    "seed": 0,
    "gen.kind": "moons",
    "gen.classes": 2,
    "gen.per_class": 200,
    "gen.ambient_dim": 16,
    "gen.noise": 0.15,
    "prep.whiten_dims": 0,  # 0 = off
    "graph.k": 30,
    "diffusion.alpha": 0.99,
    "diffusion.tolerance": 1e-6,
    "diffusion.max_iterations": 100,
    "anchors.count": 64,
    "anchors.mode": "maxima",  # maxima | all (every non-isolated node, by pi)
    "mining.k_pos": 50,
    "mining.k_neg": 100,
    "mining.max_pos": 0,  # 0 = unlimited
    "mining.max_neg": 50,
    "mining.hard_subset_size": 10,
    "mining.mode": "mined",  # mined | baseline
    "mining.baseline_k": 5,
    "mining.oracle": "none",  # none | positive | negative
    "model.kind": "linear",
    "model.output_dim": 16,
    "model.hidden_dim": 0,
    "train.loss": "contrastive",
    "train.weighted": True,
    "train.margin": 0.0,  # 0 = per-loss default (0.7 contrastive, 0.5 triplet)
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


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse defaults to 2, which we reserve for data errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _parse(key, value, text=False, source=None):
    """The one place a config value gets its type: that of the key's DEFAULTS
    entry. A string from the command line (`text`: `--set`, MOM_SEED) is
    parsed, a bool from one of the _BOOLS spellings. A config-file value must
    already have the key's JSON type; an integer also passes for a float,
    and a float must be finite. A mismatch is a BadConfig naming `source`,
    by default the key."""
    if key not in DEFAULTS:
        raise BadConfig(f"unknown config key {key!r}")
    kind = type(DEFAULTS[key])
    try:
        if text and kind is bool:
            return _BOOLS[value.lower()]
        if text or type(value) is kind or (kind is float and type(value) is int):
            parsed = kind(value)
            if kind is not float or math.isfinite(parsed):
                return parsed
    except (KeyError, ValueError, OverflowError):  # OverflowError: a huge int for a float
        pass
    rule = f"one of {sorted(_BOOLS)}" if text and kind is bool else _KINDS[kind]
    raise BadConfig(f"{source or key} must be {rule}, got {value!r}")


def _load_config(path, pairs) -> dict:
    """DEFAULTS, then the config file's values, then the `--set` pairs, each
    typed by `_parse`."""
    cfg = dict(DEFAULTS)
    if path:
        with open_text(path, BadConfig) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise BadConfig(f"{path}: the top level must be an object of dotted keys")
        cfg.update((key, _parse(key, value)) for key, value in loaded.items())
    cfg.update((key, _parse(key, value, text=True)) for key, value in pairs)
    return cfg


# the config values no config object checks: key -> (test, rule)
_CHECKS = {
    "seed": (lambda v: v >= 0, ">= 0"),
    "prep.whiten_dims": (lambda v: v >= 0, ">= 0"),
    "graph.k": (lambda v: v >= 1, ">= 1"),
    "anchors.count": (lambda v: v >= 1, ">= 1"),
    "anchors.mode": (lambda v: v in ANCHOR_MODES, "'maxima' or 'all'"),
    "mining.max_pos": (lambda v: v >= 0, ">= 0 (0 = unlimited)"),
    "rounds": (lambda v: v >= 1, ">= 1"),
}


def _validate_config(cfg, seed) -> None:
    """Check every config value and the model's architecture, and build the
    generator, diffusion, mining and training configs, so a bad value fails
    before any work."""
    for key, (test, rule) in _CHECKS.items():
        if not test(cfg[key]):
            raise BadConfig(f"{key} must be {rule}, got {cfg[key]!r}")
    try:
        EmbeddingModel.check_architecture(
            cfg["model.kind"], cfg["model.output_dim"], cfg["model.hidden_dim"])
    except BadModel as exc:
        raise BadConfig(f"model.{exc.field}: {exc}") from None
    _gen_spec(cfg)
    _diffusion_config(cfg)
    _mining_config(cfg)
    _train_config(cfg, seed)
    _eval_ks(cfg)


def _resolve_seed(args, cfg) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MOM_SEED")
    return cfg["seed"] if env is None else _parse("seed", env, text=True, source="MOM_SEED")


def _write_config(cfg: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _checked(section, make, cfg, **values):
    """Build a config object from the `section.*` keys named after its fields,
    `values` winning; a value it rejects is reported under its dotted key."""
    names = {field.name for field in fields(make)}
    for key, value in cfg.items():
        head, _, name = key.partition(".")
        if head == section and name in names:
            values.setdefault(name, value)
    try:
        return make(**values)
    except ValueError as exc:
        raise BadConfig(f"{section}.{exc}") from None


def _diffusion_config(cfg) -> DiffusionConfig:
    return _checked("diffusion", DiffusionConfig, cfg)


def _mining_config(cfg) -> MiningConfig:
    return _checked("mining", MiningConfig, cfg, max_pos=cfg["mining.max_pos"] or None)


def _train_config(cfg, seed) -> TrainConfig:
    return _checked("train", TrainConfig, cfg, seed=seed)


def _anchor_set(graph, pi, cfg) -> AnchorSet:
    """Anchor selection per config (see select_anchors)."""
    return select_anchors(graph, pi, cfg["anchors.count"], cfg["anchors.mode"])


def _gen_spec(cfg) -> SyntheticSpec:
    return _checked("gen", SyntheticSpec, cfg)


def _prepare(feats, cfg) -> FeatureSet:
    """Whiten if configured, then l2-normalize."""
    if cfg["prep.whiten_dims"]:
        transform = pca_whiten_fit(feats, cfg["prep.whiten_dims"])
        feats = pca_whiten_apply(feats, transform)
    return l2_normalize(feats)


def _initial_model(cfg, input_dim, seed) -> EmbeddingModel:
    return EmbeddingModel.initialize(
        cfg["model.kind"], input_dim, cfg["model.output_dim"],
        cfg["model.hidden_dim"], seed=seed,
    )


def _labels(args, cfg, n):
    """The --labels sidecar, or None without one; the oracle pools need it."""
    if not args.labels and cfg["mining.oracle"] != "none":
        raise LabelsMissing(f"mining.oracle {cfg['mining.oracle']} needs --labels")
    return load_labels(args.labels, n) if args.labels else None


def cmd_gen(args, cfg, seed, out: Path):
    feats = generate_synthetic(_gen_spec(cfg), seed)
    _write_config(cfg, out)
    save_features(feats, out / "features.bin")
    save_labels(feats.labels, out / "labels.txt")
    print(
        f"gen: {cfg['gen.kind']} n={feats.n} d={feats.d} noise={cfg['gen.noise']}"
        f" -> {out / 'features.bin'}"
    )
    return 0


def cmd_graph(args, cfg, seed, out: Path):
    feats = _prepare(load_features(args.features), cfg)
    graph = build_reciprocal_graph(feats, cfg["graph.k"])
    _write_config(cfg, out)
    save_graph(graph, out / "graph.txt")
    isolated = int(np.sum(graph.degrees == 0))
    print(
        f"graph: n={graph.n} k={graph.k} edges={graph.adjacency.nnz // 2}"
        f" isolated={isolated} -> {out / 'graph.txt'}"
    )
    return 0


def cmd_diffuse(args, cfg, seed, out: Path):
    graph = load_graph(args.graph)
    sym = normalize_graph(graph)
    block = solve_columns(sym, [args.anchor], _diffusion_config(cfg))
    values = block.values[0]
    order = top_k(values, graph.n)
    _write_config(cfg, out)
    with open(out / "column.txt", "w") as fh:
        for j in order:
            fh.write(f"{j} {values[j]:.9g}\n")
    print(
        f"diffuse: anchor={args.anchor} iterations={block.iterations[0]}"
        f" residual={block.residual[0]:.3g} converged={block.converged[0]}"
        f" -> {out / 'column.txt'}"
    )
    return 0


def _anchors_line(anchor_set, parts, cfg, path) -> str:
    return (
        f"anchors: {len(anchor_set)} of requested {cfg['anchors.count']}"
        f" (stationary: closed form, {parts} components) -> {path}"
    )


def cmd_anchors(args, cfg, seed, out: Path):
    graph = load_graph(args.graph)
    pi, parts = stationary(graph)
    anchor_set = _anchor_set(graph, pi, cfg)
    _write_config(cfg, out)
    save_anchors(anchor_set, out / "anchors.txt")
    print(_anchors_line(anchor_set, parts, cfg, out / "anchors.txt"))
    return 0


def cmd_mine(args, cfg, seed, out: Path):
    feats = _prepare(load_features(args.features), cfg)
    operator = normalize_graph(load_graph(args.graph)) if args.graph else None
    anchor_set = load_anchors(args.anchors)
    labels = _labels(args, cfg, feats.n)
    pools, _ = build_training_pool(anchor_set, feats, operator, _diffusion_config(cfg),
                                   _mining_config(cfg), labels, seed)
    _write_config(cfg, out)
    save_pools(pools, out / "pools.jsonl")
    n_pos = sum(len(p.positives) for p in pools)
    n_neg = sum(len(p.negatives) for p in pools)
    print(
        f"mine: {len(pools)} anchors, {n_pos} positives, {n_neg} negatives"
        f" (mode={cfg['mining.mode']}, oracle={cfg['mining.oracle']})"
        f" -> {out / 'pools.jsonl'}"
    )
    return 0


def cmd_train(args, cfg, seed, out: Path):
    feats = _prepare(load_features(args.features), cfg)
    pools = load_pools(args.pools)
    model = _initial_model(cfg, feats.d, seed)
    model, log = train(feats, pools, model, _train_config(cfg, seed), _mining_config(cfg))
    _write_config(cfg, out)
    save_model(model, out / "model.bin")
    save_train_log(log, out / "train_log.csv")
    last = log[-1]["mean_loss"] if log else float("nan")
    print(
        f"train: {cfg['train.epochs']} epochs, loss={cfg['train.loss']}"
        f" weighted={cfg['train.weighted']}, final mean loss {last:.6g}"
        f" -> {out / 'model.bin'}"
    )
    return 0


def _eval_ks(cfg) -> list:
    try:
        ks = [int(k) for k in cfg["eval.ks"].split(",") if k.strip()]
    except ValueError:
        ks = []
    if not ks or min(ks) < 1:
        raise BadConfig(f"eval.ks must list recall depths >= 1, got {cfg['eval.ks']!r}")
    return ks


def _write_report(report, path):
    payload = {
        "recall_at": {str(k): v for k, v in report.recall_at.items()},
        "nmi": report.nmi,
        "map_score": report.map_score,
        "n_queries": report.n_queries,
        "seed": report.seed,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_eval(args, cfg, seed, out: Path):
    feats = _prepare(load_features(args.features), cfg)
    labels = load_labels(args.labels, feats.n)
    if args.model:
        model = load_model(args.model)
        emb = forward(model, feats.data)
        name = "report.json"
    else:
        emb = feats.data
        name = "initial_report.json"
    report = evaluate_embeddings(emb, labels, ks=_eval_ks(cfg), seed=seed)
    _write_config(cfg, out)
    _write_report(report, out / name)
    k = min(report.recall_at)
    print(
        f"eval: recall@{k}={report.recall_at[k]:.4f} nmi={report.nmi:.4f}"
        f" map={report.map_score:.4f} -> {out / name}"
    )
    return 0


def cmd_pipeline(args, cfg, seed, out: Path):
    if args.features:
        feats_raw = load_features(args.features)
        labels = _labels(args, cfg, feats_raw.n)
    else:
        feats_raw = generate_synthetic(_gen_spec(cfg), seed)
        labels = feats_raw.labels
    feats = _prepare(feats_raw, cfg)
    if cfg["graph.k"] >= feats.n:
        raise KTooLarge(f"graph.k={cfg['graph.k']} must be below n={feats.n}")
    if labels is not None:
        recall_depths(_eval_ks(cfg), feats.n)
        check_labels_differ(labels)
    model = _initial_model(cfg, feats.d, seed)
    _write_config(cfg, out)
    save_features(feats_raw, out / "features.bin")
    if labels is not None:
        save_labels(labels, out / "labels.txt")
    rounds = cfg["rounds"]
    dcfg = _diffusion_config(cfg)
    mcfg = _mining_config(cfg)
    tcfg = _train_config(cfg, seed)
    for rnd in range(1, rounds + 1):
        suffix = "" if rnd == 1 else f".round{rnd}"
        space = feats if rnd == 1 else FeatureSet(forward(model, feats.data))
        graph = build_reciprocal_graph(space, cfg["graph.k"])
        save_graph(graph, out / f"graph{suffix}.txt")
        pi, parts = stationary(graph)
        anchor_set = _anchor_set(graph, pi, cfg)
        anchors_path = out / f"anchors{suffix}.txt"
        save_anchors(anchor_set, anchors_path)
        print(f"round {rnd}: " + _anchors_line(anchor_set, parts, cfg, anchors_path))
        operator = normalize_graph(graph) if mcfg.mode == "mined" else None
        pools, _ = build_training_pool(anchor_set, space, operator, dcfg, mcfg, labels, seed)
        save_pools(pools, out / f"pools{suffix}.jsonl")
        model, log = train(feats, pools, model, tcfg, mcfg)
        save_train_log(log, out / f"train_log{suffix}.csv")
    save_model(model, out / "model.bin")

    if labels is not None:
        initial = evaluate_embeddings(feats.data, labels, ks=_eval_ks(cfg), seed=seed)
        _write_report(initial, out / "initial_report.json")
        trained = evaluate_embeddings(forward(model, feats.data), labels, ks=_eval_ks(cfg),
                                      seed=seed)
        _write_report(trained, out / "report.json")
        k = min(initial.recall_at)
        print(
            f"pipeline: rounds={rounds} recall@{k} initial={initial.recall_at[k]:.4f}"
            f" trained={trained.recall_at[k]:.4f} -> {out / 'report.json'}"
        )
    else:
        print(f"pipeline: rounds={rounds} trained model -> {out / 'model.bin'} (no labels, no eval)")
    return 0


def _add_common(p):
    p.add_argument("--config", help="JSON config with flat dotted keys")
    p.add_argument("--seed", type=int, default=None, help="global seed (fallback: MOM_SEED env)")
    p.add_argument("--set", nargs=2, action="append", default=[], metavar=("KEY", "VALUE"),
                   help="override one config key, e.g. --set graph.k 10")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="mom", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"momine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic labeled dataset")
    _add_common(p)

    p = sub.add_parser("graph", help="build the reciprocal kNN graph")
    _add_common(p)
    p.add_argument("--features", required=True)

    p = sub.add_parser("diffuse", help="solve one diffusion column (debug dump)")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--anchor", type=int, required=True)

    p = sub.add_parser("anchors", help="select anchors from the stationary distribution")
    _add_common(p)
    p.add_argument("--graph", required=True)

    p = sub.add_parser("mine", help="build positive/negative pools per anchor")
    _add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--graph", help="graph file; needed for mined pools only")
    p.add_argument("--anchors", required=True)
    p.add_argument("--labels", help="label sidecar (oracle ablations only)")

    p = sub.add_parser("train", help="train the embedding on mined pools")
    _add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--pools", required=True)

    p = sub.add_parser("eval", help="evaluate an embedding against labels")
    _add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--model", help="model file; omit to score the raw features")

    p = sub.add_parser("pipeline", help="gen/load -> graph -> anchors -> mine -> train -> eval")
    _add_common(p)
    p.add_argument("--features", help="feature file; omit to generate synthetically")
    p.add_argument("--labels", help="label sidecar for --features (evaluation)")
    p.add_argument("--rounds", type=int, default=None, help="alternating mine/train rounds")
    p.add_argument("--baseline", choices=["euclidean"], default=None,
                   help="use Euclidean-NN baseline pools instead of mined ones")
    p.add_argument("--oracle", choices=["positive", "negative"], default=None,
                   help="replace one pool side with label ground truth (needs labels)")
    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "graph": cmd_graph,
    "diffuse": cmd_diffuse,
    "anchors": cmd_anchors,
    "mine": cmd_mine,
    "train": cmd_train,
    "eval": cmd_eval,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pipeline" and args.labels and not args.features:
        parser.error("pipeline --labels needs --features: generated data brings its own labels")
    with warnings.catch_warnings():  # restores showwarning when main returns
        warnings.showwarning = lambda message, *_: print(
            f"mom {args.command}: warning: {message}", file=sys.stderr)
        try:
            cfg = _load_config(args.config, args.set)
            if getattr(args, "rounds", None) is not None:
                cfg["rounds"] = args.rounds
            if getattr(args, "baseline", None):
                cfg["mining.mode"] = "baseline"
            if getattr(args, "oracle", None):
                cfg["mining.oracle"] = args.oracle
            seed = _resolve_seed(args, cfg)
            cfg["seed"] = seed
            _validate_config(cfg, seed)
            if args.command == "mine" and not args.graph and cfg["mining.mode"] == "mined":
                parser.error("mine needs --graph for mined pools; baseline pools need none")
            return _COMMANDS[args.command](args, cfg, seed, Path(args.out))
        except (MomineError, OSError) as exc:
            print(f"mom {args.command}: error: {exc}", file=sys.stderr)
            return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
