"""Command-line pipeline: gen, graph, anchors, mine, train, eval, and the
chained `pipeline` with optional alternating rounds.

Every subcommand reads a flat dotted-key JSON config (CLI flags win) and its
inputs, computes its results and returns them as (file name, saver, value)
entries with its summary lines. `main` is the one writer: once the command
has returned, it creates the output directory, writes the resolved
config.json and each file next to it, and prints the lines, so a command
that fails writes nothing.
Exit codes: 0 success, 1 usage error, 2 data error; a warning prints as one
line, "mom <command>: warning: <message>". Artifacts contain no
timestamps, so a fixed seed reproduces them byte for byte.
"""

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .anchors import AnchorSet, load_anchors, save_anchors, select_anchors, stationary
from .config import DEFAULTS, TYPE_RULES, RunConfig, json_value, key_type
from .errors import BadConfig, KTooLarge, LabelsMissing, MomineError, open_text
from .features import (
    FeatureSet,
    generate_synthetic,
    l2_normalize,
    load_features,
    load_labels,
    pca_whiten,
    save_features,
    save_labels,
)
from .graph import build_reciprocal_graph, load_graph, normalize_graph, save_graph
from .mining import build_training_pool, load_pools, save_pools
from .evaluation import check_labels_differ, evaluate_embeddings, recall_depths
from .trainer import forward, load_model, save_model, save_train_log, train


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse defaults to 2, which we reserve for data errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse(key, value, source=None):
    """A config value spelled as text (`--set`, MOM_SEED): converted by the
    key's type (config.key_type), then typed by config.json_value. A mismatch
    is a BadConfig naming `source`, by default the key."""
    kind = key_type(key)
    try:
        return json_value(key, kind(value))
    except (ValueError, BadConfig):
        raise BadConfig(f"{source or key} must be {TYPE_RULES[kind]}, got {value!r}") from None


def _load_config(path, pairs) -> dict:
    """DEFAULTS, then the config file's values, each typed by
    config.json_value, then the `--set` pairs, each parsed by `_parse`."""
    cfg = dict(DEFAULTS)
    if path:
        with open_text(path, BadConfig) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise BadConfig(f"{path}: the top level must be an object of dotted keys")
        cfg.update((key, json_value(key, value)) for key, value in loaded.items())
    cfg.update((key, _parse(key, value)) for key, value in pairs)
    return cfg


def _resolve_seed(args, cfg) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MOM_SEED")
    return cfg["seed"] if env is None else _parse("seed", env, source="MOM_SEED")


def _write_json(payload: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _anchor_set(graph, pi, cfg) -> AnchorSet:
    """select_anchors per the flat config, whose anchors.count bench/spans.py reads."""
    return select_anchors(graph, pi, cfg["anchors.count"], cfg["anchors.mode"])


def _anchors(graph, cfg, run, path):
    """The graph's anchors and the `anchors: ...` line that names `path`."""
    pi, parts = stationary(graph)
    anchor_set = _anchor_set(graph, pi, cfg)
    return anchor_set, (f"anchors: {len(anchor_set)} of requested {run.anchors.count}"
                        f" (stationary: closed form, {parts} components) -> {path}")


def _evaluate(emb, labels, run):
    """evaluate_embeddings at the run's recall depths and seed."""
    return evaluate_embeddings(emb, labels, ks=run.eval.depths, seed=run.seed)


def _prepare(feats, run) -> FeatureSet:
    """Whiten if configured, then l2-normalize."""
    if run.prep.whiten_dims:
        feats = pca_whiten(feats, run.prep.whiten_dims)
    return l2_normalize(feats)


def _labels(args, run, n):
    """The --labels sidecar, or None without one; the oracle pools need it."""
    if not args.labels and run.mining.oracle != "none":
        raise LabelsMissing(f"mining.oracle {run.mining.oracle} needs --labels")
    return load_labels(args.labels, n) if args.labels else None


def cmd_gen(args, cfg, run, out: Path):
    feats = generate_synthetic(run.gen, run.seed)
    return [("features.bin", save_features, feats), ("labels.txt", save_labels, feats.labels)], [
        f"gen: {run.gen.kind} n={feats.n} d={feats.d} noise={run.gen.noise}"
        f" -> {out / 'features.bin'}"
    ]


def cmd_graph(args, cfg, run, out: Path):
    graph = build_reciprocal_graph(_prepare(load_features(args.features), run), run.graph.k)
    isolated = int(np.sum(graph.degrees == 0))
    return [("graph.txt", save_graph, graph)], [
        f"graph: n={graph.n} k={graph.k} edges={graph.adjacency.nnz // 2}"
        f" isolated={isolated} -> {out / 'graph.txt'}"
    ]


def cmd_anchors(args, cfg, run, out: Path):
    anchor_set, line = _anchors(load_graph(args.graph), cfg, run, out / "anchors.txt")
    return [("anchors.txt", save_anchors, anchor_set)], [line]


def cmd_mine(args, cfg, run, out: Path):
    feats = _prepare(load_features(args.features), run)
    operator = normalize_graph(load_graph(args.graph)) if args.graph else None
    anchor_set = load_anchors(args.anchors)
    labels = _labels(args, run, feats.n)
    pools = build_training_pool(anchor_set, feats, operator, run.diffusion, run.mining, labels,
                                run.seed)
    return [("pools.jsonl", save_pools, pools)], [
        f"mine: {pools.anchors.size} anchors, {pools.pos_ids.size} positives,"
        f" {pools.neg_ids.size} negatives (mode={run.mining.mode}, oracle={run.mining.oracle})"
        f" -> {out / 'pools.jsonl'}"
    ]


def cmd_train(args, cfg, run, out: Path):
    feats = _prepare(load_features(args.features), run)
    pools = load_pools(args.pools)
    model = run.model.initialize(feats.d, run.seed)
    model, log = train(feats, pools, model, run.train, run.mining, run.seed)
    last = log[-1]["mean_loss"] if log else float("nan")
    return [("model.bin", save_model, model), ("train_log.csv", save_train_log, log)], [
        f"train: {run.train.epochs} epochs, loss={run.train.loss}"
        f" weights={run.train.weight_normalization}, final mean loss {last:.6g}"
        f" -> {out / 'model.bin'}"
    ]


def _write_report(report, path) -> None:
    _write_json(dict(vars(report), recall_at={str(k): v for k, v in report.recall_at.items()}),
                path)


def cmd_eval(args, cfg, run, out: Path):
    feats = _prepare(load_features(args.features), run)
    labels = load_labels(args.labels, feats.n)
    if args.model:
        emb, name = forward(load_model(args.model), feats.data), "report.json"
    else:
        emb, name = feats.data, "initial_report.json"
    report = _evaluate(emb, labels, run)
    k = min(report.recall_at)
    return [(name, _write_report, report)], [
        f"eval: recall@{k}={report.recall_at[k]:.4f} nmi={report.nmi:.4f}"
        f" map={report.map_score:.4f} -> {out / name}"
    ]


def cmd_pipeline(args, cfg, run, out: Path):
    if args.features:
        feats_raw = load_features(args.features)
        labels = _labels(args, run, feats_raw.n)
    else:
        feats_raw = generate_synthetic(run.gen, run.seed)
        labels = feats_raw.labels
    feats = _prepare(feats_raw, run)
    if run.graph.k >= feats.n:
        raise KTooLarge(f"graph.k={run.graph.k} must be below n={feats.n}")
    if labels is not None:
        recall_depths(run.eval.depths, feats.n)
        check_labels_differ(labels)
    model = run.model.initialize(feats.d, run.seed)
    files = [("features.bin", save_features, feats_raw)]
    if labels is not None:
        files.append(("labels.txt", save_labels, labels))
    lines = []
    for rnd in range(1, run.rounds + 1):
        suffix = "" if rnd == 1 else f".round{rnd}"
        space = feats if rnd == 1 else FeatureSet(forward(model, feats.data))
        graph = build_reciprocal_graph(space, run.graph.k)
        anchors_name = f"anchors{suffix}.txt"
        anchor_set, line = _anchors(graph, cfg, run, out / anchors_name)
        lines.append(f"round {rnd}: {line}")
        operator = normalize_graph(graph) if run.mining.mode == "mined" else None
        pools = build_training_pool(anchor_set, space, operator, run.diffusion, run.mining,
                                    labels, run.seed)
        model, log = train(feats, pools, model, run.train, run.mining, run.seed)
        files += [(f"graph{suffix}.txt", save_graph, graph),
                  (anchors_name, save_anchors, anchor_set),
                  (f"pools{suffix}.jsonl", save_pools, pools),
                  (f"train_log{suffix}.csv", save_train_log, log)]
    files.append(("model.bin", save_model, model))
    if labels is None:
        return files, lines + [f"pipeline: rounds={run.rounds} trained model"
                               f" -> {out / 'model.bin'} (no labels, no eval)"]
    initial = _evaluate(feats.data, labels, run)
    trained = _evaluate(forward(model, feats.data), labels, run)
    k = min(initial.recall_at)
    files += [("initial_report.json", _write_report, initial),
              ("report.json", _write_report, trained)]
    return files, lines + [
        f"pipeline: rounds={run.rounds} recall@{k} initial={initial.recall_at[k]:.4f}"
        f" trained={trained.recall_at[k]:.4f} -> {out / 'report.json'}"
    ]


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
    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "graph": cmd_graph,
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
            cfg["seed"] = _resolve_seed(args, cfg)
            run = RunConfig.from_flat(cfg)  # checks every value before any work
            if args.command == "mine" and not args.graph and run.mining.mode == "mined":
                parser.error("mine needs --graph for mined pools; baseline pools need none")
            out = Path(args.out)
            files, lines = _COMMANDS[args.command](args, cfg, run, out)
            out.mkdir(parents=True, exist_ok=True)
            _write_json(cfg, out / "config.json")
            for name, save, value in files:
                save(value, out / name)
            print(*lines, sep="\n")
            return 0
        except (MomineError, OSError) as exc:
            print(f"mom {args.command}: error: {exc}", file=sys.stderr)
            return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
