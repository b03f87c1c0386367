"""Byte-identity check of `mom`: run a fixed list of cases, then compare two runs.

    python tools/identity.py run OUT [--src DIR] [--case NAME ...]
    python tools/identity.py diff A B

The cases are the one home of `mom`'s end-to-end checks: bench-shaped,
CI-shaped and stage-by-stage runs, and one case per data error. `run` makes
OUT/<case>/ for each case and runs its steps there, with paths relative to
that directory, so two runs print the same lines. Each step is a `mom`
command or a short Python call, run in a fresh interpreter that imports
momine from DIR (default: the `src` of this checkout), or an input file the
case writes itself. A case's log.txt holds every step's command, exit code,
stdout and stderr, next to the artifacts its commands wrote. OUT/MANIFEST
lists the sha256 of every file. MOM_SEED is removed from the steps'
environment; everything else, OPENBLAS_NUM_THREADS and the CPU affinity
included, is inherited.

Each command declares the exit code it must return, 0 unless its case says
2, and a command declared to fail must leave no --out. `run` runs every
case, writes MANIFEST, prints one line per broken declaration and exits 1 if
there is any; 0 otherwise.

`diff` prints each file that differs between two finished run directories
or is in only one, and exits 1 if there is any, or if either directory has
no MANIFEST; 0 otherwise.

To check that a change keeps every byte, run the parent commit's sources
through --src, run the change's, and diff the two. A change that edits the
case list, or a command of a case, is compared otherwise: run each side's own
tools/identity.py on its own sources, diff the two, and list beforehand the
files expected to differ. An edited command shows in its case's log.txt, and
a step added or removed writes its files in one run only. To check that no byte
follows the BLAS threads or the CPUs, run under each setting (for example
OPENBLAS_NUM_THREADS=1, the default, and `taskset -c 0`) and diff the runs.
"""

import argparse
import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the generator settings of the three bench workloads (bench/workloads.py):
# moons in 64 dimensions at noise 0.15, each on two generator seeds
BENCH_DIM = "64"
BENCH_SEEDS = (2, 3)
# the address-space cap under which 10^11 generated doubles must fail at once
GEN_LIMIT = 2**39

# model files for the eval errors: of another input width, and with an inf weight
_NARROW_MODEL = """import sys
from momine.trainer import EmbeddingModel, save_model
save_model(EmbeddingModel.initialize(8, 8), sys.argv[1])
"""
_INF_MODEL = """import sys
from momine.trainer import EmbeddingModel, save_model
m = EmbeddingModel.initialize(16, 16)
m.layers[0][0][0, 0] = float('inf')
save_model(m, sys.argv[1])
"""


def mom(*argv, limit=None, code=0):
    """A `mom` command that must exit with `code`; limit caps its address
    space, in bytes."""
    return ("mom", argv, limit, code)


def python(code, *argv):
    return ("python", (code, *argv), None, 0)


def write(name, data):
    """An input file the case writes itself."""
    return ("write", (name, data.encode() if isinstance(data, str) else data), None, 0)


def gen(out, *pairs, seed=None):
    argv = ["gen", "--out", out]
    for key, value in pairs:
        argv += ["--set", key, str(value)]
    return mom(*argv, *(["--seed", str(seed)] if seed is not None else []))


def features(labels=True):
    """The --features of a case's `gen --out data`, and its --labels."""
    args = ["--features", "data/features.bin"]
    return args + ["--labels", "data/labels.txt"] if labels else args


def _bench_cases() -> dict:
    cases = {}
    for seed in BENCH_SEEDS:
        shape = [("gen.ambient_dim", BENCH_DIM)]
        cases[f"bench-maxima-s{seed}"] = [
            gen("data", ("gen.per_class", 1250), *shape, seed=seed),
            mom("pipeline", "--out", "run", *features(), "--seed", str(seed), "--rounds", "1"),
        ]
        cases[f"bench-all-2r-s{seed}"] = [
            gen("data", ("gen.per_class", 400), *shape, seed=seed),
            mom("pipeline", "--out", "run", *features(), "--seed", str(seed), "--rounds", "2",
                "--set", "anchors.mode", "all", "--set", "anchors.count", "800"),
        ]
        cases[f"bench-unlabeled-s{seed}"] = [
            gen("data", ("gen.per_class", 5000), *shape, seed=seed),
            mom("pipeline", "--out", "run", *features(labels=False), "--seed", str(seed),
                "--rounds", "1"),
        ]
    return cases


def _pipeline_cases() -> dict:
    cases = {
        "default": [
            mom("pipeline", "--out", "run"),
            mom("pipeline", "--out", "rerun", "--config", "run/config.json"),
        ],
    }
    for n in (602, 2502):  # not multiples of 8, so the Gram blocks are padded
        all_n = ["--set", "anchors.mode", "all", "--set", "anchors.count", str(n)]
        cases[f"ci-{n}"] = [
            gen("data", ("gen.per_class", n // 2)),
            mom("pipeline", "--out", "mined", *features(), *all_n),
            mom("pipeline", "--out", "baseline", *features(), *all_n,
                "--set", "mining.mode", "baseline"),
            mom("pipeline", "--out", "negative", *features(), *all_n,
                "--set", "mining.oracle", "negative"),
        ]
    return cases | {
        "ci-4002": [
            gen("data", ("gen.per_class", 2001)),
            mom("pipeline", "--out", "run", *features(), "--set", "anchors.mode", "all",
                "--set", "anchors.count", "200"),
        ],
        "mlp-triplet-2r": [
            mom("pipeline", "--out", "run", "--seed", "3", "--rounds", "2",
                "--set", "model.hidden_dim", "32",
                "--set", "train.loss", "triplet", "--set", "prep.whiten_dims", "8"),
        ],
        "weightings": [  # the two tuple weightings besides the default per-anchor-max
            mom("pipeline", "--out", weighting, "--seed", "4", "--rounds", "2",
                "--set", "train.weight_normalization", weighting)
            for weighting in ("unit", "none")
        ],
        "clusters-literal-positive": [
            mom("pipeline", "--out", "run", "--seed", "4", "--set", "mining.oracle", "positive",
                "--set", "gen.kind", "clusters", "--set", "gen.classes", "4",
                "--set", "gen.per_class", "60", "--set", "train.loss", "triplet-literal"),
        ],
        "stages": [
            gen("data", seed=5),
            mom("graph", "--out", "graph", *features(labels=False)),
            mom("anchors", "--out", "anchors", "--graph", "graph/graph.txt"),
            mom("anchors", "--out", "anchors-all", "--graph", "graph/graph.txt",
                "--set", "anchors.mode", "all", "--set", "anchors.count", "400"),
            mom("mine", "--out", "mine", *features(labels=False), "--graph", "graph/graph.txt",
                "--anchors", "anchors/anchors.txt"),
            mom("train", "--out", "train", *features(labels=False), "--pools",
                "mine/pools.jsonl"),
            *(mom("train", "--out", f"train-{loss}", *features(labels=False), "--pools",
                  "mine/pools.jsonl", "--set", "train.loss", loss)
              for loss in ("triplet", "triplet-literal")),
            mom("eval", "--out", "eval", *features()),
            mom("eval", "--out", "eval-model", *features(), "--model", "train/model.bin"),
        ],
    }


def _error_cases() -> dict:
    """One case per error that `mom` reports as a data error: each declares
    exit 2 on the step that fails, and that step must create no --out."""
    data = gen("data")
    return {
        "error-bad-config-value": [mom("gen", "--out", "bad", "--set", "graph.k", "abc", code=2)],
        "error-gen-spec": [mom("gen", "--out", "bad", "--set", "gen.per_class", "0", code=2)],
        "error-bad-label-file": [
            data, write("labels.txt", "a\nb\n"),
            mom("eval", "--out", "eval", *features(labels=False), "--labels", "labels.txt",
                code=2),
        ],
        "error-label-beyond-int64": [
            data, write("labels.txt", "0\n" * 399 + f"{2**63}\n"),
            mom("eval", "--out", "eval", *features(labels=False), "--labels", "labels.txt",
                code=2),
        ],
        "error-negative-seed": [
            data, mom("pipeline", "--out", "run", *features(labels=False), "--seed", "-1", code=2),
        ],
        "error-gen-beyond-memory": [
            mom("gen", "--out", f"gen-{size}", "--set", "gen.per_class", size, limit=GEN_LIMIT,
                code=2)
            for size in (str(2**63), "100000000000")
        ],
        "error-empty-features": [
            write("empty.bin", b"MOM1\0\0\0\0\5\0\0\0"),
            mom("graph", "--out", "graph", "--features", "empty.bin", code=2),
        ],
        "error-model-width": [
            data, python(_NARROW_MODEL, "narrow.bin"),
            mom("eval", "--out", "eval", *features(), "--model", "narrow.bin", code=2),
        ],
        "error-inf-weight": [
            data, python(_INF_MODEL, "inf.bin"),
            mom("eval", "--out", "eval", *features(), "--model", "inf.bin", code=2),
        ],
        "error-degree-overflow": [
            write("overflow.txt", "MOMG 3 2\n0 1 1e308\n0 2 1e308\n"),
            mom("anchors", "--out", "anchors", "--graph", "overflow.txt", code=2),
        ],
        "error-huge-headers": [
            data,
            write("graph.txt", "MOMG 4611686018427387904 2\n0 1 0.5\n"),
            write("features.bin", b"MOM1" + b"\377" * 8),
            write("model.bin", b"MOMM\0\0\0\0" + b"\377" * 8 + b"\0\0\0\0"),
            mom("anchors", "--out", "anchors", "--graph", "graph.txt", code=2),
            mom("graph", "--out", "graph", "--features", "features.bin", code=2),
            mom("eval", "--out", "eval", *features(), "--model", "model.bin", code=2),
        ],
        "error-graph-k-at-n": [
            gen("data", ("gen.per_class", 200)),
            mom("pipeline", "--out", "run", *features(labels=False), "--set", "graph.k", "500",
                code=2),
        ],
        "error-nan-tolerance": [
            mom("pipeline", "--out", "run", "--set", "diffusion.tolerance", "nan", code=2),
        ],
        "error-anchor-id-beyond-int64": [
            data, mom("graph", "--out", "graph", *features(labels=False)),
            write("anchors.txt", "18446744073709551616 0.5\n"),
            mom("mine", "--out", "mine", *features(labels=False), "--graph", "graph/graph.txt",
                "--anchors", "anchors.txt", code=2),
        ],
        "error-bad-pool-line": [
            data, write("pools.jsonl", '{"anchor": 0, "positives": [[1, 0.5]], "negatives": '
                        '[[2, 0.25]]}\n{"anchor": 1, "positives": [[3, 0.5]\n'),
            mom("train", "--out", "train", *features(labels=False), "--pools", "pools.jsonl",
                code=2),
        ],
        "error-late-pipeline": [  # failures inside a round, after its graph and anchors
            mom("pipeline", "--out", "empty-pools", "--set", "gen.kind", "circles",
                "--set", "gen.per_class", "100", "--set", "anchors.count", "1",
                "--set", "mining.k_pos", "1", "--set", "mining.k_neg", "1", code=2),
            mom("pipeline", "--out", "diverged", "--seed", "5", "--set", "gen.per_class", "60",
                "--set", "train.lr0", "1e50", code=2),
        ],
        "error-baseline-without-anchors": [
            data, write("anchors.txt", ""),
            mom("mine", "--out", "mine", *features(labels=False), "--anchors", "anchors.txt",
                "--set", "mining.mode", "baseline", code=2),
        ],
    }


CASES = {**_pipeline_cases(), **_bench_cases(), **_error_cases()}


def _limit(size):
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (size, size))


def run_case(name, steps, where: Path, src: Path) -> list:
    """Runs the case's steps in `where` and writes its log.txt. Returns one
    line per broken expectation: a step that exited with another code than
    it declares, or a step declared to fail whose --out exists."""
    where.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("MOM_SEED", None)
    log, broken = [], []
    for kind, args, limit, code in steps:
        if kind == "write":
            (where / args[0]).write_bytes(args[1])
            log.append(f"$ write {args[0]}\n")
            continue
        head = [sys.executable, "-m", "momine.cli"] if kind == "mom" else [sys.executable, "-c"]
        proc = subprocess.run([*head, *args], cwd=where, env=env, capture_output=True,
                              preexec_fn=_limit(limit) if limit else None)
        shown = " ".join(args) if kind == "mom" else " ".join(args[1:])
        log.append(f"$ {kind} {shown}\nexit {proc.returncode}\n"
                   f"--- stdout\n{proc.stdout.decode()}--- stderr\n{proc.stderr.decode()}")
        if proc.returncode != code:
            broken.append(f"{name}: {kind} {shown}: exit {proc.returncode}, declared {code}")
        if code and (where / args[args.index("--out") + 1]).exists():
            broken.append(f"{name}: {kind} {shown}: exit {proc.returncode}, but its --out exists")
    (where / "log.txt").write_text("".join(log))
    return broken


def digests(root: Path) -> dict:
    """The sha256 of every file under root but its MANIFEST, by relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path != root / "MANIFEST"
    }


def cmd_run(args) -> int:
    out, src = Path(args.out), Path(args.src).resolve()
    if not (src / "momine" / "__init__.py").is_file():
        raise SystemExit(f"identity: no momine package under {src}")
    if out.exists():
        raise SystemExit(f"identity: {out} exists; give a new directory")
    broken = []
    for name in args.case or CASES:
        print(f"identity: {name}", flush=True)
        broken += run_case(name, CASES[name], out / name, src)
    (out / "MANIFEST").write_text("".join(
        f"{digest}  {path}\n" for path, digest in digests(out).items()))
    for line in broken:
        print(f"identity: broken: {line}")
    return 1 if broken else 0


def cmd_diff(args) -> int:
    for root in (args.a, args.b):
        if not (Path(root) / "MANIFEST").is_file():
            raise SystemExit(f"identity: {root} holds no MANIFEST of a finished run")
    a, b = digests(Path(args.a)), digests(Path(args.b))
    differ = [path for path in sorted(a.keys() | b.keys()) if a.get(path) != b.get(path)]
    for path in differ:
        if path in a and path in b:
            print(f"{path}: differs")
        else:
            print(f"{path}: only in {args.a if path in a else args.b}")
    print(f"identity: {len(differ)} of {len(a.keys() | b.keys())} files differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the cases into a new directory")
    p.add_argument("out")
    p.add_argument("--src", default=str(SRC), help="the directory that holds the momine package")
    p.add_argument("--case", action="append", choices=list(CASES), help="run only this case")
    p = sub.add_parser("diff", help="compare two run directories")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_diff(args)


if __name__ == "__main__":
    sys.exit(main())
