"""One benchmark step in a fresh process, so that its peak RSS is its own.

    python3 bench/worker.py setup --workload NAME --seed N --inputs DIR [--smoke]
    python3 bench/worker.py run   --workload NAME --seed N --inputs DIR --input J
                                  --out DIR --result FILE [--trace] [--smoke]

`setup` generates the workload's inputs from the seed and writes each as a
feature file and a label file under DIR/<j>. `run` executes `mom pipeline`
in-process through `momine.cli.main` once, on input J, and records its wall
and CPU time, the process's peak RSS and, when traced, its spans and counts.
Both import `momine` from the `src/` directory of the checkout.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]


def import_momine():
    """Import the package from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "momine" / "__init__.py").is_file():
        raise SystemExit(f"no momine sources under {src}")
    sys.path.insert(0, str(src))
    import momine

    if Path(momine.__file__).resolve().parent != src / "momine":
        raise SystemExit(f"imported momine from {momine.__file__}, expected {src / 'momine'}")
    return momine


def setup(workload, seed, inputs: Path) -> None:
    momine = import_momine()
    spec = momine.SyntheticSpec(
        kind=workload.kind,
        per_class=workload.per_class,
        classes=workload.classes,
        ambient_dim=workloads.AMBIENT_DIM,
        noise=workload.noise,
    )
    for j, input_seed in enumerate(workloads.input_seeds(seed)):
        feats = momine.generate_synthetic(spec, input_seed)
        (inputs / str(j)).mkdir(parents=True, exist_ok=True)
        momine.save_features(feats, inputs / str(j) / "features.bin")
        if workload.labelled:
            momine.save_labels(feats.labels, inputs / str(j) / "labels.txt")


def run(workload, seed, inputs: Path, j: int, out: Path, result: Path, traced: bool) -> None:
    import_momine()
    from momine import cli

    argv = workload.pipeline_argv(inputs / str(j), out, workloads.input_seeds(seed)[j])
    trace = None
    if traced:
        from spans import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if not traced:
        rc = cli.main(argv)
    else:
        with tracer.span(ROOT_SPAN):
            rc = cli.main(argv)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if traced:
        tracer.uninstall()
        trace = tracer.to_json()
    record = {
        "rc": rc,
        "input": j,
        "run_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": trace,
    }
    result.write_text(json.dumps(record))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--input", type=int, choices=range(workloads.INPUTS))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    workload = workloads.get(args.workload, smoke=args.smoke)
    if args.mode == "setup":
        setup(workload, args.seed, args.inputs)
    else:
        if args.input is None or args.out is None or args.result is None:
            parser.error("run needs --input, --out and --result")
        run(workload, args.seed, args.inputs, args.input, args.out, args.result, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
