"""Benchmark of `mom pipeline` on generated inputs, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout. The harness generates the workload's inputs
from the seed, then makes runs back to back (a closed loop: one client, one
pipeline at a time) until S seconds have passed and every input has had
the same number of runs, at least two. Each run is a fresh worker process,
so its peak RSS is its own, and runs the pipeline once; the runs take the
workload's inputs (workloads.INPUTS) in turn. After every run, outside the
timed region, it checks the outputs and their digest; a run that raises,
exits non-zero, fails a check or writes other bytes than the first run on
the same input counts as failed.

With --trace 0 it reports the end-to-end metrics; with --trace 1 each run is
traced and it reports the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--smoke runs every workload once at tiny size and shows that a corrupted
pool file and a changed digest both count as failed runs.
"""

import os
import sys

# One BLAS thread for this process and every worker, set before numpy is
# imported anywhere: it is the program's bitwise-reproducible mode, and on a
# shared 2-core machine a second thread mostly adds run-to-run spread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
# a set-up takes about 0.4 s, mostly interpreter start and imports; the
# median of several is steadier than one
SETUP_REPEATS = 7
# two runs per input: the second gives the digest a comparison
MIN_RUNS = 2 * workloads.INPUTS
# every invocation must end within 180 s; stop starting runs well before that
DEADLINE_S = 165.0

class SetupFailed(Exception):
    pass


def _worker(mode, workload, seed, inputs, timeout, smoke, *extra):
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload.name,
           "--seed", str(seed), "--inputs", str(inputs), *extra]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def _tail(proc) -> str:
    lines = (proc.stderr or proc.stdout or "").strip().splitlines()
    return lines[-1] if lines else f"exit code {proc.returncode}"


def set_up(workload, seed, inputs: Path, repeats: int, deadline: float, smoke: bool) -> list:
    """Generate and write the inputs `repeats` times, each in a fresh process;
    returns the wall seconds of each. All repeats must write the same bytes."""
    import checks

    times, first = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = _worker("setup", workload, seed, inputs, deadline - t0, smoke)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupFailed(f"setup failed: {_tail(proc)}")
        d = checks.digest(inputs)
        if first is not None and d != first:
            raise SetupFailed("setup wrote different inputs for the same seed")
        first = d
    return times


def measure(workload, seed, seconds, traced, smoke=False, runs=None, tamper=None):
    """Set up, then make runs until `seconds` pass (at least MIN_RUNS and a
    whole number per input, or exactly `runs`); check every run.

    `tamper(index, out)` may alter a run's outputs before they are checked;
    the smoke test uses it to show that the checks catch bad outputs.
    """
    import checks

    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import momine

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs, out, result_file = work / "inputs", work / "out", work / "result.json"
    setup_times = set_up(workload, seed, inputs, 1 if traced else SETUP_REPEATS, deadline, smoke)

    records, reasons = [], []
    references, reports = {}, {}
    attempted = failed = 0
    loop_start = time.perf_counter()
    last = 0.0

    def another() -> bool:
        if runs is not None:
            return attempted < runs
        now = time.perf_counter()
        if attempted and now + last >= deadline:
            return False
        if attempted < MIN_RUNS or attempted % workloads.INPUTS:
            return True
        return now - loop_start < seconds

    while another():
        shutil.rmtree(out, ignore_errors=True)
        result_file.unlink(missing_ok=True)
        j = attempted % workloads.INPUTS
        t0 = time.perf_counter()
        extra = ["--input", str(j), "--out", str(out), "--result", str(result_file)]
        if traced:
            extra.append("--trace")
        try:
            proc = _worker("run", workload, seed, inputs, deadline + 10 - t0, smoke, *extra)
        except subprocess.TimeoutExpired:
            proc = None
        last = time.perf_counter() - t0
        attempted += 1
        try:
            if proc is None:
                raise checks.CheckFailed("run timed out")
            if proc.returncode != 0 or not result_file.exists():
                raise checks.CheckFailed(f"worker failed: {_tail(proc)}")
            record = json.loads(result_file.read_text())
            if record["rc"] != 0:
                raise checks.CheckFailed(f"mom pipeline exited {record['rc']}: {_tail(proc)}")
            records.append(record)
            if tamper is not None:
                tamper(attempted - 1, out)
            digest = checks.digest(out)
            reference = references.setdefault(j, digest)
            report = checks.validate(workload, inputs / str(j), out, momine)
            if digest != reference:
                raise checks.CheckFailed(
                    f"input {j}: artifact digest {digest[:16]} != first run's {reference[:16]}"
                )
            reports[j] = report
        except Exception as exc:  # any fault in a run or its outputs fails that run only
            failed += 1
            reasons.append(f"run {attempted}: {type(exc).__name__}: {exc}")
    traces = [r["trace"] for r in records if r["trace"]]
    if traces:
        (work / "trace.json").write_text(json.dumps(traces))
    return {
        "workload": workload,
        "setup": setup_times,
        "runs": records,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "digests": dict(sorted(references.items())),
        "reports": dict(sorted(reports.items())),
    }


def _input_mean_of_medians(runs, value):
    """Median over each input's runs, then the mean over inputs: every input
    weighs the same whatever the number of runs it got."""
    by_input = {}
    for r in runs:
        by_input.setdefault(r["input"], []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def end_to_end_metrics(res) -> dict:
    runs, summary = res["runs"], {}
    if runs:
        for name in ("run_s", "cpu_s", "peak_rss_mb"):
            summary[name] = {
                "value": _input_mean_of_medians(runs, lambda r: r[name]),
                "max": max(r[name] for r in runs),
                "n": len(runs),
            }
    summary["setup_s"] = {
        "value": statistics.median(res["setup"]),
        "max": max(res["setup"]),
        "n": len(res["setup"]),
    }
    return summary


def per_layer_metrics(res) -> dict:
    """Per input, the median over its traced runs; then the mean over inputs."""
    import spans

    runs = [dict(r, layers=spans.layer_metrics(r["trace"])) for r in res["runs"] if r["trace"]]
    keys = runs[0]["layers"]
    return {key: _input_mean_of_medians(runs, lambda r: r["layers"][key]) for key in keys}


def report_lines(res, env, traced) -> list:
    w = res["workload"]
    lines = [
        f"env {json.dumps(env, sort_keys=True)}",
        f"workload {w.name} n={w.n} rounds={w.rounds} labelled={w.labelled} "
        f"trace={int(traced)} attempted={res['attempted']} failed={res['failed']} "
        f"fail_frac={res['failed'] / res['attempted']:.4g}",
    ]
    lines += [f"digest input={j} {d}" for j, d in res["digests"].items()]
    lines += [f"failed {reason}" for reason in res["reasons"]]
    units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
    for name, s in end_to_end_metrics(res).items():
        label = "traced_" + name if traced and name != "setup_s" else name
        lines.append(
            f"{label} value={s['value']:.6g} max={s['max']:.6g} n={s['n']} unit={units[name]}"
        )
    for j, rep in res["reports"].items():
        if rep:
            lines.append(
                f"quality input={j} recall_at_1={rep['recall_at']['1']}"
                f" map_score={rep['map_score']} nmi={rep['nmi']}"
            )
    every = [r["trace"] for r in res["runs"] if r["trace"]]
    if traced and every:
        import spans

        shares = [spans.layer_shares(t) for t in every]
        median_shares = {k: round(statistics.median(s[k] for s in shares), 4) for k in shares[0]}
        lines.append(f"layer_shares {json.dumps(median_shares)}")
        missing = sorted({m for t in every for m in t["missing"]})
        if missing:
            lines.append(f"untraced {missing}")
    return lines


def final_line(res, traced) -> dict:
    """The result line: every metric BENCHMARK.json declares for this mode."""
    if traced:
        values, section = per_layer_metrics(res), "per_layer"
    else:
        values = {name: s["value"] for name, s in end_to_end_metrics(res).items()}
        section = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in _declared(section)}
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def _declared(section):
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


# the smoke test's tampered run: the second run on input 0
TAMPERED_RUN = workloads.INPUTS


def _corrupt_pools(index, out):
    """Put the first anchor into its own negative pool."""
    if index == TAMPERED_RUN:
        path = out / "pools.jsonl"
        lines = path.read_text().splitlines()
        first = json.loads(lines[0])
        first["negatives"][0][0] = first["anchor"]
        lines[0] = json.dumps(first)
        path.write_text("\n".join(lines) + "\n")


def _perturb_log(index, out):
    """Change the last logged loss in its ninth digit; every check still
    passes, only the digest differs."""
    if index == TAMPERED_RUN:
        path = out / "train_log.csv"
        lines = path.read_text().splitlines()
        epoch, loss, lr, used = lines[-1].split(",")
        lines[-1] = f"{epoch},{float(loss) * (1 + 1e-7) + 1e-9:.9g},{lr},{used}"
        path.write_text("\n".join(lines) + "\n")


def smoke() -> int:
    """Every workload once at tiny size, untraced and traced, plus the two
    tampered runs; prints one line per check and returns 0 if all hold."""
    problems = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            problems.append(what)

    for name in workloads.WORKLOADS:
        w = workloads.get(name, smoke=True)
        for traced in (False, True):
            res = measure(w, 1, 0, traced, smoke=True, runs=1)
            expect(res["failed"] == 0, f"{name} trace={int(traced)} runs cleanly {res['reasons']}")
            section = "per_layer" if traced else "end_to_end"
            reported = list(final_line(res, traced)["metrics"])
            expect(reported == [m["name"] for m in _declared(section)],
                   f"{name} trace={int(traced)} reports every {section} metric")
            if traced:
                layers = per_layer_metrics(res)
                expect((layers["evaluation.total_s"] > 0) == w.labelled,
                       f"{name} evaluation runs iff labelled")
    w = workloads.get("moons-maxima", smoke=True)
    tampered_runs = TAMPERED_RUN + 1
    res = measure(w, 1, 0, False, smoke=True, runs=tampered_runs, tamper=_corrupt_pools)
    expect(res["attempted"] == tampered_runs and res["failed"] == 1
           and "own anchor" in " ".join(res["reasons"]),
           f"a corrupted pool file fails its run {res['reasons']}")
    res = measure(w, 1, 0, False, smoke=True, runs=tampered_runs, tamper=_perturb_log)
    expect(res["attempted"] == tampered_runs and res["failed"] == 1
           and "digest" in " ".join(res["reasons"]),
           f"a changed digest fails its run {res['reasons']}")
    print(json.dumps({"smoke": "passed" if not problems else "failed", "problems": problems}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "momine" / "__init__.py").is_file():
        print(f"run.py: no momine sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    import checks

    traced = bool(args.trace)
    try:
        res = measure(workloads.get(args.workload), args.seed, args.seconds, traced)
    except (SetupFailed, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if not res["runs"]:
        print(f"run.py: no run finished: {res['reasons']}", file=sys.stderr)
        return 1
    for line in report_lines(res, checks.environment(ROOT, args.seed, BLAS_THREADS), traced):
        print(line)
    print(json.dumps(final_line(res, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
