"""Tests of the benchmark itself: python -m pytest -q bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_runs_every_workload_and_catches_bad_outputs():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "passed", "problems": []}


def test_refuses_to_run_without_the_program_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "moons-maxima", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_declared_names_match_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    empty = spans.layer_metrics({"spans": [], "counts": {}, "missing": []})
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(empty)


def test_self_time_subtracts_child_spans():
    trace = {
        "spans": [
            [0, None, "cli.pipeline", 0.0, 10.0],
            [1, 0, "graph.build", 1.0, 5.0],
            [2, 1, "graph.knn", 1.0, 4.0],
            [3, 0, "mining.pool", 5.0, 9.0],
            [4, 3, "diffusion.solve", 5.0, 6.0],
            [5, 3, "diffusion.solve", 6.0, 7.5],
        ],
        "counts": {"diffusion.solves": 2},
        "missing": [],
    }
    m = spans.layer_metrics(trace)
    assert m["graph.build_s"] == 4.0 and m["graph.knn_s"] == 3.0 and m["graph.self_s"] == 1.0
    assert m["mining.pool_s"] == 4.0 and m["mining.self_s"] == 1.5
    assert m["diffusion.ms_per_solve"] == 1250.0
    assert m["cli.pipeline_s"] == 10.0 and m["cli.self_s"] == 2.0
    shares = spans.layer_shares(trace)
    assert abs(sum(shares.values()) - 1.0) < 1e-12 and shares["graph"] == 0.4


def test_a_vanished_name_drops_its_span_without_failing(monkeypatch):
    import momine.cli

    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("momine.cli", "gone", "cli.gone"),))
    original = momine.cli.build_reciprocal_graph
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert momine.cli.build_reciprocal_graph is not original
        assert tracer.missing == ["momine.cli.gone"]
    finally:
        tracer.uninstall()
    assert momine.cli.build_reciprocal_graph is original
