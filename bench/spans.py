"""Tracing from outside the program: spans around the calls into each layer.

Each traced name is replaced, in the module where its caller looks it up, by
a wrapper that records a span (id, parent id, name, start, end) and takes
counts from the returned object. Spans are kept in memory and handed back
at the end of the run. A name that no longer exists is skipped, so a later
refactor of the package drops spans rather than breaking the benchmark.
"""

import importlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("features", "graph", "anchors", "diffusion", "mining", "trainer", "evaluation", "cli")

# (module, attribute, span name). The module is the one whose code calls the
# name, so that the wrapper is what the call actually resolves to.
TARGETS = (
    ("momine.cli", "load_features", "features.io"),
    ("momine.cli", "load_labels", "features.io"),
    ("momine.cli", "save_features", "features.io"),
    ("momine.cli", "save_labels", "features.io"),
    ("momine.cli", "l2_normalize", "features.normalize"),
    ("momine.cli", "build_reciprocal_graph", "graph.build"),
    ("momine.graph", "knn_search", "graph.knn"),
    ("momine.cli", "normalize_graph", "graph.normalize"),
    ("momine.cli", "save_graph", "graph.save"),
    ("momine.cli", "power_iteration", "anchors.power"),
    ("momine.cli", "_anchor_set", "anchors.select"),
    ("momine.mining", "solve_column", "diffusion.solve"),
    ("momine.cli", "build_training_pool", "mining.pool"),
    ("momine.cli", "save_pools", "mining.save"),
    ("momine.cli", "train", "trainer.train"),
    ("momine.trainer", "sample_epoch_tuples", "trainer.sample"),
    ("momine.cli", "forward", "trainer.embed"),
    ("momine.cli", "evaluate_embeddings", "evaluation.total"),
    ("momine.evaluation", "recall_at_k", "evaluation.recall"),
    ("momine.evaluation", "mean_average_precision", "evaluation.map"),
    ("momine.evaluation", "kmeans", "evaluation.kmeans"),
)

# spans whose peak resident memory is sampled, and the metric it goes to
MEMORY_SPANS = {"graph.build": "graph.peak_mb", "evaluation.total": "evaluation.peak_mb"}
RSS_INTERVAL_S = 0.001

ROOT_SPAN = "cli.pipeline"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


def _count(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _on_features(args, result, counts):
    # feature files only: load returns the FeatureSet, save takes it first
    feats = result if hasattr(result, "d") else args[0]
    if hasattr(feats, "d"):
        _count(counts, "features.bytes", 12 + feats.n * feats.d * 4)


def _on_graph(args, graph, counts):
    _count(counts, "graph.edges", int(graph.adjacency.nnz // 2))
    _count(counts, "graph.isolated", int((graph.degrees == 0).sum()))
    _count(counts, "graph.listed", graph.n * graph.k)


def _on_knn(args, result, counts):
    feats = args[0]
    _count(counts, "graph.knn_flop", 2 * feats.n * feats.n * feats.data.shape[1])


def _on_power(args, stat, counts):
    _count(counts, "anchors.power_iters", int(stat.iterations_used))
    _count(counts, "anchors.power_converged", int(bool(stat.converged)))


def _on_select(args, anchor_set, counts):
    _count(counts, "anchors.found", len(anchor_set))
    # momine.cli._anchor_set(graph, stat, cfg): the count the run's config asks for
    _count(counts, "anchors.requested", int(args[2]["anchors.count"]))


def _on_solve(args, column, counts):
    _count(counts, "diffusion.solves", 1)
    _count(counts, "diffusion.cg_iters", int(column.iterations_used))
    _count(counts, "diffusion.unconverged", int(not column.converged))
    counts["diffusion.cg_iters_max"] = max(
        counts.get("diffusion.cg_iters_max", 0), int(column.iterations_used)
    )


def _on_pool(args, result, counts):
    pools, _ = result
    _count(counts, "mining.anchors", len(args[0].anchor_ids))
    _count(counts, "mining.pools_kept", len(pools))
    _count(counts, "mining.positives", sum(len(p.positives) for p in pools))
    _count(counts, "mining.negatives", sum(len(p.negatives) for p in pools))


def _on_save_pools(args, result, counts):
    _count(counts, "mining.bytes", os.path.getsize(args[1]))


def _on_train(args, result, counts):
    _, log = result
    _count(counts, "trainer.tuples", sum(int(row["tuples_used"]) for row in log))


def _on_sample(args, result, counts):
    _count(counts, "trainer.skipped", int(result[1]))


def _on_eval(args, report, counts):
    counts.setdefault("evaluation.initial_recall_at_1", float(report.recall_at.get(1, 0.0)))


ON_RETURN = {
    "features.io": _on_features,
    "graph.build": _on_graph,
    "graph.knn": _on_knn,
    "anchors.power": _on_power,
    "anchors.select": _on_select,
    "diffusion.solve": _on_solve,
    "mining.pool": _on_pool,
    "mining.save": _on_save_pools,
    "trainer.train": _on_train,
    "trainer.sample": _on_sample,
    "evaluation.total": _on_eval,
}


class RssSampler:
    """Peak resident memory above the starting level while it runs, read from
    /proc/self/statm by a thread every RSS_INTERVAL_S. Unlike tracemalloc it
    adds no cost to each allocation, so the span's time stays comparable to
    an untraced run."""

    def __init__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._done = threading.Event()
        self.base = self.peak = self._read()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _read(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _poll(self):
        while not self._done.wait(RSS_INTERVAL_S):
            self.peak = max(self.peak, self._read())

    def stop(self) -> float:
        """Stop sampling; returns the peak above the starting level in MB."""
        self._done.set()
        self._thread.join()
        self.peak = max(self.peak, self._read())
        os.close(self._fd)
        return (self.peak - self.base) / 2**20


class Tracer:
    """Records spans and counts for one pipeline run in this process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    @contextmanager
    def span(self, name: str):
        record = Span(len(self.spans), self._stack[-1] if self._stack else None, name, 0.0)
        self.spans.append(record)
        self._stack.append(record.id)
        memory_key = MEMORY_SPANS.get(name)
        sampler = RssSampler() if memory_key is not None else None
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if sampler is not None:
                peak_mb = sampler.stop()
                self.counts[memory_key] = max(self.counts.get(memory_key, 0.0), peak_mb)

    def _wrap(self, original, name):
        on_return = ON_RETURN.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_return is not None:
                try:
                    on_return(args, result, self.counts)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError) as exc:
                    # the returned object changed shape: lose the count, keep the run
                    note = f"{name} counts: {exc!r}"
                    if note not in self.missing:
                        self.missing.append(note)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def to_json(self) -> dict:
        return {
            "spans": [[s.id, s.parent, s.name, s.start, s.end] for s in self.spans],
            "counts": self.counts,
            "missing": self.missing,
        }


def _durations(spans):
    """Per span name: total busy seconds and total self seconds."""
    child_time = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    busy, own = {}, {}
    for sid, _, name, start, end in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
    return busy, own


def layer_metrics(trace: dict) -> dict:
    """The per-layer metrics of one traced run, from its spans and counts."""
    busy, own = _durations(trace["spans"])
    counts = trace["counts"]
    c = lambda key: counts.get(key, 0)  # noqa: E731
    b = lambda name: busy.get(name, 0.0)  # noqa: E731
    s = lambda name: own.get(name, 0.0)  # noqa: E731
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    return {
        "features.io_s": b("features.io"),
        "features.normalize_s": b("features.normalize"),
        "features.bytes": c("features.bytes"),
        "graph.build_s": b("graph.build"),
        "graph.knn_s": b("graph.knn"),
        "graph.self_s": s("graph.build"),
        "graph.normalize_s": b("graph.normalize"),
        "graph.save_s": b("graph.save"),
        "graph.edges": c("graph.edges"),
        "graph.isolated": c("graph.isolated"),
        "graph.reciprocal_ratio": ratio(2 * c("graph.edges"), c("graph.listed")),
        "graph.knn_flop": c("graph.knn_flop"),
        "graph.peak_mb": c("graph.peak_mb"),
        "anchors.power_s": b("anchors.power"),
        "anchors.power_iters": c("anchors.power_iters"),
        "anchors.power_converged": c("anchors.power_converged"),
        "anchors.select_s": b("anchors.select"),
        "anchors.found": c("anchors.found"),
        "anchors.found_ratio": ratio(c("anchors.found"), c("anchors.requested")),
        "diffusion.solve_s": b("diffusion.solve"),
        "diffusion.solves": c("diffusion.solves"),
        "diffusion.cg_iters": c("diffusion.cg_iters"),
        "diffusion.cg_iters_max": c("diffusion.cg_iters_max"),
        "diffusion.unconverged": c("diffusion.unconverged"),
        "diffusion.ms_per_solve": 1000.0 * ratio(b("diffusion.solve"), c("diffusion.solves")),
        "mining.pool_s": b("mining.pool"),
        "mining.self_s": s("mining.pool"),
        "mining.pools_kept": c("mining.pools_kept"),
        "mining.dropped": c("mining.anchors") - c("mining.pools_kept"),
        "mining.kept_ratio": ratio(c("mining.pools_kept"), c("mining.anchors")),
        "mining.positives": c("mining.positives"),
        "mining.negatives": c("mining.negatives"),
        "mining.save_s": b("mining.save"),
        "mining.bytes": c("mining.bytes"),
        "trainer.train_s": b("trainer.train"),
        "trainer.sample_s": b("trainer.sample"),
        "trainer.self_s": s("trainer.train"),
        "trainer.embed_s": b("trainer.embed"),
        "trainer.tuples": c("trainer.tuples"),
        "trainer.skipped": c("trainer.skipped"),
        "trainer.used_ratio": ratio(c("trainer.tuples"), c("trainer.tuples") + c("trainer.skipped")),
        "trainer.tuples_per_s": ratio(c("trainer.tuples"), b("trainer.train")),
        "evaluation.total_s": b("evaluation.total"),
        "evaluation.recall_s": b("evaluation.recall"),
        "evaluation.map_s": b("evaluation.map"),
        "evaluation.kmeans_s": b("evaluation.kmeans"),
        "evaluation.self_s": s("evaluation.total"),
        "evaluation.peak_mb": c("evaluation.peak_mb"),
        "evaluation.initial_recall_at_1": c("evaluation.initial_recall_at_1"),
        "cli.pipeline_s": b(ROOT_SPAN),
        "cli.self_s": s(ROOT_SPAN),
        "trace.spans": len(trace["spans"]),
    }


def layer_shares(trace: dict) -> dict:
    """Each layer's self time as a share of the traced pipeline's wall time."""
    _, own = _durations(trace["spans"])
    total = sum(own.values())
    shares = {layer: 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        shares[name.split(".")[0]] += seconds / total if total else 0.0
    return shares
