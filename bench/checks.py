"""Checks on one pipeline run's outputs, the artifact digest, and the
environment record. Everything here is recomputed by the benchmark itself
(brute-force dot products, its own file parsers and nearest-neighbour
recount) rather than by the functions under test.
"""

import hashlib
import json
import math
import os
import platform
import struct
from pathlib import Path

import numpy as np

# relative slack between the benchmark's dot products and the program's
SIM_RTOL = 1e-9
# written values carry 9 significant digits
FILE_RTOL = 1e-8
EUCLIDEAN_SAMPLE = 8


class CheckFailed(Exception):
    """A run's outputs break a property the pipeline promises."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_features(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    _require(blob[:4] == b"MOM1", f"{path.name}: bad magic")
    n, d = struct.unpack("<II", blob[4:12])
    _require(len(blob) == 12 + 4 * n * d, f"{path.name}: size does not match header")
    return np.frombuffer(blob[12:], dtype="<f4").reshape(n, d).astype(np.float64)


def unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1)[:, None]


def read_pools(path: Path) -> list:
    pools = []
    for line in path.read_text().splitlines():
        if line.strip():
            obj = json.loads(line)
            pools.append((int(obj["anchor"]), obj["positives"], obj["negatives"]))
    return pools


def _non_increasing(values) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


def check_pools(pools: list, n: int, max_neg: int, anchors: set) -> None:
    """Structure of a pool file: ids, order, caps."""
    _require(pools, "no pools")
    ids = [a for a, _, _ in pools]
    _require(len(set(ids)) == len(ids), "duplicate anchor ids in pools")
    for anchor, pos, neg in pools:
        _require(0 <= anchor < n, f"anchor {anchor} outside [0, {n})")
        _require(anchor in anchors, f"pool anchor {anchor} is not in the anchor file")
        members = [int(j) for j, _ in pos] + [int(j) for j, _ in neg]
        _require(all(0 <= j < n for j in members), f"anchor {anchor}: pool id outside [0, {n})")
        _require(anchor not in members, f"anchor {anchor}: pool contains its own anchor")
        _require(len(set(members)) == len(members), f"anchor {anchor}: repeated or shared pool ids")
        _require(len(neg) <= max_neg, f"anchor {anchor}: {len(neg)} negatives > max_neg {max_neg}")
        s_m = [float(w) for _, w in pos]
        s_e = [float(w) for _, w in neg]
        _require(all(map(math.isfinite, s_m + s_e)), f"anchor {anchor}: non-finite pool weight")
        _require(_non_increasing(s_m), f"anchor {anchor}: positives not in descending s_m")
        _require(_non_increasing(s_e), f"anchor {anchor}: negatives not in descending s_e")


def check_euclidean(pools: list, x: np.ndarray, k_pos: int, k_neg: int) -> None:
    """On a fixed sample of anchors, recompute the Euclidean ranking: no
    positive is in the anchor's top-k_pos, every negative is in its top-k_neg
    and carries its own s_e."""
    n = x.shape[0]
    picks = sorted(set(np.linspace(0, len(pools) - 1, EUCLIDEAN_SAMPLE).round().astype(int)))
    for p in picks:
        anchor, pos, neg = pools[p]
        sims = np.clip(x @ x[anchor], 0.0, None) ** 3
        sims[anchor] = -np.inf
        ranked = -np.sort(-sims)
        kth_pos = ranked[min(k_pos, n - 1) - 1]
        kth_neg = ranked[min(k_neg, n - 1) - 1]
        for j, _ in pos:
            _require(
                sims[int(j)] <= kth_pos + SIM_RTOL * abs(kth_pos),
                f"anchor {anchor}: positive {j} is a Euclidean top-{k_pos} neighbour",
            )
        for j, w in neg:
            s = sims[int(j)]
            _require(
                s >= kth_neg - SIM_RTOL * abs(kth_neg),
                f"anchor {anchor}: negative {j} is outside the Euclidean top-{k_neg}",
            )
            _require(
                abs(float(w) - s) <= FILE_RTOL * abs(s) + 1e-15,
                f"anchor {anchor}: negative {j} has s_e {w}, recomputed {s}",
            )


def read_model(path: Path):
    blob = path.read_bytes()
    _require(blob[:4] == b"MOMM", "model.bin: bad magic")
    code, d_in, d_out, hidden = struct.unpack("<IIII", blob[4:20])
    _require(code in (0, 1), f"model.bin: unknown kind code {code}")
    dims = [(d_out, d_in)] if code == 0 else [(hidden, d_in), (d_out, hidden)]
    flat = np.frombuffer(blob[20:], dtype="<f4").astype(np.float64)
    _require(flat.size == sum(o * i + o for o, i in dims), "model.bin: parameter size mismatch")
    layers, at = [], 0
    for fan_out, fan_in in dims:
        w = flat[at : at + fan_out * fan_in].reshape(fan_out, fan_in)
        at += fan_out * fan_in
        layers.append((w, flat[at : at + fan_out]))
        at += fan_out
    return layers


def embed(layers, x: np.ndarray) -> np.ndarray:
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w.T + b
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return unit_rows(h)


def recall_at_1(emb: np.ndarray, labels: np.ndarray, block: int = 512) -> float:
    """Nearest other item by squared Euclidean distance, ties to the lower
    index; the share of queries whose nearest item shares their label, over
    queries that have a same-label item at all."""
    n = emb.shape[0]
    sq = np.sum(emb**2, axis=1)
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    scorable = counts[inverse] > 1
    hits = 0
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (emb[start:stop] @ emb.T)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        nearest = np.argmin(d2, axis=1)
        hits += int(np.sum((labels[nearest] == labels[start:stop]) & scorable[start:stop]))
    return hits / int(scorable.sum())


def check_report(path: Path, emb: np.ndarray, labels: np.ndarray) -> dict:
    report = json.loads(path.read_text())
    recall = report["recall_at"]
    _require(set(recall) == {"1", "2", "4", "8"}, f"{path.name}: recall_at keys {sorted(recall)}")
    values = [recall[k] for k in ("1", "2", "4", "8")]
    _require(all(0.0 <= v <= 1.0 for v in values), f"{path.name}: recall outside [0, 1]")
    _require(_non_increasing(values[::-1]), f"{path.name}: recall@k decreases with k")
    _require(0.0 <= report["nmi"] <= 1.0, f"{path.name}: nmi outside [0, 1]")
    _require(0.0 < report["map_score"] <= 1.0, f"{path.name}: map_score outside (0, 1]")
    _require(report["n_queries"] == len(labels), f"{path.name}: n_queries {report['n_queries']}")
    recount = recall_at_1(emb, labels)
    _require(
        recall["1"] == recount,
        f"{path.name}: recall@1 {recall['1']} but the nearest-neighbour recount gives {recount}",
    )
    return report


def check_train_log(path: Path, epochs: int, pools: int) -> None:
    lines = path.read_text().splitlines()
    _require(lines[0] == "epoch,mean_loss,lr,tuples_used", f"{path.name}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    _require(len(rows) == epochs, f"{path.name}: {len(rows)} rows for {epochs} epochs")
    for epoch, loss, lr, used in rows:
        _require(math.isfinite(float(loss)) and float(loss) >= 0.0, f"{path.name}: loss {loss}")
        _require(0 <= int(used) <= pools, f"{path.name}: epoch {epoch} used {used} tuples")


def check_graph_header(path: Path, n: int, k: int) -> None:
    with open(path) as fh:
        header = fh.readline().split()
    _require(header == ["MOMG", str(n), str(k)], f"{path.name}: header {header}")


def read_anchor_ids(path: Path, n: int) -> set:
    ids = [int(line.split()[0]) for line in path.read_text().splitlines() if line.strip()]
    _require(ids, f"{path.name}: no anchors")
    _require(len(set(ids)) == len(ids), f"{path.name}: duplicate anchors")
    _require(all(0 <= i < n for i in ids), f"{path.name}: anchor outside [0, {n})")
    return set(ids)


def validate(workload, inputs: Path, out: Path, momine) -> dict:
    """Check every artifact of one run; return the trained report (or {})."""
    cfg = json.loads((out / "config.json").read_text())
    x = unit_rows(read_features(inputs / "features.bin"))
    n = x.shape[0]
    _require(n == workload.n, f"{n} items, expected {workload.n}")
    _require(
        (out / "features.bin").read_bytes() == (inputs / "features.bin").read_bytes(),
        "features.bin copy differs from the input",
    )
    for rnd in range(1, workload.rounds + 1):
        suffix = "" if rnd == 1 else f".round{rnd}"
        check_graph_header(out / f"graph{suffix}.txt", n, int(cfg["graph.k"]))
        anchors = read_anchor_ids(out / f"anchors{suffix}.txt", n)
        pools = read_pools(out / f"pools{suffix}.jsonl")
        check_pools(pools, n, int(cfg["mining.max_neg"]), anchors)
        if rnd == 1:  # later rounds mine in an embedding the run does not save
            check_euclidean(pools, x, int(cfg["mining.k_pos"]), int(cfg["mining.k_neg"]))
        check_train_log(out / f"train_log{suffix}.csv", int(cfg["train.epochs"]), len(pools))

    layers = read_model(out / "model.bin")
    model = momine.load_model(out / "model.bin")
    emb = momine.forward(model, x)
    _require(np.all(np.isfinite(emb)), "embeddings are not finite")
    _require(np.allclose(np.linalg.norm(emb, axis=1), 1.0, rtol=0, atol=1e-12),
             "embeddings are not unit-norm")
    _require(np.allclose(emb, embed(layers, x), rtol=0, atol=1e-9),
             "momine.forward disagrees with the benchmark's own forward pass")

    if not workload.labelled:
        _require(not (out / "report.json").exists(), "report.json written without labels")
        return {}
    labels = np.asarray((inputs / "labels.txt").read_text().split(), dtype=np.int64)
    check_report(out / "initial_report.json", x, labels)
    return check_report(out / "report.json", emb, labels)


def digest(directory: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(directory).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def source_lines(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def environment(root: Path, seed: int, blas_threads: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": source_lines(root),
    }
