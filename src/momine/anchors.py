"""Anchor selection: stationary distribution of the graph walk and its modes."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import INT64, BadAnchors, EmptyGraph, read_lines
from .graph import NeighborGraph, components, top_k

ANCHOR_MODES = ("maxima", "all")


@dataclass
class AnchorsConfig:
    count: int = 64
    mode: str = "maxima"  # maxima | all (every non-isolated node, by pi)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count!r}")
        if self.mode not in ANCHOR_MODES:
            raise ValueError(f"mode must be 'maxima' or 'all', got {self.mode!r}")


@dataclass
class AnchorSet:
    """Anchors sorted by descending stationary probability."""

    anchor_ids: np.ndarray
    pi_values: np.ndarray

    def __len__(self):
        return len(self.anchor_ids)


def stationary(graph: NeighborGraph) -> tuple[np.ndarray, int]:
    """The undamped walk's stationary distribution in closed form, and the
    number of components that hold its mass.

    Iterating pi <- pi P from the uniform start (renormalized each step)
    empties the isolated nodes in one step and then keeps each component C
    at mass(C) = |C| / (n - isolated). Inside C, pi_i = mass(C) * d_i /
    vol(C), with d_i the weighted degree and vol(C) the sum of C's degrees.
    This is the limit of power iteration where it converges, and on a
    bipartite component, where the iterate oscillates, the mean of the
    oscillation (its Cesaro limit).
    """
    if graph.adjacency.nnz == 0:
        raise EmptyGraph("graph has no edges; the walk is undefined")
    d = graph.degrees
    live = d > 0
    part = components(graph.adjacency)[live]
    vol = np.bincount(part, weights=d[live], minlength=graph.n)
    size = np.bincount(part, minlength=graph.n)
    pi = np.zeros(graph.n)
    pi[live] = size[part] / part.size * d[live] / vol[part]
    return pi, int(np.count_nonzero(size))


def local_maxima(graph: NeighborGraph, pi: np.ndarray) -> list[int]:
    """Nodes (degree > 0) whose pi dominates every neighbor, ascending.

    The exact-tie plateaus are the components of the edges whose two ends
    have equal pi, a node without such an edge being a plateau of its own.
    A plateau contributes its smallest index unless one of its nodes lies
    below its largest neighbour (NaN neighbours are ignored).
    """
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (graph.n,):
        raise ValueError(f"pi must have length {graph.n}")
    adj = graph.adjacency
    live = np.flatnonzero(np.diff(adj.indptr))
    # NaN compares false: a NaN pi, or one with only NaN neighbours, is not below
    below = pi[live] < np.fmax.reduceat(pi[adj.indices], adj.indptr[live])
    tie = np.repeat(pi, np.diff(adj.indptr)) == pi[adj.indices]
    plateau = components(sp.csr_matrix(
        (tie[tie], adj.indices[tie], np.concatenate(([0], np.cumsum(tie)))[adj.indptr]),
        shape=adj.shape,
    ))
    keep = (plateau[live] == live) & ~np.isin(live, plateau[live[below]])
    return live[keep].tolist()


def select_anchors(graph: NeighborGraph, pi: np.ndarray, count: int, mode: str = "maxima") -> AnchorSet:
    """The `count` candidates with largest pi, descending (ties: lower index).

    The candidates are the local maxima of pi in mode "maxima", and every
    non-isolated node in mode "all" (the all-items protocol). Returns fewer
    when candidates are scarce. AnchorsConfig checks count and mode.
    """
    AnchorsConfig(count, mode)
    if mode == "all":
        candidates = np.flatnonzero(graph.degrees > 0)
    else:
        candidates = np.asarray(local_maxima(graph, pi), dtype=np.int64)
    if candidates.size == 0:
        return AnchorSet(anchor_ids=candidates, pi_values=np.zeros(0))
    chosen = candidates[top_k(pi[candidates], min(count, candidates.size))]
    return AnchorSet(anchor_ids=chosen, pi_values=np.asarray(pi)[chosen])


def save_anchors(anchor_set: AnchorSet, path) -> None:
    """Text dump: one "id pi" line per anchor, descending pi."""
    with open(path, "w") as fh:
        fh.writelines(f"{i} {p:.9g}\n" for i, p in zip(anchor_set.anchor_ids, anchor_set.pi_values))


def _anchor(line: str) -> tuple:
    try:
        anchor, pi = line.split()
        anchor, pi = int(anchor), float(pi)
    except ValueError:
        raise BadAnchors(f"expected 'id pi', got {line.strip()!r}") from None
    if anchor not in INT64:
        raise BadAnchors(f"anchor id {anchor} does not fit in 64 bits")
    return anchor, pi


def load_anchors(path) -> AnchorSet:
    """Read an anchor dump; a line that is not "id pi", or whose id does not
    fit in an int64, raises BadAnchors."""
    rows = read_lines(path, BadAnchors, _anchor)
    ids, pis = zip(*rows) if rows else ((), ())
    return AnchorSet(np.asarray(ids, dtype=np.int64), np.asarray(pis, dtype=np.float64))
