"""Anchor selection: stationary distribution of the graph walk and its modes."""

from dataclasses import dataclass

import numpy as np

from .errors import BadAnchors, EmptyGraph, open_text
from .graph import NeighborGraph, components, top_k


@dataclass
class AnchorSet:
    """Local maxima of the stationary distribution, sorted by probability."""

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
    part = components(graph)[live]
    vol = np.bincount(part, weights=d[live], minlength=graph.n)
    size = np.bincount(part, minlength=graph.n)
    pi = np.zeros(graph.n)
    pi[live] = size[part] / part.size * d[live] / vol[part]
    return pi, int(np.count_nonzero(size))


def local_maxima(graph: NeighborGraph, pi: np.ndarray) -> list[int]:
    """Nodes (degree > 0) whose pi dominates every neighbor.

    An exact-tie plateau (connected nodes with identical pi, none of which has
    a strictly greater neighbor) contributes its smallest index only. A node
    above its largest neighbour (NaN neighbours are ignored) is a maximum on
    its own; only nodes level with their largest neighbour start a flood of
    their plateau, and the other nodes are dominated.
    """
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (graph.n,):
        raise ValueError(f"pi must have length {graph.n}")
    indptr, cols = graph.adjacency.indptr, graph.adjacency.indices
    live = np.flatnonzero(np.diff(indptr))
    own, top = pi[live], np.fmax.reduceat(pi[cols], indptr[live])
    # NaN compares false either way: a NaN pi or all-NaN neighbours leave
    # the node undominated, as in the flood
    out = live[~(own <= top)].tolist()
    visited = np.zeros(graph.n, dtype=bool)
    for start in live[own == top].tolist():
        if visited[start]:
            continue
        # flood the exact-equality plateau containing `start`
        level = pi[start]
        plateau = [start]
        visited[start] = True
        dominated = False
        q = 0
        while q < len(plateau):
            i = plateau[q]
            q += 1
            for j in cols[indptr[i] : indptr[i + 1]].tolist():
                if pi[j] > level:
                    dominated = True
                elif pi[j] == level and not visited[j]:
                    visited[j] = True
                    plateau.append(j)
        if not dominated:
            out.append(min(plateau))
    out.sort()
    return out


def select_anchors(graph: NeighborGraph, pi: np.ndarray, count: int) -> AnchorSet:
    """The `count` local maxima with largest pi, descending (ties: lower index).

    Returns fewer when maxima are scarce.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    maxima = np.asarray(local_maxima(graph, pi), dtype=np.int64)
    if maxima.size == 0:
        return AnchorSet(anchor_ids=maxima, pi_values=np.zeros(0))
    chosen = maxima[top_k(pi[maxima], min(count, maxima.size))]
    return AnchorSet(anchor_ids=chosen, pi_values=np.asarray(pi)[chosen])


def save_anchors(anchor_set: AnchorSet, path) -> None:
    """Text dump: one "id pi" line per anchor, descending pi."""
    with open(path, "w") as fh:
        for i, p in zip(anchor_set.anchor_ids, anchor_set.pi_values):
            fh.write(f"{i} {p:.9g}\n")


def load_anchors(path) -> AnchorSet:
    """Read an anchor dump; a line that is not "id pi", or whose id does not
    fit in an int64, raises BadAnchors."""
    ids, pis = [], []
    with open_text(path, BadAnchors) as fh:
        for number, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            try:
                anchor, pi = parts
                ids.append(int(anchor))
                pis.append(float(pi))
            except ValueError:
                raise BadAnchors(
                    f"{path}:{number}: expected 'id pi', got {line.strip()!r}"
                ) from None
            if not -(2**63) <= ids[-1] < 2**63:
                raise BadAnchors(f"{path}:{number}: anchor id {ids[-1]} does not fit in 64 bits")
    return AnchorSet(
        anchor_ids=np.asarray(ids, dtype=np.int64), pi_values=np.asarray(pis)
    )
