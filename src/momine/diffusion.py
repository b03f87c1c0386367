"""Manifold similarity: per-anchor solves of (I - alpha*S) f = (1-alpha) e_i.

S is the symmetric normalized adjacency, so the system is positive definite
and conjugate gradient applies. The dense matrix (1-alpha)(I - alpha*S)^-1 is
never formed; a block of columns is solved at a time, one CG row per anchor.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import BadAnchors, Ruled, ruled
from .features import check_ids


@dataclass
class DiffusionConfig(Ruled):
    alpha: float = ruled(0.99, "in [0, 1)")
    tolerance: float = ruled(1e-6, "> 0")
    max_iterations: int = ruled(100, ">= 1")


class SimilarityBlock(NamedTuple):
    """The solves of m anchors: values[i, j] = s_m(anchors[i], j), and per
    row the relative residual, the CG iterations run and whether the
    residual met the tolerance."""

    values: np.ndarray  # (m, n)
    residual: np.ndarray  # (m,)
    iterations: np.ndarray  # (m,) int64
    converged: np.ndarray  # (m,) bool


def solve_columns(
    operator: sp.csr_matrix, anchors, config: DiffusionConfig
) -> SimilarityBlock:
    """Conjugate-gradient solves of (I - alpha*S) f = (1-alpha) e_a, one per
    anchor, as the rows of one block in anchor order; `operator` is S, the
    CSR of graph.normalize_graph.

    The state is one row per anchor and every iteration does a single sparse
    product for all rows still running; each row keeps its own step scalars.
    Each solve starts from the zero vector and keeps the best iterate seen,
    so its residual never increases with max_iterations, and on
    non-convergence the best iterate is returned with converged False. A row stops when it
    converges, reaches max_iterations, or its curvature p.Ap is no longer
    positive. Isolated anchors get the analytic solution (1-alpha) e_a
    without running CG. Memory is O(len(anchors) * n).
    """
    n = operator.shape[0]
    anchors = check_ids(anchors, n, BadAnchors, "anchor id")
    alpha = config.alpha
    b_norm = 1.0 - alpha  # ||b||
    rows = np.arange(anchors.size)
    values = np.zeros((anchors.size, n))  # the best iterate of each row
    values[rows, anchors] = b_norm
    iterations = np.zeros(anchors.size, dtype=np.int64)
    converged = np.ones(anchors.size, dtype=bool)
    residual = np.zeros(anchors.size)

    live = rows[operator.indptr[anchors] != operator.indptr[anchors + 1]]  # isolated rows decouple
    r = values[live].copy()
    values[live] = 0.0
    x = np.zeros_like(r)
    p = r.copy()
    rs = np.vecdot(r, r)
    residual[live] = np.sqrt(rs) / b_norm
    best = residual[live]
    converged[live] = False
    for it in range(1, config.max_iterations + 1):
        if not live.size:
            break
        ap = p - alpha * (operator @ p.T).T
        denom = np.vecdot(p, ap)
        keep = denom > 0.0  # else numerically exhausted; the system is PD
        if not keep.all():
            iterations[live[~keep]] = it - 1
            live, x, r, p, ap, rs, denom, best = (
                a[keep] for a in (live, x, r, p, ap, rs, denom, best)
            )
        gamma = rs / denom
        x += gamma[:, None] * p
        r -= gamma[:, None] * ap
        rs_new = np.vecdot(r, r)
        rel = np.sqrt(rs_new) / b_norm
        better = rel < best
        best[better] = rel[better]
        values[live[better]] = x[better]
        residual[live] = best
        done = best <= config.tolerance
        iterations[live] = it
        converged[live[done]] = True
        if done.any():
            keep = ~done
            live, x, r, p, rs, rs_new, best = (
                a[keep] for a in (live, x, r, p, rs, rs_new, best)
            )
        p = r + (rs_new / rs)[:, None] * p
        rs = rs_new
    return SimilarityBlock(values, residual, iterations, converged)
