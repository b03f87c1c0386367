"""Manifold similarity: per-anchor solves of (I - alpha*S) f = (1-alpha) e_i.

S is the symmetric normalized adjacency, so the system is positive definite
and conjugate gradient applies. The dense matrix (1-alpha)(I - alpha*S)^-1 is
never formed; a block of columns is solved at a time, one CG row per anchor.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadAnchors, KTooLarge
from .graph import NormalizedOperator, top_k


@dataclass
class DiffusionConfig:
    alpha: float = 0.99
    tolerance: float = 1e-6
    max_iterations: int = 100

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass
class SimilarityColumn:
    """One column of the diffusion similarity: values[j] = s_m(anchor, j)."""

    anchor_index: int
    values: np.ndarray
    residual_norm: float
    iterations_used: int
    converged: bool
    residual_history: np.ndarray = field(default=None, repr=False)


def check_anchor_ids(anchors, n: int) -> np.ndarray:
    """Anchor ids as an int64 array; raises BadAnchors unless all lie in [0, n)."""
    ids = np.asarray(anchors, dtype=np.int64).reshape(-1)
    bad = ids[(ids < 0) | (ids >= n)]
    if bad.size:
        raise BadAnchors(f"anchor id {int(bad[0])} out of range [0, {n})")
    return ids


def solve_columns(
    operator: NormalizedOperator, anchors, config: DiffusionConfig
) -> list[SimilarityColumn]:
    """Conjugate-gradient solves of (I - alpha*S) f = (1-alpha) e_a, one per anchor.

    The state is one row per anchor and every iteration does a single sparse
    product for all rows still running; each row keeps its own step scalars.
    Each solve starts from the zero vector and keeps the best iterate seen,
    so its residual history is non-increasing and on non-convergence the
    best iterate is returned with converged=False. A row stops when it
    converges, reaches max_iterations, or its curvature p.Ap is no longer
    positive. Isolated anchors get the analytic solution (1-alpha) e_a
    without running CG. Memory is O(len(anchors) * n).
    """
    if operator.kind != "symmetric":
        raise ValueError("solve_columns needs the symmetric-normalized operator")
    n = operator.n
    anchors = check_anchor_ids(anchors, n)
    alpha = config.alpha
    mat = operator.matrix
    b_norm = 1.0 - alpha  # ||b||
    rows = np.arange(anchors.size)
    values = np.zeros((anchors.size, n))  # the best iterate of each row
    values[rows, anchors] = b_norm
    iterations = np.zeros(anchors.size, dtype=np.int64)
    converged = np.ones(anchors.size, dtype=bool)
    residual = np.zeros(anchors.size)
    history = []  # per iteration, the best relative residual of every row

    live = rows[mat.indptr[anchors] != mat.indptr[anchors + 1]]  # isolated rows decouple
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
        ap = p - alpha * (mat @ p.T).T
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
        history.append(residual.copy())
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
    history = np.asarray(history).reshape(len(history), anchors.size)
    return [
        SimilarityColumn(
            anchor_index=int(anchors[i]),
            values=values[i],
            residual_norm=residual[i],
            iterations_used=int(iterations[i]),
            converged=bool(converged[i]),
            residual_history=history[: iterations[i], i].copy(),
        )
        for i in rows
    ]


def solve_column(
    operator: NormalizedOperator, anchor: int, config: DiffusionConfig
) -> SimilarityColumn:
    """One anchor's column: the single-row case of :func:`solve_columns`."""
    return solve_columns(operator, [anchor], config)[0]


def manifold_knn(column: SimilarityColumn, k: int, exclude_self: bool = True) -> np.ndarray:
    """Indices of the k largest column values, descending, ties by ascending index."""
    values = column.values
    n = values.shape[0]
    limit = n - 1 if exclude_self else n
    if not 1 <= k <= limit:
        raise KTooLarge(f"k={k} must be in [1, {limit}]")
    order = top_k(values, k + 1 if exclude_self else k)
    return order[order != column.anchor_index][:k] if exclude_self else order
