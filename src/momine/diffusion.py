"""Manifold similarity: per-anchor solves of (I - alpha*S) f = (1-alpha) e_i.

S is the symmetric normalized adjacency, so the system is positive definite
and conjugate gradient applies. The dense matrix (1-alpha)(I - alpha*S)^-1 is
never formed outside of the test oracle; production code solves one column at
a time.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import KTooLarge, TooLarge
from .graph import NormalizedOperator, top_k

DENSE_ORACLE_LIMIT = 2000


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


def solve_column(
    operator: NormalizedOperator, anchor: int, config: DiffusionConfig
) -> SimilarityColumn:
    """Conjugate-gradient solve of (I - alpha*S) f = (1-alpha) e_anchor.

    Starts from the zero vector and keeps the best iterate seen, so the
    reported residual history is non-increasing and on non-convergence the
    best iterate is returned with converged=False. Isolated anchors get the
    analytic solution (1-alpha) e_anchor without running CG.
    """
    if operator.kind != "symmetric":
        raise ValueError("solve_column needs the symmetric-normalized operator")
    n = operator.n
    if not 0 <= anchor < n:
        raise ValueError(f"anchor {anchor} out of range [0, {n})")
    alpha = config.alpha
    mat = operator.matrix
    b = np.zeros(n)
    b[anchor] = 1.0 - alpha

    if mat.indptr[anchor] == mat.indptr[anchor + 1]:  # isolated: system decouples
        return SimilarityColumn(
            anchor_index=anchor,
            values=b,
            residual_norm=0.0,
            iterations_used=0,
            converged=True,
            residual_history=np.zeros(0),
        )

    b_norm = 1.0 - alpha  # ||b||
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    best_x = x.copy()
    best_rel = np.sqrt(rs) / b_norm
    history = []
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        ap = p - alpha * (mat @ p)
        denom = float(p @ ap)
        if denom <= 0.0:  # numerically exhausted; the system is PD
            iterations -= 1
            break
        gamma = rs / denom
        x += gamma * p
        r -= gamma * ap
        rs_new = float(r @ r)
        rel = np.sqrt(rs_new) / b_norm
        if rel < best_rel:
            best_rel = rel
            best_x = x.copy()
        history.append(best_rel)
        if best_rel <= config.tolerance:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return SimilarityColumn(
        anchor_index=anchor,
        values=best_x,
        residual_norm=best_rel,
        iterations_used=iterations,
        converged=converged,
        residual_history=np.asarray(history),
    )


def manifold_knn(column: SimilarityColumn, k: int, exclude_self: bool = True) -> np.ndarray:
    """Indices of the k largest column values, descending, ties by ascending index."""
    values = column.values
    n = values.shape[0]
    limit = n - 1 if exclude_self else n
    if not 1 <= k <= limit:
        raise KTooLarge(f"k={k} must be in [1, {limit}]")
    order = top_k(values, k + 1 if exclude_self else k)
    return order[order != column.anchor_index][:k] if exclude_self else order


def dense_oracle(operator: NormalizedOperator, alpha: float) -> np.ndarray:
    """Dense (1-alpha)(I - alpha*S)^-1 by direct solve. Test oracle only."""
    if operator.kind != "symmetric":
        raise ValueError("dense_oracle needs the symmetric-normalized operator")
    n = operator.n
    if n > DENSE_ORACLE_LIMIT:
        raise TooLarge(f"dense oracle capped at n={DENSE_ORACLE_LIMIT}, got {n}")
    m = np.eye(n) - alpha * operator.matrix.toarray()
    return np.linalg.solve(m, (1.0 - alpha) * np.eye(n))
