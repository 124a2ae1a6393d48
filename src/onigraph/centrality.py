"""Eigenvector centrality of a graph's weight matrix.

The scores are the entries of the dominant right eigenvector of the
matrix M passed in, M v = lambda v, computed by power iteration: node i
scores high when row i puts weight on high-scoring nodes. The model's
aggregation makes node i read from node j where ``A[i, j] > 0``, so the
nodes the graph reads from are ranked by passing the transpose of its
I + A, as ``onigraph centrality`` does (networkx's in-edge convention
for directed graphs).

For a non-negative matrix with a simple dominant eigenvalue the
iteration started from a uniform positive vector converges to the
non-negative dominant eigenvector; degenerate spectra surface as a
convergence error rather than a silently wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, NumericError

Array = np.ndarray


TOLERANCE = 1e-10  # the L2 step between iterates at which power iteration stops
ITERATION_LIMIT = 10_000


@dataclass
class CentralityScores:
    scores: Array  # non-negative, unit L2 norm
    eigenvalue: float
    residual: float  # ||A v - lambda v||_2
    iterations: int


def eigenvector_centrality(adjacency: Array) -> CentralityScores:
    a = np.asarray(adjacency, float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"adjacency must be square, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericError("eigenvector centrality needs a finite matrix")
    if np.any(a < 0.0):
        raise NumericError("eigenvector centrality needs a non-negative matrix")
    n = a.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    for iteration in range(1, ITERATION_LIMIT + 1):
        av = a @ v
        norm = np.linalg.norm(av)
        if norm == 0.0:
            raise NumericError("power iteration hit the zero vector; graph has no cycles")
        v_next = av / norm
        if np.linalg.norm(v_next - v) < TOLERANCE:
            v = v_next
            eigenvalue = float(v @ (a @ v))
            residual = float(np.linalg.norm(a @ v - eigenvalue * v))
            return CentralityScores(v, eigenvalue, residual, iteration)
        v = v_next
    residual = float(np.linalg.norm(a @ v - float(v @ (a @ v)) * v))
    raise ConvergenceError(
        f"power iteration did not converge in {ITERATION_LIMIT} iterations "
        f"(final residual {residual:.3e}); the dominant eigenvalue may not be simple"
    )
