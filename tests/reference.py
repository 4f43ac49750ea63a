"""Plain references the tests check the library's fast paths against.

The dense tie rule: after every DP step the best prefixes are ranked
0..states-1 by one stable argsort, and ``best_parents`` takes the
lowest-ranked of the tied best candidates.  ``pianofinger._tables``
extends integer keys instead; both must choose the same parents.
"""

import numpy as np


def best_parents(scores: np.ndarray, rank: np.ndarray) -> tuple:
    """``(best, parent)`` of one DP step: the best of ``scores`` over axis
    0, the candidate parents, and the lowest-ranked candidate that reaches
    it; ``rank`` ranks the candidates, shaped to broadcast to ``scores``."""
    best = scores.max(axis=0)
    return best, np.where(scores == best, rank, rank.size).argmin(axis=0)


def rerank(rank: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Lexicographic ranks after one DP step in which state i extends the
    best prefix of state ``parent[i]``: by (parent rank, own index), as
    the sort is stable."""
    order = np.argsort(rank[parent], kind="stable")
    new_rank = np.empty_like(order)
    new_rank[order] = np.arange(order.size)
    return new_rank
