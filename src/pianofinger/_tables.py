"""Small helpers shared by the table-based models and the exact DPs."""

import numpy as np


def normalize_rows(counts: np.ndarray) -> np.ndarray:
    """Rows (last axis) to distributions; an all-zero row becomes uniform."""
    sums = counts.sum(axis=-1, keepdims=True)
    uniform = np.full_like(counts, 1.0 / counts.shape[-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = counts / sums
    return np.where(sums > 0, probs, uniform)


def safe_log(table: np.ndarray) -> np.ndarray:
    """Elementwise log with zeros mapping to -inf, silently."""
    with np.errstate(divide="ignore"):
        return np.log(table)


def backtrack(parents, last) -> list:
    """State indices of the path that ends in state ``last``, where
    ``parents[t][i]`` is the predecessor of state i at step t + 1."""
    path = [last]
    for parent in reversed(parents):
        path.append(parent[path[-1]])
    path.reverse()
    return path


def rerank(rank: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Lexicographic ranks after one DP step in which state i extends the
    best prefix of state ``parent[i]``: by (parent rank, own index), as
    the sort is stable."""
    order = np.argsort(rank[parent], kind="stable")
    new_rank = np.empty_like(order)
    new_rank[order] = np.arange(order.size)
    return new_rank


def prefix_ranks(rank, parent) -> list:
    """``rerank`` on plain lists, for DPs whose steps are Python loops."""
    order = sorted(range(len(parent)), key=lambda i: rank[parent[i]])
    return sorted(range(len(parent)), key=order.__getitem__)  # invert the order
