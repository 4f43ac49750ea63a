"""Plain references the tests check the library's fast paths against.

The dense tie rule: after every DP step the best prefixes are ranked
0..states-1 by one stable argsort, and ``best_parents`` takes the
lowest-ranked of the tied best candidates.  ``pianofinger._tables``
extends integer keys instead; both must choose the same parents.

The per-boundary chord edge kernel: each boundary's score matrix is
gathered on its own and summed by ``np.add.accumulate`` over the terms.
``pianofinger.chord_hmm._EdgeKernel.matrices`` scores every boundary of
one shape at once; both must give the same bytes.
"""

import numpy as np

from pianofinger._tables import NEG_INF
from pianofinger.chord_hmm import _layout
from pianofinger.pitch_space import key_indices


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


def edge_scores(kernel, prev_midis: tuple, midis: tuple, rows=slice(None), cols=slice(None)):
    """The (previous states, current states) scores of a chord with
    pitches ``midis`` after one with ``prev_midis`` (empty for the
    first chord, which has one row), restricted to the slices
    ``rows`` and ``cols`` of the state lists."""
    base, a, b, has_cell = _layout(len(prev_midis), len(midis), kernel.hand, kernel.size)
    keys = key_indices(prev_midis + midis)
    terms = base[:, rows, cols] + (has_cell * kernel.cell[keys[a], keys[b]])[:, None, None]
    total = np.add.accumulate(kernel.flat[terms])[-1]  # strictly in term order
    return np.fmax(len(midis) ** -kernel.zeta * total, NEG_INF)


def edge_matrices(kernel, chords: list) -> list:
    """``_EdgeKernel.matrices``, one ``edge_scores`` call per boundary."""
    pitches = [chord.midis for chord in chords]
    return [edge_scores(kernel, prev, cur) for prev, cur in zip([(), *pitches[:-1]], pitches)]
