"""The rules both HMMs share: the exact-DP tie rule and the config value rules."""

import math
from dataclasses import fields
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pianofinger._tables import NEG_INF, best_parents, best_path, rerank
from pianofinger.chord_hmm import ChordHmmParams
from pianofinger.note_hmm import NoteHmmConfig

# few distinct values, so exact ties are everywhere; sums of them stay exact
_CELL = st.sampled_from([NEG_INF, 0.0, 1.0, 2.0])


def _matrix(draw, rows: int, cols: int) -> np.ndarray:
    return np.array(draw(st.lists(_CELL, min_size=rows * cols, max_size=rows * cols)),
                    dtype=float).reshape(rows, cols)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_best_parents_takes_the_lowest_ranked_of_the_best(data):
    n_parents = data.draw(st.integers(1, 5))
    scores = _matrix(data.draw, n_parents, data.draw(st.integers(1, 5)))
    rank = np.array(data.draw(st.permutations(range(n_parents))))
    best, parent = best_parents(scores, rank[:, None])
    for c in range(scores.shape[1]):
        column = scores[:, c].tolist()
        tied = [p for p in range(n_parents) if column[p] == max(column)]
        assert best[c] == max(column)
        assert parent[c] == min(tied, key=lambda p: rank[p])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_the_tie_rule_finds_the_lexicographically_first_best_path(data):
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    initial = _matrix(data.draw, 1, sizes[0])[0]
    steps = [_matrix(data.draw, a, b) for a, b in zip(sizes, sizes[1:])]

    dp, rank, parents = initial, np.arange(sizes[0]), []
    for step in steps:
        dp, parent = best_parents(dp[:, None] + step, rank[:, None])
        parents.append(parent)
        rank = rerank(rank, parent)
    best, path = best_path(dp, rank, parents)

    # brute force: product() lists the paths in lexicographic order
    scored = []
    for states in product(*map(range, sizes)):
        score = initial[states[0]]
        for step, a, b in zip(steps, states, states[1:]):
            score = score + step[a, b]
        scored.append((score, states))
    top = max(score for score, _ in scored)
    assert best == top
    if top == NEG_INF:
        assert path is None
    else:
        assert tuple(int(s) for s in path) == next(s for score, s in scored if score == top)


_FLOAT_FIELDS = [
    (cls, f.name) for cls in (NoteHmmConfig, ChordHmmParams) for f in fields(cls)
    if getattr(f.type, "__name__", f.type) == "float"
]


@pytest.mark.parametrize("cls, name, value", [
    *[(cls, name, v) for cls, name in _FLOAT_FIELDS for v in (math.nan, math.inf, -math.inf, -1)],
    *[(cls, "delta_p_max", v) for cls in (NoteHmmConfig, ChordHmmParams) for v in (0, 88)],
])
def test_both_configs_refuse_the_same_bad_values_alike(cls, name, value):
    if name == "delta_p_max":
        expected = f"delta_p_max must lie in 1..87, got {value}"
    else:
        expected = f"{name} must be finite and non-negative, got {value}"
    with pytest.raises(ValueError) as info:
        cls(**{name: value})
    assert str(info.value) == expected


def test_alpha_follows_the_float_rule():
    for value in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError) as info:
            NoteHmmConfig(order=2, alpha=(0.5, value))
        assert str(info.value) == f"alpha must be finite and non-negative, got {(0.5, value)}"
