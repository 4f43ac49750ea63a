"""The rules both HMMs share: the exact-DP tie rule and the config value rules."""

import math
from dataclasses import fields
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import make_piece, random_note_model, random_rows, tie_heavy_chord_part
from pianofinger import _tables, chord_hmm, note_hmm
from pianofinger._tables import (
    KEY_LIMIT,
    NEG_INF,
    LockStep,
    best_parents,
    best_path,
    fit_line,
    rerank,
)
from pianofinger.chord_hmm import ChordHmmModel, ChordHmmParams
from pianofinger.errors import DegenerateFit
from pianofinger.note_hmm import NoteHmmConfig
from pianofinger.pig_io import Hand
from pianofinger.pitch_space import PitchRepresentation, alphabet_size

# few distinct values, so exact ties are everywhere; sums of them stay exact
_VALUES = [NEG_INF, 0.0, 1.0, 2.0]
_CELL = st.sampled_from(_VALUES)


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

    dp, rank, top, parents = initial, np.arange(sizes[0]), sizes[0] - 1, []
    for step in steps:
        dp, parent = best_parents(dp[:, None] + step, rank[:, None])
        parents.append(parent)
        rank, top = rerank(rank, parent, top, np.arange(parent.size))
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


def _brute_force(initial: np.ndarray, steps: list) -> list:
    """Every ``(score, states)`` path of one part, in lexicographic order.
    Each of ``steps`` is ``(scores, after)``: a (k, r, n) array, whose
    cell (g, r, d) scores previous state (g, r) then new state (r, d), and
    None or a term per new state."""
    paths = [(initial[s], (s,)) for s in range(initial.size)]
    for scores, after in steps:
        _, r, n = scores.shape
        longer = []
        for score, states in paths:
            g, i = divmod(states[-1], r)
            for d in range(n):
                new = score + scores[g, i, d]
                longer.append((new if after is None else new + after[i * n + d],
                               states + (i * n + d,)))
        paths = longer
    return paths


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lockstep_gives_each_part_its_lexicographically_first_best_path(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p_inf = data.draw(st.sampled_from([0.0, 0.3, 0.9]))
    lengths = sorted(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)), reverse=True)
    order = data.draw(st.sampled_from([None, 1, 2]))  # None: full matrices of changing widths

    def cells(*shape):
        return np.where(rng.random(shape) < p_inf, NEG_INF, rng.choice(_VALUES[1:], shape))

    if order is None:  # (b, w_prev, w) blocks, and an after term as the recombination DP adds
        widths = data.draw(st.lists(st.integers(1, 4), min_size=lengths[0], max_size=lengths[0]))
        shapes = list(zip(widths, widths[1:]))
    else:  # (b, 1, w, 5) warm-ups, then (b, 5, r, 5) merges
        widths = [5] * lengths[0]
        shapes = [(1, 5**t, 5) if t < order else (5, 5 ** (order - 1), 5)
                  for t in range(1, lengths[0])]
    initial = cells(len(lengths), widths[0])
    steps = [cells(sum(n > t for n in lengths), *shape) for t, shape in enumerate(shapes, 1)]
    afters = [cells(len(step), step.shape[-1]) if order is None else None for step in steps]

    lock = LockStep(initial)
    for scores, after in zip(steps, afters):
        dp = lock.running(len(scores))
        lock.step(dp.reshape(scores.shape[:-1] + (1,)) + scores, after)
    lock.running(0)

    for p, n in enumerate(lengths):
        mine = [(scores[p].reshape(scores.shape[1], -1, scores.shape[-1]),
                 None if after is None else after[p])
                for scores, after in zip(steps[: n - 1], afters)]
        scored = _brute_force(initial[p], mine)
        top = max(score for score, _ in scored)
        if top == NEG_INF:
            assert lock.paths[p] is None
        else:
            assert lock.paths[p] == (top, list(next(s for score, s in scored if score == top)))


def _keyed_and_dense(initial: np.ndarray, steps: list) -> int:
    """Run the DP over ``steps`` by the keyed rule and by the dense rule of
    ``reference`` side by side; both must pick the same parents, order the
    prefixes alike and end in the same best score and path.  Returns the
    number of steps at which the keys were re-densified."""
    dp, rank, top, parents = initial, np.arange(initial.size), initial.size - 1, []
    dense_dp, dense, dense_parents = initial, np.arange(initial.size), []
    densified = 0
    for step in steps:
        dp, parent = best_parents(dp[:, None] + step, rank[:, None])
        dense_dp, dense_parent = reference.best_parents(dense_dp[:, None] + step, dense[:, None])
        assert np.array_equal(parent, dense_parent)
        assert np.array_equal(dp, dense_dp)
        keys, top = rerank(rank, parent, top, np.arange(parent.size))
        dense, _ = reference.rerank(dense, dense_parent)
        assert keys.dtype == np.int64 and 0 <= keys.min() and keys.max() <= top < KEY_LIMIT
        assert np.array_equal(np.argsort(keys), np.argsort(dense))
        # without a re-densification each key is its parent's key times n, plus i
        densified += not np.array_equal(keys // parent.size, rank[parent])
        rank = keys
        parents.append(parent)
        dense_parents.append(dense_parent)
    best, path = best_path(dp, rank, parents)
    dense_best, dense_path = best_path(dense_dp, dense, dense_parents)
    assert best == dense_best
    assert (path is None and dense_path is None) or list(path) == list(dense_path)
    return densified


def _few_valued_steps(seed: int, sizes: list) -> tuple:
    rng = np.random.default_rng(seed)
    initial = rng.choice(_VALUES, sizes[0])
    return initial, [rng.choice(_VALUES, (a, b)) for a, b in zip(sizes, sizes[1:])]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 10), min_size=31, max_size=201), st.integers(0, 2**32 - 1))
def test_keys_choose_as_the_dense_ranks_do(sizes, seed):
    _keyed_and_dense(*_few_valued_steps(seed, sizes))


def test_keys_are_redensified_before_they_overflow():
    # 200 steps of 10 states add about 664 bits of key
    assert _keyed_and_dense(*_few_valued_steps(7, [10] * 201)) >= 3


def _few_valued(log_table: np.ndarray) -> np.ndarray:
    """Log scores rounded down to whole numbers: few values, exact sums."""
    return np.floor(log_table)


def _tie_heavy_note_model(rng, order: int):
    model = random_note_model(rng, order=order, representation=PitchRepresentation.INTEGRAL,
                              alpha=(1.0, 0.5, 0.25)[:order], lambda_=(0.0,) * (order - 1))
    model.log_initial = [_few_valued(t) for t in model.log_initial]
    model.log_transition = _few_valued(model.log_transition)
    model.log_output = {h: [_few_valued(t) for t in tables] for h, tables in model.log_output.items()}
    return model


def _tie_heavy_scale(n_notes: int, cluster: bool):
    """A scale up and down with a dyad every seventh onset; ``cluster``
    adds one six-note chord, which no crossing-free fingering plays."""
    figure = (0, 2, 4, 5, 7, 9, 11, 12, 11, 9, 7, 5, 4, 2)
    midis, onsets = [], []
    for i in range(n_notes):
        onset = 0.25 * (i - (i % 7 == 6))  # the seventh note joins the sixth
        midis.append(60 + figure[i % 14] + 3 * (i % 7 == 6))
        onsets.append(onset)
    if cluster:
        midis[1000:1006] = [72, 74, 76, 77, 79, 81]
        onsets[1000:1006] = [onsets[1000]] * 6
    return make_piece(midis, onsets=onsets)


def _dense_rule(monkeypatch):
    monkeypatch.setattr(_tables, "best_parents", reference.best_parents)
    monkeypatch.setattr(_tables, "rerank", reference.rerank)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("cluster", [False, True])
def test_note_decodes_by_keys_equal_the_dense_rule(rng, monkeypatch, order, cluster):
    model = _tie_heavy_note_model(rng, order)
    piece = _tie_heavy_scale(2100, cluster)
    keyed = note_hmm.decode_viterbi(model, piece, Hand.RH)
    _dense_rule(monkeypatch)
    dense = note_hmm.decode_viterbi(model, piece, Hand.RH)
    assert keyed.fingers == dense.fingers
    assert keyed.log_score.hex() == dense.log_score.hex()
    assert keyed.crossing_fallback_used == dense.crossing_fallback_used == cluster


def test_chord_decodes_by_keys_equal_the_dense_rule(rng, monkeypatch):
    params = ChordHmmParams(beta1=1.0, beta2=0.5, gamma1=1.0, gamma2=0.5, zeta=0.5,
                            delta_p_max=3)
    size = alphabet_size(PitchRepresentation.LATTICE, params.delta_p_max)
    model = ChordHmmModel(
        params=params,
        log_initial_digit=_few_valued(np.log(random_rows(rng, (5,)))),
        log_trans_across=_few_valued(np.log(random_rows(rng, (5, 5)))),
        log_trans_within=_few_valued(np.log(random_rows(rng, (5, 5)))),
        log_out_across={h: _few_valued(np.log(random_rows(rng, (5, 5, size)))) for h in Hand},
        log_out_within={h: _few_valued(np.log(random_rows(rng, (5, 5, size)))) for h in Hand},
    )
    piece = tie_heavy_chord_part(rng, 1400)
    assert len(piece) >= 2000
    chords = chord_hmm.cluster_chords(piece, params.delta)
    keyed = chord_hmm.decode_chords(model, chords, Hand.RH)
    _dense_rule(monkeypatch)
    dense = chord_hmm.decode_chords(model, chords, Hand.RH)
    assert keyed.states == dense.states
    assert keyed.log_score.hex() == dense.log_score.hex()
    assert keyed.relaxed_boundaries == dense.relaxed_boundaries
    assert len(keyed.relaxed_boundaries) >= 20


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from([1.0, 1.0 + 2**-52, 2.0, 5e-324, math.inf, math.nan, -math.nan, 0.0, -1.0]),
    st.floats(min_value=5e-324, max_value=4.0)), min_size=2, max_size=6))
def test_fit_line_finds_one_distinct_x_as_np_unique_counts_them(xs):
    class Fitted(Exception):
        """Raised by the fitted function: the points passed every check."""

    def g(_):
        raise Fitted

    # np.unique counts every NaN as one value; the sign check comes first
    expected = "one x" if np.unique(np.array(xs)).size < 2 else Fitted
    if any(x <= 0 for x in xs):
        expected = "x <= 0"
    try:
        fit_line([(x, 1.0) for x in xs], g, "x <= 0", "one x")
    except DegenerateFit as exc:
        assert str(exc) == expected
    except Fitted:
        assert expected is Fitted
