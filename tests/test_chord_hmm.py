"""Chord clustering, state enumeration, training and chord Viterbi."""

import math
import re
from dataclasses import replace
from itertools import product
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import (
    count_calls,
    make_piece,
    random_chord_pair,
    random_rows,
    tie_heavy_chord_part,
)
from pianofinger import _tables, chord_hmm, pitch_space
from pianofinger.chord_hmm import (
    Chord,
    ChordComponent,
    ChordHmmModel,
    ChordHmmParams,
    _EdgeKernel,
    chord_path_log_score,
    cluster_chords,
    count,
    decode_chords,
    enumerate_states,
    train_chord,
)
from pianofinger.dataset import load_corpus, load_piece
from pianofinger.errors import (
    EmptyCorpus,
    EmptyInput,
    FingeringError,
    HandOverflow,
    NoFeasiblePath,
    NonMonotoneOnsets,
    OutOfRange,
)
from pianofinger.estimate import estimate_piece
from pianofinger.experiments import train_model
from pianofinger.model_io import load_model
from pianofinger.note_hmm import NoteHmmConfig, NoteHmmModel, decode_viterbi
from pianofinger.pig_io import Hand, Piece, midi_to_pitch, split_hands
from pianofinger.pitch_space import PitchRepresentation, alphabet_size

CHORD_V1 = Path(__file__).resolve().parents[1] / "data" / "model_v1" / "chord.json"
SAMPLE_CORPUS = Path(__file__).resolve().parents[1] / "data" / "sample_corpus"
LATTICE = PitchRepresentation.LATTICE
DELTA = 0.030


def random_chord_model(rng, **param_overrides):
    params = ChordHmmParams(
        beta1=float(rng.uniform(0.2, 2.0)),
        beta2=float(rng.uniform(0.2, 2.0)),
        gamma1=float(rng.uniform(0.2, 2.0)),
        gamma2=float(rng.uniform(0.2, 2.0)),
        zeta=float(rng.uniform(0.0, 1.0)),
        delta_p_max=3,
    )
    params = replace(params, **param_overrides)
    size = alphabet_size(LATTICE, params.delta_p_max)
    return ChordHmmModel(
        params=params,
        log_initial_digit=np.log(random_rows(rng, (5,))),
        log_trans_across=np.log(random_rows(rng, (5, 5))),
        log_trans_within=np.log(random_rows(rng, (5, 5))),
        log_out_across={h: np.log(random_rows(rng, (5, 5, size))) for h in Hand},
        log_out_within={h: np.log(random_rows(rng, (5, 5, size))) for h in Hand},
    )


def drawn_chord_model(draw, rng, **param_overrides):
    """``random_chord_model`` with a drawn ``delta_p_max``, drawn zero
    exponents and a drawn share of zero-probability cells."""
    exponents = {
        name: draw(st.sampled_from([0.0, 0.4, 1.3]))
        for name in ("beta1", "beta2", "gamma1", "gamma2")
    }
    model = random_chord_model(
        rng, delta_p_max=draw(st.integers(1, 4)), **param_overrides, **exponents
    )
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.9]))
    for table in (model.log_initial_digit, model.log_trans_across, model.log_trans_within,
                  *model.log_out_across.values(), *model.log_out_within.values()):
        table[rng.random(table.shape) < zero_share] = -np.inf
    return model


def chordal_piece(groups, hand=Hand.RH, spacing=0.5, duration=0.3, digits=None):
    """groups: list of midi tuples struck together, ``spacing`` apart."""
    midis, onsets, offsets = [], [], []
    for gi, group in enumerate(groups):
        for midi in group:
            midis.append(midi)
            onsets.append(gi * spacing)
            offsets.append(gi * spacing + duration)
    return make_piece(midis, onsets=onsets, offsets=offsets, hand=hand, digits=digits)


def brute_force_chords(model, chords, hand):
    """The first best of every state path, in lexicographic order, and its
    score: the oracle's preparation once, then one read of every path."""
    states = [enumerate_states(c, hand) for c in chords]
    cells = np.array(list(product(*[range(len(s)) for s in states])))
    edges = chord_hmm._run_viterbi(model, [(chords, hand)])[-1]
    scores = chord_hmm._path_scores(edges, cells)
    best = int(np.argmax(scores))
    return tuple(s[i] for s, i in zip(states, cells[best])), float(scores[best])


# --- clustering --------------------------------------------------------------

def test_cluster_onset_gate():
    piece = make_piece([60, 64, 67], onsets=[0.00, 0.01, 0.50])
    chords = cluster_chords(piece, DELTA)
    assert [c.size for c in chords] == [2, 1]
    assert chords[0].midis == (60, 64)


def test_cluster_chains_on_latest_member():
    piece = make_piece([60, 64, 67], onsets=[0.00, 0.02, 0.04])
    chords = cluster_chords(piece, DELTA)
    assert [c.size for c in chords] == [3]


def test_cluster_sustained_membership():
    piece = make_piece(
        [60, 64], onsets=[0.0, 0.5], offsets=[1.0, 0.8]
    )
    chords = cluster_chords(piece, DELTA)
    assert [c.size for c in chords] == [1, 2]
    second = {c.midi: c.sustained for c in chords[1].components}
    assert second == {60: True, 64: False}


def test_cluster_monophonic_is_one_note_per_chord():
    piece = make_piece([60, 62, 64, 65])  # onsets 0.5 apart, no overlaps
    chords = cluster_chords(piece, DELTA)
    assert [c.size for c in chords] == [1, 1, 1, 1]


def test_cluster_restruck_pitch_displaces_sustained_copy():
    piece = make_piece(
        [60, 60], onsets=[0.0, 0.5], offsets=[2.0, 0.8]
    )
    chords = cluster_chords(piece, DELTA)
    assert [c.size for c in chords] == [1, 1]
    assert chords[1].components[0].sustained is False
    assert chords[1].components[0].note_ids == (1,)


def test_cluster_truncate_overlaps_drops_sustain():
    piece = make_piece([60, 64], onsets=[0.0, 0.5], offsets=[5.0, 0.8])
    assert [c.size for c in cluster_chords(piece, DELTA)] == [1, 2]
    assert [
        c.size for c in cluster_chords(piece, DELTA, truncate_overlaps=True)
    ] == [1, 1]


def test_cluster_hand_overflow():
    piece = make_piece([60, 62, 64, 65, 67, 69], onsets=[0.0] * 6)
    with pytest.raises(HandOverflow):
        cluster_chords(piece, DELTA)


@st.composite
def clustering_cases(draw):
    """Pieces on a coarse time grid: shared onsets, unisons, re-struck
    pitches, notes that sound to the end, and, with more than five
    pitches in play, hand overflows."""
    n = draw(st.integers(1, 30))
    top = draw(st.integers(60, 68))
    steps = draw(st.lists(st.sampled_from([0, 1, 2, 5]), min_size=n, max_size=n))
    onsets = [0.02 * t for t in np.cumsum(steps)]
    midis = draw(st.lists(st.integers(60, top), min_size=n, max_size=n))
    durations = st.sampled_from([0.01, 0.02, 0.05, 0.2, 1.0, 100.0, 100.0])
    lengths = draw(st.lists(durations, min_size=n, max_size=n))
    offsets = [t + d for t, d in zip(onsets, lengths)]
    return (
        make_piece(midis, onsets=onsets, offsets=offsets, hand=draw(st.sampled_from(Hand))),
        draw(st.sampled_from([0.0, DELTA, 0.05])),
        draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(clustering_cases())
def test_cluster_matches_the_walk_over_every_later_chord(case):
    piece, delta, truncate = case
    try:
        expected = reference.reference_cluster_chords(piece, delta, truncate)
    except HandOverflow as exc:
        with pytest.raises(HandOverflow) as raised:
            cluster_chords(piece, delta, truncate)
        assert str(raised.value) == str(exc)
    else:
        assert list(cluster_chords(piece, delta, truncate)) == expected


@st.composite
def unrestruck_cases(draw):
    """``clustering_cases`` whose pitches are drawn note by note from those
    no earlier note of the chord strikes and no earlier note still sounds:
    parts with no pitch struck again while it sounds and no unison."""
    n = draw(st.integers(1, 30))
    steps = draw(st.lists(st.sampled_from([0, 1, 2, 5]), min_size=n, max_size=n))
    onsets = [round(0.02 * t, 6) for t in np.cumsum(steps)]
    durations = st.sampled_from([0.01, 0.02, 0.05, 0.2, 1.0, 100.0, 100.0])
    offsets = [round(t + d, 6) for t, d in
               zip(onsets, draw(st.lists(durations, min_size=n, max_size=n)))]
    delta = draw(st.sampled_from([0.0, DELTA, 0.05]))
    chord = np.cumsum([True] + [b - a > delta for a, b in zip(onsets, onsets[1:])])
    midis, span = [], draw(st.integers(0, 8))
    for k in range(n):
        busy = {m for j, m in enumerate(midis) if offsets[j] > onsets[k] or chord[j] == chord[k]}
        midis.append(draw(st.sampled_from([m for m in range(60, 61 + k + span) if m not in busy])))
    piece = make_piece(midis, onsets=onsets, offsets=offsets, hand=draw(st.sampled_from(Hand)))
    return piece, delta, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(unrestruck_cases())
def test_without_restrikes_or_unisons_the_earlier_walk_gives_the_same_chords(case):
    piece, delta, truncate = case
    expected = _outcome(lambda: reference.offset_walk_chords(piece, delta, truncate))
    assert _outcome(lambda: list(cluster_chords(piece, delta, truncate))) == expected


@st.composite
def column_parts(draw):
    """A one-hand part built column by column, so its notes may be out of
    onset order, which the chord kind refuses: shared onsets, unisons
    struck together, pitches re-struck while a note of them still sounds,
    notes that sound to the end, and, with more than five pitches in play
    or a copied id, hand overflows and repeated note ids, which the chord
    kind keys by position.  Empty parts too."""
    n = draw(st.integers(0, 14))
    gaps = st.sampled_from([0.0, 0.0, 0.0, 0.01, 0.03, 0.2])
    steps = draw(st.lists(gaps, min_size=n, max_size=n))
    onsets = [float(t) for t in np.cumsum(steps)]
    durations = st.sampled_from([0.005, 0.02, 0.3, 1.0, 100.0])
    offsets = [t + d for t, d in zip(onsets, draw(st.lists(durations, min_size=n, max_size=n)))]
    midis = draw(st.lists(st.integers(60, draw(st.integers(60, 70))), min_size=n, max_size=n))
    order = draw(st.permutations(range(n))) if draw(st.booleans()) else range(n)
    ids = list(range(n))
    if n > 1 and draw(st.integers(0, 7)) == 0:
        ids[draw(st.integers(1, n - 1))] = ids[0]
    hand = draw(st.sampled_from(Hand))
    digits = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    columns = dict(
        ids=ids, onsets=onsets, offsets=offsets, midis=midis,
        signed_fingers=[d if hand is Hand.RH else -d for d in digits],
    )
    columns = {name: [values[k] for k in order] for name, values in columns.items()}
    return Piece(None, f"p{n}", "1", pitches=list(map(midi_to_pitch, columns["midis"])),
                 onset_velocities=[64] * n, offset_velocities=[64] * n,
                 channels=[hand.channel] * n, **columns)


def _outcome(call):
    """What ``call()`` returns, or the type and message of the FingeringError it raised."""
    try:
        return call()
    except FingeringError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(column_parts(), max_size=4), st.sampled_from([0.0, DELTA, 0.05]), st.booleans())
def test_columns_give_the_chords_and_counts_of_the_chord_objects(parts, delta, truncate):
    for part in parts:
        expected = _outcome(lambda: reference.reference_chord_objects(part, delta, truncate))
        # repr: the same Python values, note ids included
        assert repr(_outcome(lambda: list(cluster_chords(part, delta, truncate)))) == repr(expected)
    params = ChordHmmParams(delta=delta, truncate_overlaps=truncate)

    def tables(count):
        counts = count(parts, params)
        return counts.parts, counts.skipped, {k: t.tobytes() for k, t in counts.tables.items()}

    expected = _outcome(lambda: tables(reference.reference_chord_count))
    assert _outcome(lambda: tables(count)) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(column_parts(), max_size=3), st.booleans())
def test_decode_parts_writes_each_notes_digit_as_the_chord_objects_decode(parts, truncate):
    model = load_model(CHORD_V1)
    model = replace(model, params=replace(model.params, truncate_overlaps=truncate))
    parts = [(part, Hand(part.channels[0]) if len(part) else Hand.RH) for part in parts]

    def by_objects(part, hand):
        chords = reference.reference_chord_positions(part, model.params.delta, truncate)
        result = decode_chords(model, reference.chord_columns(chords), hand)
        fingers = {position: d for chord, state in zip(chords, result.states)
                   for c, d in zip(chord.components, state) if not c.sustained
                   for position in c.note_ids}
        return [fingers[position] for position in range(len(part))], result

    for (part, hand), decoded in zip(parts, chord_hmm.decode_parts(model, parts)):
        expected = _outcome(lambda: by_objects(part, hand))
        if isinstance(decoded, FingeringError):
            assert (type(decoded), str(decoded)) == expected
        else:
            # repr: Python values in the result, and fingers in the same order
            assert (decoded[0].tolist(), repr(decoded[1])) == (expected[0], repr(expected[1]))


def _lockstep_chord_part(rng, n_events: int, hand: Hand, kind: str):
    """``n_events`` chords of one hand, of 1 to 5 pitches; notes of one or
    two may be held into the next, if it is small too.  A ``"relax"`` part
    opens with a five-note chord whose long note the three-note chord after
    it cannot keep, an ``"overflow"`` part with six pitches at one onset."""
    sizes = [int(rng.choice([1, 1, 2, 2, 3, 4, 5])) for _ in range(n_events)] + [5]
    midis, onsets, offsets = [], [], []
    for ei in range(n_events):
        group = [int(m) for m in rng.choice(np.arange(48, 80), sizes[ei], replace=False)]
        held = max(sizes[ei : ei + 2]) <= 2
        lengths = [float(rng.choice([0.3, 0.8])) if held else 0.3 for _ in group]
        if kind == "relax" and ei < 2:
            group = [[60, 62, 64, 65, 67], [57, 59, 69]][ei]
            lengths = [1.4, 0.3, 0.3, 0.3, 0.3][: len(group)]
        if kind == "overflow" and ei == 0:
            group, lengths = [60, 62, 64, 65, 67, 69], [0.3] * 6
        midis += group
        onsets += [0.5 * ei] * len(group)
        offsets += [0.5 * ei + length for length in lengths]
    return make_piece(midis, onsets=onsets, offsets=offsets, hand=hand,
                      piece_id=f"{kind}{n_events}")


@st.composite
def chord_lockstep_sets(draw):
    """A chord model, tie-heavy or with zero-probability cells, and a set
    of hand parts of mixed lengths for it: both hands, chords of 1 to 5
    pitches, held notes, relaxed boundaries, and empty, overflowing and
    infeasible parts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # whole-number log scores: exact ties everywhere
        model = random_chord_model(rng, beta1=1.0, beta2=1.0, gamma1=1.0, gamma2=1.0, zeta=0.0)
        model = replace(
            model, log_initial_digit=np.floor(model.log_initial_digit),
            log_trans_across=np.floor(model.log_trans_across),
            log_trans_within=np.floor(model.log_trans_within),
            log_out_across={h: np.floor(t) for h, t in model.log_out_across.items()},
            log_out_within={h: np.floor(t) for h, t in model.log_out_within.items()},
        )
    else:
        model = drawn_chord_model(draw, rng)
    specs = draw(st.lists(st.tuples(
        st.integers(0, 2) | st.integers(3, 30), st.sampled_from(Hand),
        st.sampled_from(["plain", "plain", "relax", "overflow"]),
    ), min_size=1, max_size=6))
    return model, [(_lockstep_chord_part(rng, n, hand, kind), hand) for n, hand, kind in specs]


@settings(max_examples=60, deadline=None)
@given(chord_lockstep_sets())
def test_a_chord_set_decodes_in_lock_step_as_each_part_alone(case):
    model, parts = case
    together = chord_hmm.decode_parts(model, parts)
    assert len(together) == len(parts)
    for (part, hand), result in zip(parts, together):
        (alone,) = chord_hmm.decode_parts(model, [(part, hand)])
        if isinstance(alone, FingeringError):
            assert type(result) is type(alone) and str(result) == str(alone)
        else:
            (digits, result), (alone_digits, alone) = result, alone
            assert digits.tolist() == alone_digits.tolist()
            assert result.states == alone.states
            assert result.log_score.hex() == alone.log_score.hex()
            assert result.relaxed_boundaries == alone.relaxed_boundaries
        if not isinstance(alone, (EmptyInput, HandOverflow)):
            # and as the per-part recursion the lock-step DP replaced
            chords = cluster_chords(part, model.params.delta)
            expected = reference.chord_viterbi(model, chords, hand)
            assert (expected is None) == isinstance(result, NoFeasiblePath)
            if expected is not None:
                states, score, relaxed = expected
                assert (states, score.hex(), relaxed) == (
                    result.states, result.log_score.hex(), result.relaxed_boundaries)


def test_in_a_chord_set_only_the_part_that_relaxes_a_boundary_records_it(rng):
    model = load_model(CHORD_V1)
    parts = [
        (chordal_piece([(60, 64), (62,), (59, 65, 67), (60,)] * 5), Hand.RH),
        (tie_heavy_chord_part(rng, 56), Hand.RH),
        (chordal_piece([(48, 52)], hand=Hand.LH), Hand.LH),
    ]
    together = chord_hmm.decode_parts(model, parts)
    for part, (digits, result) in zip(parts, together):
        ((alone_digits, alone),) = chord_hmm.decode_parts(model, [part])
        assert digits.tolist() == alone_digits.tolist() and result.states == alone.states
        assert result.log_score.hex() == alone.log_score.hex()
        assert result.relaxed_boundaries == alone.relaxed_boundaries
    assert [bool(result.relaxed_boundaries) for _, result in together] == [False, True, False]


def test_a_chord_set_of_more_than_lockstep_part_notes_runs_in_several_dps(monkeypatch):
    # longest first by chords, each DP takes parts while their notes fit, and at least one
    model = load_model(CHORD_V1)
    parts = [(chordal_piece(groups), Hand.RH) for groups in (
        [(60, 62, 64, 65, 67)] * 4, [(60,), (62,)] * 5, [(60, 64)] * 3, [(60,)] * 2)]
    alone = [chord_hmm.decode_parts(model, [part])[0] for part in parts]
    monkeypatch.setattr(_tables, "LOCKSTEP", 20)
    batches, run = [], chord_hmm._run_viterbi
    monkeypatch.setattr(chord_hmm, "_run_viterbi", lambda model, batch: batches.append(
        [len(chords.onsets) for chords, _ in batch]) or run(model, batch))
    together = chord_hmm.decode_parts(model, parts)
    assert batches == [[10], [4], [3, 2]]  # 10 notes | 20 | 6 + 2
    for (digits, result), (alone_digits, single) in zip(together, alone):
        assert digits.tolist() == alone_digits.tolist()
        assert result.log_score.hex() == single.log_score.hex()


@pytest.mark.parametrize("onsets, message", [
    ([1.0, 0.2, 0.5, 0.6], "onset 0.2 of note 1 precedes 1.0"),
    ([0.0, 0.5, 0.3, 0.9], "onset 0.3 of note 2 precedes 0.5"),
])
def test_a_part_whose_onsets_go_down_is_refused_as_the_parser_refuses_it(onsets, message):
    n = len(onsets)
    part = Piece(None, "p", "1", ids=range(n), onsets=onsets, offsets=[t + 0.2 for t in onsets],
                 pitches=["C4"] * n, midis=[60 + 2 * i for i in range(n)],
                 onset_velocities=[64] * n, offset_velocities=[64] * n, channels=[0] * n,
                 signed_fingers=[1, 2, 3, 4])
    message = f"^piece 'p': {re.escape(message)}$"
    with pytest.raises(NonMonotoneOnsets, match=message):
        cluster_chords(part, DELTA)
    with pytest.raises(NonMonotoneOnsets, match=message):
        count([part], ChordHmmParams())
    sorted_part = make_piece([60, 62], hand=Hand.RH)
    decoded, refused = chord_hmm.decode_parts(load_model(CHORD_V1), [(sorted_part, None),
                                                                     (part, None)])
    assert decoded[0].tolist() == [1, 2]
    assert isinstance(refused, NonMonotoneOnsets) and re.match(message, str(refused))


@pytest.mark.parametrize("onsets, offsets, message", [
    ([0, 1, 2, 3], [math.nan, 1.5, 2.5, 3.5], "note 0 has offset nan"),
    ([0, math.nan, 2, 3], [0.5, 1.5, 2.5, 3.5], "note 1 has onset nan"),
    ([0, 1, 2, 3], [0.5, 1.5, math.inf, 3.5], "note 2 has offset inf"),
], ids=["nan-offset", "nan-onset", "inf-offset"])
def test_a_part_of_non_finite_times_is_refused_as_the_parser_refuses_it(onsets, offsets,
                                                                       message):
    # a NaN offset would hold its note in every later chord, and a NaN
    # onset passes the onset-order check
    part = Piece(None, "p", "1", ids=range(4), onsets=onsets, offsets=offsets,
                 pitches=["C4"] * 4, midis=[60, 62, 64, 66], onset_velocities=[64] * 4,
                 offset_velocities=[64] * 4, channels=[0] * 4, signed_fingers=[1, 2, 3, 4])
    message = f"^piece 'p': {message}, not a finite time$"
    with pytest.raises(FingeringError, match=message):
        cluster_chords(part, DELTA)
    with pytest.raises(FingeringError, match=message):
        count([part], ChordHmmParams())
    sorted_part = make_piece([60, 62], hand=Hand.RH)
    decoded, refused = chord_hmm.decode_parts(load_model(CHORD_V1), [(sorted_part, None),
                                                                     (part, None)])
    assert decoded[0].tolist() == [1, 2]
    assert type(refused) is FingeringError and re.match(message, str(refused))


def test_a_restruck_pitch_hands_later_chords_the_restruck_note():
    # note 2 re-strikes C4 while note 0 still sounds; note 0 stops sounding
    # there, so the chord at 3.0 holds note 2 and pins its digit
    piece = make_piece([60, 64, 60, 67, 65], onsets=[0, 1, 2, 2, 3],
                       offsets=[10, 1.5, 3.5, 2.5, 3.4])
    chords = cluster_chords(piece, DELTA)
    assert [chord.onset for chord in chords] == [0.0, 1.0, 2.0, 3.0]
    assert chords[2].components[0] == ChordComponent(midi=60, note_ids=(2,), sustained=False)
    assert chords[3].components[0] == ChordComponent(midi=60, note_ids=(2,), sustained=True)
    assert chords.held[3] == [(0, 0)]
    assert list(chords) == reference.reference_chord_objects(piece, DELTA)


def test_a_unison_is_one_component_held_from_its_later_note():
    # two C4s struck at 0.0: one component of both ids, whose later note is
    # held at 1.0; the earlier note stops sounding at the later one's onset
    piece = make_piece([60, 60, 64, 67], onsets=[0, 0, 1, 2], offsets=[2.5, 1.5, 1.5, 2.5])
    chords = cluster_chords(piece, DELTA)
    assert [chord.midis for chord in chords] == [(60,), (60, 64), (67,)]
    assert chords[0].components[0] == ChordComponent(midi=60, note_ids=(0, 1), sustained=False)
    assert chords[1].components[0] == ChordComponent(midi=60, note_ids=(1,), sustained=True)
    assert list(chords) == reference.reference_chord_objects(piece, DELTA)
    # the earlier walk held the earlier note, as long as it sounded
    walked = reference.offset_walk_chords(piece, DELTA)
    assert walked[1].components[0].note_ids == (0,) and walked[2].midis == (60, 67)
    model = load_model(CHORD_V1)
    ((_, result),) = chord_hmm.decode_parts(model, [(piece, Hand.RH)])
    (digit,), (held, _) = result.states[:2]  # C4 is the lower pitch at 1.0
    assert held == digit and estimate_piece(model, piece)[0][:2] == [digit, digit]


# --- state enumeration --------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_state_counts(k):
    chord = Chord(
        onset=0.0,
        components=tuple(
            ChordComponent(midi=60 + 2 * i, note_ids=(i,), sustained=False)
            for i in range(k)
        ),
    )
    for hand in Hand:
        states = enumerate_states(chord, hand)
        assert len(states) == comb(5, k)
        for s in states:
            ordered = sorted(s) if hand is Hand.RH else sorted(s, reverse=True)
            assert list(s) == ordered and len(set(s)) == k


def test_keeps_pins_a_held_note():
    prev = Chord(onset=0.0, components=(ChordComponent(midi=60, note_ids=(0,), sustained=False),))
    chord = Chord(
        onset=0.5,
        components=(
            ChordComponent(midi=60, note_ids=(0,), sustained=True),
            ChordComponent(midi=64, note_ids=(1,), sustained=False),
        ),
    )
    keep = chord_hmm._keeps(reference.chord_columns([prev, chord]), 1, Hand.RH)
    states = enumerate_states(chord, Hand.RH)
    assert keep.shape == (5, 10)
    assert [s for s, kept in zip(states, keep[0]) if kept] == [(1, 2), (1, 3), (1, 4), (1, 5)]
    assert [s for s, kept in zip(states, keep[4]) if kept] == []  # no digit above 5


def test_keeps_matches_brute_force(rng):
    filtered = 0
    for _ in range(200):
        prev, chord = random_chord_pair(rng)
        for hand in Hand:
            keep = chord_hmm._keeps(reference.chord_columns([prev, chord]), 1, hand)
            expected = reference.keeps(prev, chord, hand)
            assert (keep is None) == (expected is None)
            if keep is not None:
                assert keep.tolist() == expected.tolist()
                filtered += 1
    assert 0 < filtered < 400


# --- training ------------------------------------------------------------------

def test_train_single_chord_counts():
    piece = chordal_piece([(60, 64, 67)], digits=[1, 3, 5])
    model = train_chord([piece], ChordHmmParams(smoothing_epsilon=0.0))
    within = np.exp(model.log_trans_within)
    assert within[0, 2] == within[0, 4] == 0.5   # 1 -> 3, 1 -> 5
    assert within[2, 0] == within[2, 4] == 0.5   # 3 -> 1, 3 -> 5
    assert within[4, 0] == within[4, 2] == 0.5   # 5 -> 1, 5 -> 3
    assert np.allclose(within[1], 0.2)           # unseen digit 2: uniform


def test_train_isolated_notes_leave_within_tables_at_smoothing():
    piece = chordal_piece([(60,), (64,), (67,)], digits=[1, 2, 3])
    model = train_chord([piece], ChordHmmParams())
    assert np.allclose(np.exp(model.log_trans_within), 0.2)
    for hand in Hand:
        table = np.exp(model.log_out_within[hand])
        assert np.allclose(table, table[0, 0, 0])


def test_train_normalisation(rng):
    pieces = []
    for _ in range(5):
        groups = []
        for gi in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, 4))
            groups.append(
                tuple(
                    int(m)
                    for m in sorted(rng.choice(np.arange(50, 85), size, replace=False))
                )
            )
        n = sum(len(g) for g in groups)
        pieces.append(
            chordal_piece(groups, digits=[int(d) for d in rng.integers(1, 6, size=n)])
        )
    model = train_chord(pieces, ChordHmmParams())
    assert np.exp(model.log_initial_digit).sum() == pytest.approx(1.0, abs=1e-9)
    for table in (model.log_trans_across, model.log_trans_within):
        assert np.allclose(np.exp(table).sum(axis=1), 1.0, atol=1e-9)
    for tables in (model.log_out_across, model.log_out_within):
        for hand in Hand:
            assert np.allclose(np.exp(tables[hand]).sum(axis=2), 1.0, atol=1e-9)


def test_train_empty_corpus():
    with pytest.raises(EmptyCorpus):
        train_chord([], ChordHmmParams())


# --- decoding --------------------------------------------------------------------

def test_decode_single_chord_is_argmax(rng):
    model = random_chord_model(rng)
    piece = chordal_piece([(60, 64, 67)])
    chords = cluster_chords(piece, model.params.delta)
    result = decode_chords(model, chords, Hand.RH)
    path, score = brute_force_chords(model, chords, Hand.RH)
    assert result.states == path
    assert result.log_score == score


def test_decode_matches_brute_force(rng):
    for _ in range(30):
        model = random_chord_model(rng)
        groups = []
        for _ in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, 4))
            groups.append(
                tuple(
                    int(m)
                    for m in sorted(rng.choice(np.arange(55, 75), size, replace=False))
                )
            )
        duration = float(rng.choice([0.3, 0.8]))  # 0.8 creates sustained notes
        hand = Hand.RH if rng.random() < 0.5 else Hand.LH
        piece = chordal_piece(groups, hand=hand, duration=duration)
        chords = cluster_chords(piece, model.params.delta)
        result = decode_chords(model, chords, hand)
        path, score = brute_force_chords(model, chords, hand)
        assert result.states == path
        assert result.log_score == score


def test_uniform_tables_tie_stress_matches_brute_force(rng):
    size = alphabet_size(LATTICE, 3)
    model = ChordHmmModel(
        params=ChordHmmParams(delta_p_max=3),
        log_initial_digit=np.log(np.full(5, 0.2)),
        log_trans_across=np.log(np.full((5, 5), 0.2)),
        log_trans_within=np.log(np.full((5, 5), 0.2)),
        log_out_across={h: np.log(np.full((5, 5, size), 1.0 / size)) for h in Hand},
        log_out_within={h: np.log(np.full((5, 5, size), 1.0 / size)) for h in Hand},
    )
    for _ in range(15):
        groups = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 4))
            groups.append(
                tuple(int(m) for m in sorted(rng.choice(np.arange(55, 75), k, replace=False)))
            )
        duration = float(rng.choice([0.3, 0.8]))
        hand = Hand.RH if rng.random() < 0.5 else Hand.LH
        piece = chordal_piece(groups, hand=hand, duration=duration)
        chords = cluster_chords(piece, model.params.delta)
        result = decode_chords(model, chords, hand)
        path, score = brute_force_chords(model, chords, hand)
        assert result.states == path
        assert result.log_score == score


def test_long_all_tie_dyads_decode_to_smallest_states():
    size = alphabet_size(LATTICE, 3)
    model = ChordHmmModel(
        params=ChordHmmParams(delta_p_max=3),
        log_initial_digit=np.log(np.full(5, 0.2)),
        log_trans_across=np.log(np.full((5, 5), 0.2)),
        log_trans_within=np.log(np.full((5, 5), 0.2)),
        log_out_across={h: np.log(np.full((5, 5, size), 1.0 / size)) for h in Hand},
        log_out_within={h: np.log(np.full((5, 5, size), 1.0 / size)) for h in Hand},
    )
    chords = cluster_chords(chordal_piece([(60, 64)] * 500), model.params.delta)
    result = decode_chords(model, chords, Hand.RH)
    assert result.states == ((1, 2),) * 500


def test_sustained_note_keeps_finger(rng):
    model = random_chord_model(rng)
    piece = make_piece(
        [60, 64, 67], onsets=[0.0, 0.5, 1.0], offsets=[1.2, 0.8, 1.3]
    )
    chords = cluster_chords(piece, model.params.delta)
    assert [c.size for c in chords] == [1, 2, 2]
    result = decode_chords(model, chords, Hand.RH)
    digit_60 = result.states[0][0]
    assert result.states[1][0] == digit_60  # 60 is the lower component of chord 2
    ((digits, _),) = chord_hmm.decode_parts(model, [(piece, Hand.RH)])
    assert digits[0] == digit_60


def test_decode_digits_monotone_with_pitch(rng):
    for hand in Hand:
        model = random_chord_model(rng)
        piece = chordal_piece([(60, 63, 67), (55, 59)], hand=hand)
        chords = cluster_chords(piece, model.params.delta)
        result = decode_chords(model, chords, hand)
        for state in result.states:
            diffs = np.diff(state)
            assert (diffs > 0).all() if hand is Hand.RH else (diffs < 0).all()


def test_unsatisfiable_sustain_relaxes_single_boundary(rng):
    model = random_chord_model(rng)
    midis = [60, 62, 64, 65, 67, 57, 59]
    onsets = [0.0] * 5 + [1.0, 1.0]
    offsets = [2.0, 0.3, 0.3, 0.3, 0.3, 1.4, 1.4]
    piece = make_piece(midis, onsets=onsets, offsets=offsets)
    chords = cluster_chords(piece, model.params.delta)
    assert [c.size for c in chords] == [5, 3]
    result = decode_chords(model, chords, Hand.RH)
    assert result.relaxed_boundaries == (1,)
    assert result.states[0] == (1, 2, 3, 4, 5)
    ((digits, _),) = chord_hmm.decode_parts(model, [(piece, Hand.RH)])
    assert digits[0] == 1  # the long C4 keeps its struck digit
    oracle = chord_path_log_score(model, chords, Hand.RH, result.states)
    assert oracle.hex() == result.log_score.hex()


def sustained_piece(rng, hand, n_events):
    """Random one- or two-note events 0.5 s apart, each held into up to
    two later events."""
    midis, onsets, offsets = [], [], []
    for ei in range(n_events):
        for m in rng.choice(np.arange(55, 76), int(rng.integers(1, 3)), replace=False):
            midis.append(int(m))
            onsets.append(0.5 * ei)
            offsets.append(0.5 * ei + float(rng.choice([0.3, 0.8, 1.3])))
    return make_piece(midis, onsets=onsets, offsets=offsets, hand=hand)


def test_oracle_equals_decoder_on_sustained_pieces(rng):
    relaxed = 0
    for trial in range(60):
        hand = (Hand.RH, Hand.LH)[trial % 2]
        model = random_chord_model(rng)
        piece = sustained_piece(rng, hand, int(rng.integers(2, 30)))
        try:
            chords = cluster_chords(piece, model.params.delta)
        except HandOverflow:
            continue
        result = decode_chords(model, chords, hand)
        relaxed += bool(result.relaxed_boundaries)
        oracle = chord_path_log_score(model, chords, hand, result.states)
        assert oracle.hex() == result.log_score.hex()
    assert relaxed > 0


def test_zero_exponent_nan_cells_match_brute_force(rng):
    for trial in range(12):
        hand = (Hand.RH, Hand.LH)[trial % 2]
        model = random_chord_model(rng, beta1=0.0, gamma2=0.0)
        # a zero exponent times a -inf cell is NaN, which scores as -inf
        model.log_trans_across[0, 1] = -np.inf
        for h in Hand:
            model.log_out_within[h][:2, :2] = -np.inf
        groups = [
            tuple(int(m) for m in sorted(rng.choice(np.arange(55, 75), 2, replace=False)))
            for _ in range(int(rng.integers(2, 4)))
        ]
        chords = cluster_chords(chordal_piece(groups, hand=hand), model.params.delta)
        result = decode_chords(model, chords, hand)
        path, score = brute_force_chords(model, chords, hand)
        assert result.states == path
        assert result.log_score == score


def test_zeta_damps_large_chord_influence(rng):
    model = random_chord_model(rng)
    piece = chordal_piece([(60,), (64,), (55, 59, 62, 67)])
    chords = cluster_chords(piece, model.params.delta)
    path_a = ((1,), (2,), (1, 2, 3, 5))
    path_b = ((1,), (2,), (2, 3, 4, 5))
    gaps = []
    for zeta in (0.0, 1.0, 5.0):
        z_model = replace(model, params=replace(model.params, zeta=zeta))
        gap = abs(
            chord_path_log_score(z_model, chords, Hand.RH, path_a)
            - chord_path_log_score(z_model, chords, Hand.RH, path_b)
        )
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_decode_empty_input(rng):
    model = random_chord_model(rng)
    with pytest.raises(EmptyInput):
        decode_chords(model, reference.chord_columns([]), Hand.RH)


def _struck(onset, *midis):
    """A chord of fresh notes, one per pitch, built by hand."""
    components = tuple(ChordComponent(midi=m, note_ids=(m,), sustained=False) for m in midis)
    return Chord(onset=onset, components=components)


@pytest.mark.parametrize("chords, error, message", [
    ([_struck(0.0, 60, 62, 64, 65, 67, 69)], HandOverflow, "chord 0 at 0.000000s has 6"),
    ([_struck(0.0)], EmptyInput, "chord 0 at 0.000000s has 0"),
    ([_struck(0.0, 60), _struck(0.5)], EmptyInput, "chord 1 at 0.500000s has 0"),
])
def test_chords_no_hand_can_play_are_refused_before_decoding_or_scoring(
    rng, chords, error, message
):
    model = random_chord_model(rng)
    path = [tuple(range(1, chord.size + 1)) for chord in chords]
    chords = reference.chord_columns(chords)
    message = rf"^{re.escape(message)} pitches, not 1 to 5$"
    with pytest.raises(error, match=message):
        decode_chords(model, chords, Hand.RH)
    with pytest.raises(error, match=message):
        chord_path_log_score(model, chords, Hand.RH, path)


def test_chords_off_the_keyboard_are_refused_as_note_pitches_are(rng):
    model = random_chord_model(rng)
    low = Chord(onset=0.0, components=(ChordComponent(midi=20, note_ids=(0,), sustained=False),))
    low = reference.chord_columns([low])
    for call in (lambda: decode_chords(model, low, Hand.RH),
                 lambda: chord_path_log_score(model, low, Hand.RH, [(1,)])):
        with pytest.raises(OutOfRange, match=r"^MIDI number 20 outside 21\.\.108$"):
            call()


def test_monophonic_reduction_matches_note_hmm(rng):
    corpus = []
    for _ in range(6):
        n = int(rng.integers(4, 12))
        midis = [int(m) for m in rng.integers(50, 85, size=n)]
        digits = [int(d) for d in rng.integers(1, 6, size=n)]
        corpus.append(
            make_piece(midis, onsets=[0.4 * i for i in range(n)], digits=digits)
        )
    gamma1 = 0.85
    params = ChordHmmParams(
        beta1=1.0, beta2=4.7, gamma1=gamma1, gamma2=5.29, zeta=0.3, delta_p_max=15
    )
    chord_model = train_chord(corpus, params)
    note_model = NoteHmmModel(
        config=NoteHmmConfig(
            order=1,
            pitch_representation=LATTICE,
            delta_p_max=15,
            alpha=(gamma1,),
            chord_constraint=False,
        ),
        log_initial=[chord_model.log_initial_digit.reshape(1, 5)],
        log_transition=chord_model.log_trans_across,
        log_output={h: [chord_model.log_out_across[h]] for h in Hand},
    )
    for _ in range(10):
        n = int(rng.integers(1, 10))
        midis = [int(m) for m in rng.integers(50, 85, size=n)]
        piece = make_piece(midis, onsets=[0.4 * i for i in range(n)])
        ((chord_fingers, _),) = chord_hmm.decode_parts(chord_model, [(piece, Hand.RH)])
        note_result = decode_viterbi(note_model, piece, hand=Hand.RH)
        assert tuple(chord_fingers.tolist()) == note_result.fingers


def test_decode_piece_assigns_both_hands(rng):
    model = random_chord_model(rng)
    rh = chordal_piece([(60, 64), (67,)], hand=Hand.RH)
    lh = chordal_piece([(48,), (41, 45)], hand=Hand.LH)
    notes = sorted(rh.notes + lh.notes, key=lambda n: (n.onset, n.midi))
    notes = tuple(
        replace(n, note_id=i) for i, n in enumerate(notes)
    )
    piece = replace(rh, notes=notes)
    signed, results = estimate_piece(model, piece)
    assert len(signed) == 6 and all(v != 0 for v in signed)
    for note, value in zip(piece.notes, signed):
        assert (value > 0) == (note.channel == 0)


@st.composite
def chord_pieces(draw):
    """A random chord model and hand part: clusters of up to six pitches,
    unisons, 0 s and within-threshold chord gaps, notes sustained into
    later chords (optionally clipped at the next onset), one-note hands,
    zero exponents and zero-probability cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = drawn_chord_model(draw, rng, truncate_overlaps=draw(st.booleans()))
    width = draw(st.sampled_from([2, 3, 6]))  # most pitches one group may strike
    groups = draw(st.lists(
        st.tuples(
            st.sampled_from([0.05, 0.25, 0.0, 0.01]),  # gap to the previous group
            st.sampled_from([0.3, 0.08, 0.005]),  # duration
            st.lists(st.integers(40, 80), min_size=1, max_size=width),
        ),
        min_size=1,
        max_size=6,
    ))
    midis, onsets, offsets, t = [], [], [], 0.0
    for gap, duration, pitches in groups:
        t += gap
        midis += pitches
        onsets += [t] * len(pitches)
        offsets += [t + duration] * len(pitches)
    hand = draw(st.sampled_from(Hand))
    return model, make_piece(midis, onsets, hand=hand, offsets=offsets), hand


@settings(max_examples=50, deadline=None)
@given(chord_pieces())
def test_random_pieces_decode_to_their_oracle_score_or_raise_fingering_error(case):
    model, piece, hand = case
    try:
        chords = cluster_chords(piece, model.params.delta, model.params.truncate_overlaps)
        result = decode_chords(model, chords, hand)
    except FingeringError:
        return
    ((digits, _),) = chord_hmm.decode_parts(model, [(piece, hand)])
    assert digits.size == len(piece) and digits.min() >= 1  # every note has a digit
    assert not math.isnan(result.log_score)
    assert chord_path_log_score(model, chords, hand, result.states) == result.log_score


# --- the edge kernel ---------------------------------------------------------

# a de Bruijn cycle of the sizes 1..5: read round once from any start and
# back to it, its 26 chords hold every (previous size, size) shape, each
# boundary of another shape than the one before
_SIZE_CYCLE = (1, 1, 2, 1, 3, 1, 4, 1, 5, 2, 2, 3, 2, 4, 2, 5, 3, 3, 4, 3, 5, 4, 4, 5, 5)


@st.composite
def edge_cases(draw):
    """A drawn chord model and hand, and five chord lists, one opening
    with each size, each the size cycle read from there and then a drawn
    tail.  Pitches span the keyboard, so a small delta_p_max clips many
    of their cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = drawn_chord_model(draw, rng)
    tail = tuple(draw(st.lists(st.integers(1, 5), max_size=12)))

    def chord(k):
        midis = sorted(rng.choice(np.arange(21, 109), k, replace=False))
        return Chord(onset=0.0, components=tuple(
            ChordComponent(midi=int(m), note_ids=(i,), sustained=False)
            for i, m in enumerate(midis)
        ))

    lists = [
        [chord(k) for k in _SIZE_CYCLE[s:] + _SIZE_CYCLE[: s + 1] + tail]
        for s in (0, 2, 4, 6, 8)
    ]
    return model, lists, draw(st.sampled_from(Hand))


@settings(max_examples=40, deadline=None)
@given(edge_cases())
def test_batched_edge_matrices_are_the_per_boundary_kernel_byte_for_byte(case):
    model, lists, hand = case
    kernel = _EdgeKernel(model, hand)
    shapes = set()
    for chords in lists:
        sizes = [0] + [chord.size for chord in chords]
        shapes |= set(zip(sizes, sizes[1:]))
        columns = reference.chord_columns(chords)
        batched = [block[0] for block in chord_hmm._edges(model, [(columns, hand)])]
        per_boundary = reference.edge_matrices(kernel, columns)
        assert [m.shape for m in batched] == [m.shape for m in per_boundary]
        assert [m.tobytes() for m in batched] == [m.tobytes() for m in per_boundary]
    assert shapes == set(product(range(6), range(1, 6)))


def test_decode_on_the_per_boundary_kernel_is_the_same_decode(rng, monkeypatch):
    model = random_chord_model(rng)
    piece = tie_heavy_chord_part(rng, 1400)
    assert len(piece) >= 2000
    chords = cluster_chords(piece, model.params.delta)
    batched = decode_chords(model, chords, Hand.RH)
    monkeypatch.setattr(_EdgeKernel, "write", reference.write_edges)
    per_boundary = decode_chords(model, chords, Hand.RH)
    assert batched.states == per_boundary.states
    assert batched.log_score.hex() == per_boundary.log_score.hex()
    assert batched.relaxed_boundaries == per_boundary.relaxed_boundaries
    assert len(batched.relaxed_boundaries) >= 20


def test_one_decode_reads_key_indices_once_per_shape_not_per_chord(rng, monkeypatch):
    calls, key_indices = [], pitch_space.key_indices

    def counted(midis):
        calls.append(1)
        return key_indices(midis)

    model = load_model(CHORD_V1)
    chords = cluster_chords(tie_heavy_chord_part(rng, 1400), model.params.delta)
    sizes = [0] + [chord.size for chord in chords]
    for module in (pitch_space, chord_hmm):
        monkeypatch.setattr(module, "key_indices", counted)
    decode_chords(model, chords, Hand.RH)
    assert 1 <= len(calls) <= len(set(zip(sizes, sizes[1:]))) < len(chords)


def test_the_path_scorer_applies_the_sustain_filter_once_per_boundary(monkeypatch):
    # it reads the masked matrices the decoder's recursion left behind
    model = train_model("chord-hmm", ChordHmmParams(), load_corpus(SAMPLE_CORPUS))
    rh = split_hands(load_piece(SAMPLE_CORPUS / "102-1_fingering.txt"))[0]
    chords = cluster_chords(rh, model.params.delta)
    result = decode_chords(model, chords, Hand.RH)
    calls = count_calls(monkeypatch, chord_hmm, "_keeps")
    oracle = chord_path_log_score(model, chords, Hand.RH, result.states)
    assert oracle.hex() == result.log_score.hex()
    assert len(calls) == len(chords) - 1 == 4


def test_20k_note_tie_heavy_chord_decode_scores_as_its_oracle():
    # a model trained on the small sample corpus leaves many equal smoothed
    # cells, so a long white-key scale ties all the way; every seventh note
    # is held into the next two, which then hold it as a sustained copy
    model = train_model("chord-hmm", ChordHmmParams(), load_corpus(SAMPLE_CORPUS))
    figure = (0, 2, 4, 5, 7, 9, 11, 12, 11, 9, 7, 5, 4, 2)
    onsets = [0.25 * i for i in range(20_000)]
    piece = make_piece(
        [60 + figure[i % 14] for i in range(20_000)],
        onsets=onsets,
        offsets=[t + (0.6 if i % 7 == 0 else 0.2) for i, t in enumerate(onsets)],
    )
    chords = cluster_chords(piece, model.params.delta)
    assert sum(any(c.sustained for c in chord.components) for chord in chords) > 5000
    result = decode_chords(model, chords, Hand.RH)
    oracle = chord_path_log_score(model, chords, Hand.RH, result.states)
    assert oracle.hex() == result.log_score.hex()


def test_path_scorer_refuses_a_path_that_does_not_fit_the_chords(rng):
    model = random_chord_model(rng)
    chords = cluster_chords(chordal_piece([(60, 64), (67,), (55, 59, 62)]), DELTA)
    path = [(1, 3), (4,), (1, 2, 3)]
    assert chord_path_log_score(model, chords, Hand.RH, path) > -math.inf
    for wrong in (path + [(5,)], path[:2]):
        with pytest.raises(ValueError, match=r"^state path length does not match the chords$"):
            chord_path_log_score(model, chords, Hand.RH, wrong)
    with pytest.raises(EmptyInput, match=r"^no chords to score$"):
        chord_path_log_score(model, reference.chord_columns([]), Hand.RH, [])
    # crossing digits, no such digit, a state of another chord size
    for ci, state in ((0, (3, 1)), (1, (6,)), (2, (1, 2))):
        wrong = path[:ci] + [state] + path[ci + 1:]
        message = rf"^state {re.escape(str(state))} of chord {ci} is not a crossing-free assignment$"
        with pytest.raises(ValueError, match=message):
            chord_path_log_score(model, chords, Hand.RH, wrong)


@pytest.mark.parametrize("one", [True, 1.0])
def test_a_state_digit_that_is_not_an_integer_is_refused(one):
    # True and 1.0 equal 1, so they match a state tuple, but are no digits
    model = load_model(CHORD_V1)
    rh = split_hands(load_piece(SAMPLE_CORPUS / "101-1_fingering.txt"))[0]
    chords = cluster_chords(rh, model.params.delta)
    states = decode_chords(model, chords, Hand.RH).states
    ci, state = next((ci, s) for ci, s in enumerate(states) if 1 in s)
    wrong = [*states[:ci], tuple(one if d == 1 else d for d in state), *states[ci + 1:]]
    message = rf"^finger digit {re.escape(repr(one))} is not an integer 1 to 5$"
    with pytest.raises(ValueError, match=message):
        chord_path_log_score(model, chords, Hand.RH, wrong)


def test_an_enumeration_builds_its_edge_matrices_once(rng, monkeypatch):
    # one preparation per piece, whatever the number of paths read
    model = random_chord_model(rng)
    chords = cluster_chords(chordal_piece([(60, 64), (62, 65, 69), (64,)], duration=0.8), DELTA)
    builds = count_calls(monkeypatch, _EdgeKernel, "write")
    brute_force_chords(model, chords, Hand.RH)
    assert len(builds) == 1


def test_each_row_of_a_batched_read_is_its_one_path_oracle(rng):
    # a relaxed sustain boundary, random and decoded paths alike
    model = load_model(CHORD_V1)
    chords = cluster_chords(tie_heavy_chord_part(rng, 56), model.params.delta)
    result = decode_chords(model, chords, Hand.RH)
    assert result.relaxed_boundaries
    states = [enumerate_states(chord, Hand.RH) for chord in chords]
    cells = np.array([[int(rng.integers(len(s))) for s in states] for _ in range(40)]
                     + [[s.index(state) for s, state in zip(states, result.states)]])
    edges = chord_hmm._run_viterbi(model, [(chords, Hand.RH)])[-1]
    for row, score in zip(cells, chord_hmm._path_scores(edges, cells)):
        path = [s[i] for s, i in zip(states, row)]
        assert score.hex() == chord_path_log_score(model, chords, Hand.RH, path).hex()
    assert score.hex() == result.log_score.hex()


def test_a_log_probability_that_overflows_scores_as_zero_probability():
    # gamma1 = 7.53 scales -1e308 past the float range: the cell decodes and
    # scores as the -inf it overflows to, with no warning
    model = load_model(CHORD_V1)
    rh = split_hands(load_piece(SAMPLE_CORPUS / "101-1_fingering.txt"))[0]
    chords = cluster_chords(rh, model.params.delta)
    results = []
    for value in (-1e308, -np.inf):
        edited = replace(model, log_out_across={h: t.copy() for h, t in model.log_out_across.items()})
        edited.log_out_across[Hand.RH][0, 1] = value  # digit 1, then digit 2
        result = decode_chords(edited, chords, Hand.RH)
        oracle = chord_path_log_score(edited, chords, Hand.RH, result.states)
        results.append((result.states, result.log_score.hex(), oracle.hex()))
    assert results[0] == results[1] and results[0][1] == results[0][2]
