"""Chord clustering, state enumeration, training and chord Viterbi."""

from dataclasses import replace
from itertools import product
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_piece, random_rows
from pianofinger.chord_hmm import (
    Chord,
    ChordComponent,
    ChordHmmModel,
    ChordHmmParams,
    chord_path_log_score,
    cluster_chords,
    count,
    decode_chords,
    enumerate_states,
    train_chord,
)
from pianofinger.errors import (
    EmptyCorpus,
    EmptyInput,
    HandOverflow,
    OutOfRange,
    RepeatedNoteId,
)
from pianofinger.estimate import estimate_piece
from pianofinger.model_io import load_model
from pianofinger.note_hmm import NoteHmmConfig, NoteHmmModel, decode_viterbi
from pianofinger.pig_io import Hand
from pianofinger.pitch_space import PitchRepresentation, alphabet_size

CHORD_V1 = Path(__file__).resolve().parents[1] / "data" / "model_v1" / "chord.json"
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
    best_score, best_path = None, None
    for path in product(*[enumerate_states(c, hand) for c in chords]):
        score = chord_path_log_score(model, chords, hand, path)
        if best_score is None or score > best_score:
            best_score, best_path = score, path
    return best_path, best_score


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


def reference_cluster_chords(piece, delta, truncate_overlaps=False):
    """``cluster_chords`` as a plain loop in which every note walks each
    later chord until its offset: quadratic, and the reference."""
    if len(piece) == 0:
        return []
    notes = list(piece.notes)
    next_onset = {}
    if truncate_overlaps:
        onsets = sorted({n.onset for n in notes})
        for i, t in enumerate(onsets[:-1]):
            next_onset[t] = onsets[i + 1]
    groups = []
    for note in notes:
        if groups and note.onset - groups[-1][-1].onset <= delta:
            groups[-1].append(note)
        else:
            groups.append([note])
    chord_onsets = [g[0].onset for g in groups]
    members = [{} for _ in groups]
    for gi, group in enumerate(groups):
        for note in group:
            entry = members[gi].get(note.midi)
            if entry is None or entry[1]:
                members[gi][note.midi] = [[note.note_id], False]
            else:
                entry[0].append(note.note_id)
            offset = note.offset
            if truncate_overlaps and note.onset in next_onset:
                offset = min(offset, next_onset[note.onset])
            for gj in range(gi + 1, len(groups)):
                if chord_onsets[gj] >= offset:
                    break
                if note.midi not in members[gj]:
                    members[gj][note.midi] = [[note.note_id], True]
    chords = []
    for gi, table in enumerate(members):
        if len(table) > 5:
            raise HandOverflow(
                f"piece {piece.piece_id!r}: chord at {chord_onsets[gi]:.6f}s "
                f"needs {len(table)} pitches in one hand"
            )
        components = tuple(
            ChordComponent(midi=midi, note_ids=tuple(ids), sustained=sustained)
            for midi, (ids, sustained) in sorted(table.items())
        )
        chords.append(Chord(onset=chord_onsets[gi], components=components))
    return chords


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
        expected = reference_cluster_chords(piece, delta, truncate)
    except HandOverflow as exc:
        with pytest.raises(HandOverflow) as raised:
            cluster_chords(piece, delta, truncate)
        assert str(raised.value) == str(exc)
    else:
        assert cluster_chords(piece, delta, truncate) == expected


def test_repeated_note_ids_are_refused():
    piece = make_piece([60, 62, 64, 67], hand=Hand.RH, digits=[1, 2, 3, 5])
    model = load_model(CHORD_V1)
    assert estimate_piece(model, piece)[0] == [1, 2, 3, 5]
    for ids in ([0, 0, 1, 1], [7, 7, 7, 7]):
        repeated = replace(
            piece, notes=tuple(replace(n, note_id=i) for n, i in zip(piece.notes, ids))
        )
        message = rf"piece 'piece': note id {ids[1]} occurs twice"
        with pytest.raises(RepeatedNoteId, match=message):
            estimate_piece(model, repeated)
        with pytest.raises(RepeatedNoteId, match=message):
            count([repeated], model.params)


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


def test_states_carried_filter():
    chord = Chord(
        onset=0.0,
        components=(
            ChordComponent(midi=60, note_ids=(0,), sustained=True),
            ChordComponent(midi=64, note_ids=(1,), sustained=False),
        ),
    )
    states = enumerate_states(chord, Hand.RH, carried={0: 1})
    assert states == [(1, 2), (1, 3), (1, 4), (1, 5)]


def test_states_carried_filter_matches_brute_force(rng):
    for _ in range(100):
        k = int(rng.integers(1, 6))
        hand = Hand.RH if rng.random() < 0.5 else Hand.LH
        midis = sorted(rng.choice(np.arange(50, 80), size=k, replace=False))
        chord = Chord(
            onset=0.0,
            components=tuple(
                ChordComponent(midi=int(m), note_ids=(i,), sustained=False)
                for i, m in enumerate(midis)
            ),
        )
        full = enumerate_states(chord, hand)
        reference = full[int(rng.integers(len(full)))]
        pinned = sorted(rng.choice(k, size=int(rng.integers(0, k + 1)), replace=False))
        carried = {int(i): reference[i] for i in pinned}
        filtered = enumerate_states(chord, hand, carried=carried)
        expected = [
            s for s in full if all(s[i] == d for i, d in carried.items())
        ]
        assert filtered == expected
        assert reference in filtered


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
    assert result.fingers_by_note[0] == digit_60


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
    assert result.fingers_by_note[0] == 1  # the long C4 keeps its struck digit
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
        decode_chords(model, [], Hand.RH)


def test_chords_off_the_keyboard_are_refused_as_note_pitches_are(rng):
    model = random_chord_model(rng)
    low = Chord(onset=0.0, components=(ChordComponent(midi=20, note_ids=(0,), sustained=False),))
    for call in (lambda: decode_chords(model, [low], Hand.RH),
                 lambda: chord_path_log_score(model, [low], Hand.RH, [(1,)])):
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
        chords = cluster_chords(piece, params.delta)
        chord_result = decode_chords(chord_model, chords, Hand.RH)
        note_result = decode_viterbi(note_model, piece, hand=Hand.RH)
        chord_fingers = tuple(
            chord_result.fingers_by_note[note.note_id] for note in piece.notes
        )
        assert chord_fingers == note_result.fingers


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
