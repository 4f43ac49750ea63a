"""Training, symmetries and exact Viterbi decoding of the note HMM."""

import math
import re
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import count_calls, lockstep_batches, make_piece, random_note_model, random_piece
from pianofinger import _tables, note_hmm
from pianofinger.dataset import load_corpus, load_piece
from pianofinger.errors import (
    EmptyCorpus,
    EmptyPiece,
    FingeringError,
    MissingFinger,
    OutOfRange,
)
from pianofinger.experiments import train_model
from pianofinger.note_hmm import (
    NoteHmmConfig,
    NoteHmmModel,
    Symmetry,
    decode_parts,
    decode_viterbi,
    sample_piece,
    sequence_log_score,
    train,
    transition_prob,
)
from pianofinger.pig_io import FingerLabel, Hand, midi_to_pitch, split_hands
from pianofinger.pitch_space import (
    PitchRepresentation,
    negation_permutation,
    reflection_permutation,
)

INTEGRAL = PitchRepresentation.INTEGRAL
LATTICE = PitchRepresentation.LATTICE
SAMPLE_CORPUS = Path(__file__).resolve().parents[1] / "data" / "sample_corpus"


def annotated(midis, digits, hand=Hand.RH, onsets=None, **kw):
    return make_piece(midis, onsets=onsets, hand=hand, digits=digits, **kw)


def brute_force_decode(model, piece, hand):
    """The first best of every fingering, in lexicographic order, and its
    score: the oracle's preparation once, then one read of every path."""
    paths = np.array(list(product(range(1, 6), repeat=len(piece))))
    scores = note_hmm._path_scores(model, note_hmm._part_tables(model, piece, hand), paths)
    best = int(np.argmax(scores))
    return tuple(int(d) for d in paths[best]), float(scores[best])


# --- training --------------------------------------------------------------

def test_single_sequence_counts():
    piece = annotated([60, 62, 64], [1, 2, 3])
    model = train([piece], NoteHmmConfig(order=1, alpha=(1.0,)))
    assert transition_prob(model, (1,), 2) == 1.0
    assert transition_prob(model, (2,), 3) == 1.0


def test_interpolated_transition_value():
    # order-1 continuations of digit 2: 3,3,1,1,4 -> P_ML(3|2)=0.4;
    # context (1,2) continues only with 4 -> P_ML(3|1,2)=0
    corpus = [
        annotated([60, 62], [2, 3], piece_id="a"),
        annotated([60, 62], [2, 3], piece_id="b"),
        annotated([60, 62], [2, 1], piece_id="c"),
        annotated([60, 62], [2, 1], piece_id="d"),
        annotated([60, 62, 64], [1, 2, 4], piece_id="e"),
    ]
    model = train(corpus, NoteHmmConfig(order=2, alpha=(1.0, 1.0), lambda_=(0.5,)))
    assert transition_prob(model, (1, 2), 3) == pytest.approx(0.2, rel=1e-12)


def test_transition_rows_normalised(rng):
    corpus = []
    for n in (12, 7, 9, 1, 5):
        midis = rng.integers(40, 90, size=n)
        digits = rng.integers(1, 6, size=n)
        corpus.append(annotated(list(map(int, midis)), list(map(int, digits))))
    for order in (1, 2, 3):
        model = train(corpus, NoteHmmConfig(order=order))
        assert np.allclose(np.exp(model.log_transition).sum(axis=1), 1.0, atol=1e-9)
        for k in range(order):
            assert np.allclose(np.exp(model.log_initial[k]).sum(axis=1), 1.0, atol=1e-9)
        for hand in Hand:
            for lag in range(1, order + 1):
                rows = np.exp(model.log_output[hand][lag - 1]).sum(axis=2)
                assert np.allclose(rows, 1.0, atol=1e-9)


def test_unseen_context_backs_off():
    corpus = [annotated([60, 62, 64], [1, 2, 3])]
    model = train(corpus, NoteHmmConfig(order=2, alpha=(1.0, 1.0), lambda_=(0.5,)))
    # context (5, 2) unseen at order 2, but (2,) continues with 3
    assert transition_prob(model, (5, 2), 3) > 0.0
    rows = np.exp(model.log_transition).sum(axis=1)
    assert np.allclose(rows, 1.0, atol=1e-9)


def test_lambda_zero_is_pure_full_order():
    corpus = [annotated([60, 62, 64, 65], [1, 2, 3, 4])]
    model = train(corpus, NoteHmmConfig(order=2, alpha=(1.0, 1.0), lambda_=(0.0,)))
    assert transition_prob(model, (1, 2), 3) == 1.0
    assert transition_prob(model, (1, 2), 4) == 0.0


def test_train_rejects_empty_and_unannotated():
    with pytest.raises(EmptyCorpus):
        train([], NoteHmmConfig(order=1))
    with pytest.raises(MissingFinger):
        train([make_piece([60, 62])], NoteHmmConfig(order=1))


def test_config_validation():
    with pytest.raises(ValueError):
        NoteHmmConfig(order=4)
    with pytest.raises(ValueError):
        NoteHmmConfig(order=2, alpha=(1.0,))
    with pytest.raises(ValueError):
        NoteHmmConfig(order=3, lambda_=(0.7, 0.7))
    with pytest.raises(ValueError):
        NoteHmmConfig(order=1, alpha=(-0.1,))


# --- symmetries ------------------------------------------------------------

def _random_annotated_corpus(rng, n_pieces=6, monophonic=False, both_hands=True):
    corpus = []
    for i in range(n_pieces):
        hand = Hand.LH if both_hands and i % 2 else Hand.RH
        piece = random_piece(
            rng, n_max=10, midi_lo=41, midi_hi=100, hand=hand,
            allow_chords=not monophonic,
        )
        digits = [int(d) for d in rng.integers(1, 6, size=len(piece))]
        corpus.append(
            piece.with_fingers([FingerLabel(hand, d) for d in digits])
        )
    return corpus


@pytest.mark.parametrize("representation", [INTEGRAL, LATTICE])
def test_time_inversion_exact(rng, representation):
    corpus = _random_annotated_corpus(rng)
    config = NoteHmmConfig(
        order=2,
        pitch_representation=representation,
        symmetries={Symmetry.TIME_INVERSION},
    )
    model = train(corpus, config)
    negperm = negation_permutation(representation, config.delta_p_max)
    for hand in Hand:
        for lag in (1, 2):
            table = model.log_output[hand][lag - 1]
            partner = table.transpose(1, 0, 2)[:, :, negperm]
            assert (table == partner).all()


@pytest.mark.parametrize("representation", [INTEGRAL, LATTICE])
def test_reflection_exact(rng, representation):
    corpus = _random_annotated_corpus(rng)
    config = NoteHmmConfig(
        order=2,
        pitch_representation=representation,
        symmetries={Symmetry.REFLECTION},
    )
    model = train(corpus, config)
    reflperm = reflection_permutation(representation, config.delta_p_max)
    for lag in (1, 2):
        left = model.log_output[Hand.LH][lag - 1]
        right = model.log_output[Hand.RH][lag - 1]
        assert (left == right[:, :, reflperm]).all()


def test_both_symmetries_hold_together(rng):
    corpus = _random_annotated_corpus(rng)
    config = NoteHmmConfig(
        order=1,
        symmetries={Symmetry.TIME_INVERSION, Symmetry.REFLECTION},
    )
    model = train(corpus, config)
    negperm = negation_permutation(LATTICE, config.delta_p_max)
    reflperm = reflection_permutation(LATTICE, config.delta_p_max)
    for hand in Hand:
        table = model.log_output[hand][0]
        assert (table == table.transpose(1, 0, 2)[:, :, negperm]).all()
    assert (
        model.log_output[Hand.LH][0]
        == model.log_output[Hand.RH][0][:, :, reflperm]
    ).all()


def _mirror_piece(piece):
    hand = Hand(1 - piece.notes[0].channel)  # the other hand
    notes = []
    for n in piece.notes:
        midi = 124 - n.midi  # reflect about D4: preserves black/white colours
        notes.append(
            replace(
                n,
                midi=midi,
                pitch=midi_to_pitch(midi),
                channel=hand.channel,
                finger=FingerLabel(hand, n.finger.digit),
            )
        )
    notes.sort(key=lambda n: (n.onset, n.midi))
    return replace(piece, notes=tuple(notes), piece_id=piece.piece_id + "-mirror")


@pytest.mark.parametrize("representation", [INTEGRAL, LATTICE])
def test_mirrored_corpus_makes_reflection_a_noop(rng, representation):
    corpus = _random_annotated_corpus(rng, monophonic=True)
    symmetric = corpus + [_mirror_piece(p) for p in corpus]
    base = NoteHmmConfig(
        order=2, pitch_representation=representation, smoothing_epsilon=0.0
    )
    plain = train(symmetric, base)
    tied = train(symmetric, replace(base, symmetries=frozenset({Symmetry.REFLECTION})))
    for hand in Hand:
        for lag in (1, 2):
            a = plain.log_output[hand][lag - 1]
            b = tied.log_output[hand][lag - 1]
            assert (a == b).all()
    assert (plain.log_transition == tied.log_transition).all()


# --- output score ----------------------------------------------------------

def test_output_score_single_factor(rng):
    model = random_note_model(rng, order=1, alpha=(1.0,))
    value = reference.output_score(model, [60, 64], [1, 3], hand=Hand.RH)
    table = np.exp(model.log_output[Hand.RH][0])
    assert value == pytest.approx(table[0, 2, 3 + 3], rel=1e-12)  # dx=+4 clamps to 3


def test_output_score_zero_alpha(rng):
    model = random_note_model(rng, order=2, alpha=(0.0, 0.0))
    assert reference.output_score(model, [60, 70, 64], [1, 5, 3]) == 1.0


def test_output_score_pairwise_product(rng):
    model = random_note_model(rng, order=2, alpha=(0.7, 0.3))
    pitches, fingers = [60, 62, 65], [1, 2, 4]
    t1 = np.exp(model.log_output[Hand.RH][0])
    t2 = np.exp(model.log_output[Hand.RH][1])
    expected = t1[1, 3, 3 + 3] ** 0.7 * t2[0, 3, 3 + 3] ** 0.3  # dx clamped at 3
    assert reference.output_score(model, pitches, fingers) == pytest.approx(expected, rel=1e-12)


# --- chord crossing constraint ----------------------------------------------

def test_crossing_examples():
    delta = 0.030
    assert not reference.chord_crossing_allowed((60, 0.0, 3), (64, 0.0, 1), Hand.RH, delta)
    assert reference.chord_crossing_allowed((60, 0.0, 3), (64, 0.5, 1), Hand.RH, delta)
    assert reference.chord_crossing_allowed((48, 0.0, 5), (55, 0.0, 1), Hand.LH, delta)
    # equal digits on distinct simultaneous pitches are forbidden
    assert not reference.chord_crossing_allowed((60, 0.0, 2), (64, 0.0, 2), Hand.RH, delta)
    # same pitch re-struck is not constrained
    assert reference.chord_crossing_allowed((60, 0.0, 2), (60, 0.01, 2), Hand.RH, delta)


# --- decoding ---------------------------------------------------------------

def test_single_note_smallest_digit_on_ties(rng):
    model = random_note_model(rng, order=1)
    model.log_initial[0] = np.log(np.full((1, 5), 0.2))
    result = decode_viterbi(model, make_piece([60]), hand=Hand.RH)
    assert result.fingers == (1,)


def test_uniform_model_prefers_lexicographic(rng):
    model = random_note_model(rng, order=1, representation=INTEGRAL)
    size = model.log_output[Hand.RH][0].shape[2]
    uniform = np.log(np.full((5, 5, size), 1.0 / size))
    model.log_output = {h: [uniform.copy()] for h in Hand}
    model.log_transition = np.log(np.full((5, 5), 0.2))
    model.log_initial = [np.log(np.full((1, 5), 0.2))]
    piece = make_piece([60, 64, 67], onsets=[0.0, 0.0, 0.5])
    result = decode_viterbi(model, piece, hand=Hand.RH)
    assert result.fingers == (1, 2, 1)
    oracle = brute_force_decode(model, piece, Hand.RH)
    assert (result.fingers, result.log_score) == oracle


def test_uniform_tables_tie_stress_matches_brute_force(rng):
    # every path scores identically, so the tie-break machinery carries
    # the whole decision; compare against enumeration on chordal pieces
    for order in (1, 2, 3):
        model = random_note_model(rng, order=order, representation=INTEGRAL)
        size = model.log_output[Hand.RH][0].shape[2]
        uniform_out = np.log(np.full((5, 5, size), 1.0 / size))
        model.log_output = {h: [uniform_out.copy() for _ in range(order)] for h in Hand}
        model.log_transition = np.log(np.full((5**order, 5), 0.2))
        model.log_initial = [
            np.log(np.full((5**k, 5), 0.2)) for k in range(order)
        ]
        for _ in range(8):
            piece = random_piece(rng, n_max=5)
            hand = Hand(piece.notes[0].channel)
            result = decode_viterbi(model, piece, hand=hand)
            fingers, score = brute_force_decode(model, piece, hand)
            assert result.fingers == fingers
            assert result.log_score == score


def test_long_all_tie_piece_decodes_to_smallest_digits(rng):
    # every path ties for 5,000 notes: ties must cost linear time, and the
    # lexicographically smallest fingering is all thumbs
    piece = make_piece([60 + i % 12 for i in range(5000)])
    for order in (1, 2, 3):
        model = random_note_model(rng, order=order, representation=INTEGRAL)
        size = model.log_output[Hand.RH][0].shape[2]
        uniform_out = np.log(np.full((5, 5, size), 1.0 / size))
        model.log_output = {h: [uniform_out.copy() for _ in range(order)] for h in Hand}
        model.log_transition = np.log(np.full((5**order, 5), 0.2))
        model.log_initial = [np.log(np.full((5**k, 5), 0.2)) for k in range(order)]
        result = decode_viterbi(model, piece, hand=Hand.RH)
        assert result.fingers == (1,) * len(piece)


def test_20k_note_tie_heavy_order_three_decode_scores_as_its_oracle():
    # a model trained on the small sample corpus leaves many equal smoothed
    # cells, so a long white-key scale ties all the way; at 125 states the
    # prefix keys are re-densified every few notes, and the output terms
    # come in over 300 blocks, each of which must line up with its notes
    model = train_model("note-hmm", NoteHmmConfig(order=3), load_corpus(SAMPLE_CORPUS))
    figure = (0, 2, 4, 5, 7, 9, 11, 12, 11, 9, 7, 5, 4, 2)
    piece = make_piece([60 + figure[i % 14] for i in range(20_000)])
    result = decode_viterbi(model, piece, hand=Hand.RH)
    oracle = sequence_log_score(model, piece, result.fingers, Hand.RH)
    assert oracle.hex() == result.log_score.hex()


def test_matches_brute_force(rng):
    for _ in range(40):
        order = int(rng.integers(1, 4))
        representation = INTEGRAL if rng.random() < 0.5 else LATTICE
        constraint = bool(rng.random() < 0.5)
        model = random_note_model(
            rng, order=order, representation=representation,
            chord_constraint=constraint,
        )
        piece = random_piece(rng, n_max=5)
        hand = Hand(piece.notes[0].channel)
        result = decode_viterbi(model, piece, hand=hand)
        fingers, score = brute_force_decode(model, piece, hand)
        assert result.fingers == fingers
        assert result.log_score == score


def test_order_two_with_inert_second_lag_reduces_to_order_one(rng):
    base = random_note_model(rng, order=1, representation=INTEGRAL)
    config2 = NoteHmmConfig(
        order=2,
        pitch_representation=INTEGRAL,
        delta_p_max=base.config.delta_p_max,
        alpha=(base.config.alpha[0], 0.0),
        lambda_=(1.0,),
        chord_constraint=True,
    )
    size = base.log_output[Hand.RH][0].shape[2]
    dummy = np.log(np.full((5, 5, size), 1.0 / size))
    model2 = NoteHmmModel(
        config=config2,
        log_initial=[base.log_initial[0], base.log_transition],
        log_transition=np.tile(base.log_transition, (5, 1)),
        log_output={
            hand: [base.log_output[hand][0], dummy.copy()] for hand in Hand
        },
    )
    for _ in range(25):
        piece = random_piece(rng, n_max=7)
        hand = Hand(piece.notes[0].channel)
        r1 = decode_viterbi(base, piece, hand=hand)
        r2 = decode_viterbi(model2, piece, hand=hand)
        assert r1.fingers == r2.fingers
        assert r1.log_score == r2.log_score


def test_shipped_default_coefficients():
    assert NoteHmmConfig(order=1).alpha == (0.964,)
    c2 = NoteHmmConfig(order=2)
    assert c2.alpha == (0.556, 0.407) and c2.lambda_ == (0.474,)
    c3 = NoteHmmConfig(order=3)
    assert c3.alpha == (0.448, 0.292, 0.194) and c3.lambda_ == (0.470, 0.504)
    assert c3.delta_p_max == 15 and c3.chord_threshold == 0.030


def test_reflection_tied_model_mirrors_decodes(rng):
    # decoding a piece right-handed equals decoding its keyboard mirror
    # left-handed when the left table is the tied mirror of the right
    corpus = _random_annotated_corpus(rng, monophonic=True)
    model = train(
        corpus,
        NoteHmmConfig(order=2, symmetries={Symmetry.REFLECTION}),
    )
    for _ in range(15):
        piece = random_piece(
            rng, n_max=8, midi_lo=44, midi_hi=80, hand=Hand.RH, allow_chords=False
        )
        mirrored = _mirror_piece(piece.with_fingers(
            [FingerLabel(Hand.RH, 1)] * len(piece)
        )).with_fingers([None] * len(piece))
        a = decode_viterbi(model, piece, hand=Hand.RH)
        b = decode_viterbi(model, mirrored, hand=Hand.LH)
        assert a.fingers == b.fingers
        assert a.log_score == b.log_score


def test_decoded_beats_random_fingerings(rng):
    model = random_note_model(rng, order=2)
    piece = random_piece(rng, n_max=30)
    hand = Hand(piece.notes[0].channel)
    result = decode_viterbi(model, piece, hand=hand)
    for _ in range(1000):
        fingers = [int(d) for d in rng.integers(1, 6, size=len(piece))]
        assert result.log_score >= sequence_log_score(model, piece, fingers, hand)


def test_decoded_output_respects_chord_constraint(rng):
    for _ in range(25):
        model = random_note_model(rng, order=int(rng.integers(1, 4)))
        piece = random_piece(rng, n_max=8)
        hand = Hand(piece.notes[0].channel)
        result = decode_viterbi(model, piece, hand=hand)
        if result.crossing_fallback_used:
            continue
        delta = model.config.chord_threshold
        notes = piece.notes
        for a, b, fa, fb in zip(notes, notes[1:], result.fingers, result.fingers[1:]):
            assert reference.chord_crossing_allowed(
                (a.midi, a.onset, fa), (b.midi, b.onset, fb), hand, delta
            )


def test_octave_transposition_invariance(rng):
    for _ in range(10):
        representation = INTEGRAL if rng.random() < 0.5 else LATTICE
        model = random_note_model(rng, order=2, representation=representation)
        piece = random_piece(rng, n_max=8, midi_lo=40, midi_hi=80)
        hand = Hand(piece.notes[0].channel)
        shifted = replace(
            piece,
            notes=tuple(
                replace(n, midi=n.midi + 12, pitch=midi_to_pitch(n.midi + 12))
                for n in piece.notes
            ),
        )
        a = decode_viterbi(model, piece, hand=hand)
        b = decode_viterbi(model, shifted, hand=hand)
        assert a.fingers == b.fingers


def test_infeasible_cluster_falls_back(rng):
    model = random_note_model(rng, order=1, chord_constraint=True)
    piece = make_piece([60, 62, 64, 65, 67, 69], onsets=[0.0] * 6)
    result = decode_viterbi(model, piece, hand=Hand.RH)
    assert result.crossing_fallback_used
    assert len(result.fingers) == 6


@pytest.mark.parametrize("order", [1, 2, 3])
def test_crossing_fallback_decode_scores_as_its_oracle(order):
    # no crossing-free fingering plays six ascending notes at once, so the
    # decoder drops the constraint, and its oracle must score the same way
    model = train_model("note-hmm", NoteHmmConfig(order=order), load_corpus(SAMPLE_CORPUS))
    piece = make_piece([60, 62, 64, 65, 67, 69], onsets=[0.0] * 6)
    result = decode_viterbi(model, piece, hand=Hand.RH)
    assert result.crossing_fallback_used
    oracle = sequence_log_score(model, piece, result.fingers, Hand.RH)
    assert oracle.hex() == result.log_score.hex()
    # a crossing fingering of a playable cluster stays -inf
    playable = make_piece([60, 62, 64, 65, 67], onsets=[0.0] * 5)
    assert sequence_log_score(model, playable, (2, 1, 3, 4, 5), Hand.RH) == -math.inf


def test_a_fallback_decode_builds_its_step_tables_once(monkeypatch):
    # the unconstrained pass reuses the constrained pass's tables
    model = train_model("note-hmm", NoteHmmConfig(order=2), load_corpus(SAMPLE_CORPUS))
    builds = count_calls(monkeypatch, note_hmm, "_step_tables")
    cluster = make_piece([60, 62, 64, 65, 67, 69], onsets=[0.0] * 6)
    assert decode_viterbi(model, cluster, hand=Hand.RH).crossing_fallback_used
    assert len(builds) == 1


def test_the_oracle_of_a_crossing_fingering_builds_its_step_tables_once(monkeypatch):
    # the constrained pass the oracle asks runs on the oracle's own tables
    model = train_model("note-hmm", NoteHmmConfig(order=2), load_corpus(SAMPLE_CORPUS))
    builds = count_calls(monkeypatch, note_hmm, "_step_tables")
    piece = make_piece([60, 64, 67, 72], onsets=[0.0, 0.0, 0.0, 0.5])
    assert sequence_log_score(model, piece, (3, 2, 1, 1), Hand.RH) == -math.inf
    assert len(builds) == 1


def test_an_enumeration_builds_its_step_tables_once(rng, monkeypatch):
    # one preparation per piece, and one constrained pass for all the paths that cross
    model = random_note_model(rng, order=2)
    piece = make_piece([60, 64, 67, 72], onsets=[0.0, 0.0, 0.0, 0.5])
    builds = count_calls(monkeypatch, note_hmm, "_step_tables")
    batches = lockstep_batches(monkeypatch)
    brute_force_decode(model, piece, Hand.RH)
    assert len(builds) == 1
    assert len(batches) <= 1


def test_a_fallback_decode_reads_the_first_runs_slabs(monkeypatch):
    # the unconstrained pass gathers no rows of its own: it reads the same slab arrays
    model = train_model("note-hmm", NoteHmmConfig(order=2), load_corpus(SAMPLE_CORPUS))
    runs, run = [], note_hmm._run_viterbi
    monkeypatch.setattr(note_hmm, "_run_viterbi",
                        lambda model, tables: runs.append(tables) or run(model, tables))
    cluster = make_piece([60, 62, 64, 65, 67, 69], onsets=[0.0] * 6)
    assert decode_viterbi(model, cluster, hand=Hand.RH).crossing_fallback_used
    (first, _, _, masks), (second, _, _, unmasked) = runs
    assert masks and not unmasked and len(first) == len(second) == 2
    for (lag, slab), (again, reread) in zip(first, second):
        assert lag == again and np.shares_memory(slab, reread)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_each_row_of_a_batched_read_is_its_one_path_oracle(rng, order):
    # a crossing row scores -inf where the constraint holds; every row of
    # the six-note cluster crosses, and keeps its score, as the decoder
    # plays that cluster without the constraint
    model = random_note_model(rng, order=order)
    cluster = make_piece([60, 62, 64, 65, 67, 69, 72, 71], onsets=[0.0] * 6 + [0.5, 1.0])
    playable = make_piece([60, 64, 67, 72, 71], onsets=[0.0] * 3 + [0.5, 0.5])
    for piece, crossing_scores in ((cluster, np.isfinite), (playable, np.isneginf)):
        result = decode_viterbi(model, piece, hand=Hand.RH)
        paths = np.vstack([rng.integers(1, 6, (40, len(piece))), result.fingers])
        scores = note_hmm._path_scores(model, note_hmm._part_tables(model, piece, Hand.RH), paths)
        for fingers, score in zip(paths, scores):
            assert score.hex() == sequence_log_score(model, piece, fingers, Hand.RH).hex()
        assert scores[-1].hex() == result.log_score.hex()
        assert result.crossing_fallback_used == (piece is cluster)
        assert crossing_scores(scores[:-1]).any()


# True is an int to isinstance, but no finger
@pytest.mark.parametrize("digit", [0, -2, 6, 1.5, True])
def test_a_digit_that_is_not_one_to_five_is_refused(rng, digit):
    model = random_note_model(rng, order=2)
    piece = make_piece([60, 62, 64])
    message = rf"^finger digit {re.escape(repr(digit))} is not an integer 1 to 5$"
    for fingers in ((digit, 2, 3), (1, 2, digit)):
        with pytest.raises(ValueError, match=message):
            sequence_log_score(model, piece, fingers, Hand.RH)
    for context, next_digit in (((digit, 1), 2), ((1, 2), digit)):
        with pytest.raises(ValueError, match=message):
            transition_prob(model, context, next_digit)


def test_empty_piece_raises(rng):
    model = random_note_model(rng, order=1)
    with pytest.raises(EmptyPiece):
        decode_viterbi(model, make_piece([]), hand=Hand.RH)


def test_sampled_corpus_trains(rng):
    model = random_note_model(rng, order=1, representation=INTEGRAL, delta_p_max=5)
    pieces = [
        sample_piece(model, Hand.RH, 30, rng) for _ in range(4)
    ]
    trained = train(
        pieces, NoteHmmConfig(order=1, pitch_representation=INTEGRAL, delta_p_max=5)
    )
    assert np.allclose(np.exp(trained.log_transition).sum(axis=1), 1.0, atol=1e-9)


# --- the displacement index table -------------------------------------------

@pytest.mark.parametrize("representation", [INTEGRAL, LATTICE])
@pytest.mark.parametrize("midi", [-40, 0, 20, 109, 200])
def test_off_keyboard_midi_raises_out_of_range(rng, representation, midi):
    model = random_note_model(rng, order=2, representation=representation)
    piece = annotated([60, 62, 64], [1, 2, 3])
    notes = list(piece.notes)
    notes[1] = replace(notes[1], midi=midi)
    piece = replace(piece, notes=tuple(notes))
    with pytest.raises(OutOfRange):
        decode_viterbi(model, piece)
    with pytest.raises(OutOfRange):
        sequence_log_score(model, piece, [1, 2, 3])
    with pytest.raises(OutOfRange):
        train([piece], model.config)
    with pytest.raises(OutOfRange):
        reference.output_score(model, [60, midi], [1, 2])
    with pytest.raises(OutOfRange):
        reference.output_score(model, [midi, 60, 62], [1, 2, 3])


def test_hot_paths_do_not_call_scalar_displacement(monkeypatch, rng):
    """Training, decoding and scoring read the index table, never the
    scalar ``displacement()`` it is defined by."""

    def scalar_path(*args, **kwargs):
        raise AssertionError("displacement() called in a note-HMM hot path")

    for name, module in list(sys.modules.items()):
        if name.startswith("pianofinger") and hasattr(module, "displacement"):
            monkeypatch.setattr(module, "displacement", scalar_path)
    n = 200
    midis = np.clip(64 + np.cumsum(rng.integers(-5, 6, n)), 21, 108).tolist()
    onsets = np.cumsum(rng.choice([0.0, 0.01, 0.25], n)).tolist()
    digits = rng.integers(1, 6, n).tolist()
    piece = annotated(midis, digits, onsets=onsets)
    for representation in (INTEGRAL, LATTICE):
        for order in (1, 2, 3):
            config = NoteHmmConfig(
                order=order,
                pitch_representation=representation,
                symmetries={Symmetry.TIME_INVERSION, Symmetry.REFLECTION},
            )
            model = train([piece], config)
            result = decode_viterbi(model, piece)
            assert sequence_log_score(model, piece, result.fingers) == result.log_score
            assert 0.0 < reference.output_score(model, midis[: order + 1], digits[: order + 1])


@st.composite
def note_pieces(draw):
    """A random note model and hand part: unisons, 0 s and within-threshold
    chord gaps, one-note hands, inert lags and zero-probability cells."""
    order = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_note_model(
        rng,
        order=order,
        representation=draw(st.sampled_from(PitchRepresentation)),
        delta_p_max=draw(st.integers(1, 4)),
        chord_constraint=draw(st.booleans()),
        alpha=tuple(draw(st.lists(st.sampled_from([0.0, 0.4, 1.3]), min_size=order,
                                  max_size=order))),
    )
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.9]))
    for tables in model.log_output.values():
        for table in tables:
            table[rng.random(table.shape) < zero_share] = -np.inf
    groups = draw(st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.01, 0.25]),
            st.lists(st.integers(40, 80), min_size=1, max_size=6),
        ),
        min_size=1,
        max_size=6,
    ))
    midis, onsets, t = [], [], 0.0
    for gap, pitches in groups:
        t += gap
        midis += pitches
        onsets += [t] * len(pitches)
    hand = draw(st.sampled_from(Hand))
    return model, make_piece(midis, onsets, hand=hand), hand


@settings(max_examples=50, deadline=None)
@given(note_pieces())
def test_random_pieces_decode_to_their_oracle_score_or_raise_fingering_error(case):
    model, piece, hand = case
    try:
        result = decode_viterbi(model, piece, hand=hand)
    except FingeringError:
        return
    assert len(result.fingers) == len(piece)
    assert not math.isnan(result.log_score)
    assert sequence_log_score(model, piece, result.fingers, hand) == result.log_score


def _lockstep_part(rng, n_notes: int, hand: Hand, cluster: bool):
    """``n_notes`` notes of one hand, some in chords; a ``cluster`` part
    opens with six notes at one onset, which no crossing-free fingering
    plays."""
    midis = [int(m) for m in rng.integers(48, 80, n_notes)]
    onsets = [0.25 * int(t) for t in np.cumsum(rng.random(n_notes) < 0.7)]
    if cluster:
        midis[:6], onsets[:6] = [60, 62, 64, 65, 67, 69], [-1.0] * 6
    return make_piece(midis, onsets, hand=hand, piece_id=f"part{n_notes}")


@st.composite
def lockstep_sets(draw):
    """A note model, tie-heavy or not, and a set of hand parts of mixed
    lengths for it: empty, one-note and unplayable-cluster parts included."""
    order = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_note_model(rng, order=order, chord_constraint=draw(st.booleans()))
    if draw(st.booleans()):  # whole-number log scores: exact ties everywhere
        model.log_initial = [np.floor(t) for t in model.log_initial]
        model.log_transition = np.floor(model.log_transition)
        model.log_output = {h: [np.floor(t) for t in ts] for h, ts in model.log_output.items()}
    lengths = st.integers(0, 2) | st.integers(3, 40)
    specs = draw(st.lists(
        st.tuples(lengths, st.sampled_from(Hand), st.booleans()), min_size=1, max_size=7
    ))
    parts = [(_lockstep_part(rng, n, hand, cluster and n >= 6), hand) for n, hand, cluster in specs]
    return model, parts


@settings(max_examples=60, deadline=None)
@given(lockstep_sets())
def test_a_set_decodes_in_lock_step_as_each_part_alone(case):
    model, parts = case
    together = decode_parts(model, parts)
    assert len(together) == len(parts)
    for part, result in zip(parts, together):
        (alone,) = decode_parts(model, [part])
        if isinstance(alone, FingeringError):
            assert type(result) is type(alone) and str(result) == str(alone)
        else:
            (_, result), (_, alone) = result, alone
            assert result.fingers == alone.fingers
            assert result.log_score.hex() == alone.log_score.hex()
            assert result.crossing_fallback_used == alone.crossing_fallback_used


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 150), st.booleans())
def test_a_batched_read_adds_the_cells_of_the_per_note_loop_bitwise(seed, order, n, zero_alpha):
    # one gather per block of notes, summed in the per-note loop's order
    rng = np.random.default_rng(seed)
    alpha = tuple(0.0 if zero_alpha and lag == order else float(a)
                  for lag, a in enumerate(rng.uniform(0.1, 1.5, order), 1))
    model = random_note_model(rng, order=order, alpha=alpha)
    piece = _lockstep_part(rng, n, Hand.RH, cluster=n >= 6 and seed % 3 == 0)
    tables = note_hmm._part_tables(model, piece, Hand.RH)
    paths = rng.integers(1, 6, (8, n))
    result = decode_parts(model, [(piece, Hand.RH)])[0]
    if not isinstance(result, FingeringError):
        paths[0] = result[1].fingers
    expected = reference.path_scores(model, tables, paths)
    assert note_hmm._path_scores(model, tables, paths).tobytes() == expected.tobytes()


@st.composite
def step_table_sets(draw):
    """A note model of order 1 to 3, either representation, perhaps one
    zero ``alpha``, the constraint on or off, and the ``(hand, keys,
    onsets)`` of up to six parts of 0 to 40 notes, longest first; keys in
    a narrow range put rising, falling and repeated pitches in chords."""
    order = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = [float(a) for a in rng.uniform(0.1, 1.5, order)]
    if draw(st.booleans()):
        alpha[draw(st.integers(0, order - 1))] = 0.0
    model = random_note_model(
        rng, order=order, representation=draw(st.sampled_from(PitchRepresentation)),
        chord_constraint=draw(st.booleans()), alpha=tuple(alpha),
    )
    lengths = draw(st.lists(st.integers(0, 2) | st.integers(3, 40), min_size=1, max_size=6))
    parts = []
    for n in sorted(lengths, reverse=True):
        keys = rng.integers(35, 45, n)
        onsets = [0.25 * int(t) for t in np.cumsum(rng.random(n) < 0.6)]
        parts.append((draw(st.sampled_from(Hand)), keys, onsets))
    return model, parts


@settings(max_examples=80, deadline=None)
@given(step_table_sets())
def test_one_set_of_step_tables_reads_as_each_part_alone(case):
    model, parts = case
    slabs, starts, lengths, masks = note_hmm._step_tables(model, parts)
    assert lengths.tolist() == [len(keys) for _, keys, _ in parts]
    chords = set()
    for p, (hand, keys, onsets) in enumerate(parts):
        alone, allowed = reference.reference_step_tables(
            model, hand, keys, onsets, model.config.chord_constraint
        )
        assert [lag for lag, _ in slabs] == [lag for lag, _ in alone]
        for (lag, slab), (_, rows) in zip(slabs, alone):
            for n in range(lag, len(keys)):
                assert slab[starts[p] + n - lag].tobytes() == rows[n - lag].tobytes()
        for n, allow in enumerate(allowed):
            if allow is not None:
                chords.add(n)
                assert masks[n][p].tobytes() == allow.tobytes()
            elif n in masks:
                assert masks[n][p].all()
    assert set(masks) == chords  # masks only where some part plays a chord
    assert all(mask.shape == (len(parts), 5, 5) for mask in masks.values())


def test_a_set_runs_one_lock_step_dp_and_one_fallback_batch(monkeypatch):
    # the infeasible parts rerun together without the constraint, once
    model = train_model("note-hmm", NoteHmmConfig(order=2), load_corpus(SAMPLE_CORPUS))
    batches = lockstep_batches(monkeypatch)
    cluster = [60, 62, 64, 65, 67, 69]
    parts = [
        (make_piece(cluster, onsets=[0.0] * 6), Hand.RH),
        (make_piece([60, 64, 67]), Hand.RH),
        (make_piece(cluster + [72], onsets=[0.0] * 6 + [1.0], hand=Hand.LH), Hand.LH),
        (make_piece([]), Hand.LH),
    ]
    results = decode_parts(model, parts)
    assert batches == [3, 2]
    assert [r.crossing_fallback_used for _, r in results[:3]] == [True, False, True]
    assert isinstance(results[3], EmptyPiece)


def test_a_set_of_more_than_lockstep_part_notes_runs_in_several_dps(monkeypatch):
    # longest first, each DP takes parts while their notes fit, and at least one
    model = train_model("note-hmm", NoteHmmConfig(order=2), load_corpus(SAMPLE_CORPUS))
    rng = np.random.default_rng(5)
    parts = [(_lockstep_part(rng, n, hand, False), hand)
             for n, hand in ((5, Hand.RH), (30, Hand.LH), (1, Hand.LH), (40, Hand.RH), (27, Hand.RH))]
    alone = [decode_parts(model, [part])[0] for part in parts]
    monkeypatch.setattr(_tables, "LOCKSTEP", 32)
    batches = lockstep_batches(monkeypatch)
    together = decode_parts(model, parts)
    assert batches == [1, 1, 2, 1]  # 40 | 30 | 27 + 5 | 1
    for (_, result), (_, single) in zip(together, alone):
        assert result.fingers == single.fingers
        assert result.log_score.hex() == single.log_score.hex()


def test_a_log_probability_that_overflows_scores_as_zero_probability():
    # alpha 1.5 scales -1e308 past the float range, and two -1e308 terms add
    # past it: each decodes and scores as the -inf it overflows to, with no warning
    model = train_model("note-hmm", NoteHmmConfig(order=2, alpha=(1.5, 1.0)),
                        load_corpus(SAMPLE_CORPUS))
    rh = split_hands(load_piece(SAMPLE_CORPUS / "101-1_fingering.txt"))[0]
    results = []
    for value in (-1e308, -np.inf):
        edited = replace(model, log_transition=model.log_transition.copy(),
                         log_output={h: [t.copy() for t in ts] for h, ts in model.log_output.items()})
        edited.log_output[Hand.RH][0][0, 1] = value  # digit 1, then digit 2
        edited.log_output[Hand.RH][1][:, 2] = value  # digit 3 two notes on
        edited.log_transition[:, 2] = value
        result = decode_viterbi(edited, rh, Hand.RH)
        oracle = sequence_log_score(edited, rh, result.fingers, Hand.RH)
        results.append((result.fingers, result.log_score.hex(), oracle.hex()))
    assert results[0] == results[1] and results[0][1] == results[0][2]
