"""Acceptance criteria, one test per criterion.

Criteria 1-8 are self-contained and fast.  Criteria 9-11 need the public
fingering dataset: point PIG_DATASET_DIR at its FingeringFiles directory
(files named ``<piece>-<annotator>_fingering.txt``; pieces 001-030 are
the multi-annotator test split, the rest the training split).  Without
the dataset they are skipped, not failed.
"""

import math
import os
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import reference
from conftest import make_piece, random_chord_pair, random_note_model, random_piece
from pianofinger.agreement import random_model_match
from pianofinger.chord_hmm import (
    Chord,
    ChordComponent,
    ChordHmmParams,
    _keeps,
    enumerate_states,
    train_chord,
)
from pianofinger.dataset import load_corpus, load_ground_truth_sets
from pianofinger.errors import OutOfDomain
from pianofinger.eval_measures import (
    RecombinationConfig,
    match_rate_report,
    match_rates,
    recombination_match_rate,
)
from pianofinger.experiments import fit_sqrt, train_model
from pianofinger.note_hmm import (
    NEG_INF,
    NoteHmmConfig,
    Symmetry,
    _step_tables,
    decode_viterbi,
    sequence_log_score,
    train,
)
from pianofinger.pig_io import FingerLabel, Hand, midi_to_pitch
from pianofinger.pitch_space import (
    PitchRepresentation,
    key_indices,
    negation_permutation,
    reflection_permutation,
)

INTEGRAL = PitchRepresentation.INTEGRAL
LATTICE = PitchRepresentation.LATTICE

DATASET_DIR = os.environ.get("PIG_DATASET_DIR", "")
requires_dataset = pytest.mark.skipif(
    not DATASET_DIR or not Path(DATASET_DIR).is_dir(),
    reason="public dataset not present (set PIG_DATASET_DIR)",
)


def _report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS  ({text})")


def all_fingering_scores(model, piece, hand):
    """Score of every one of the 5**N fingerings, in lexicographic order,
    with the decoder's exact floating-point arithmetic."""
    keys = key_indices(n.midi for n in piece.notes)
    onsets = [n.onset for n in piece.notes]
    slabs, _, _, masks = _step_tables(model, [(hand, keys, onsets)])
    n = len(keys)
    m = model.config.order
    paths = np.array(list(product(range(5), repeat=n)), dtype=np.intp)
    scores = model.log_initial[0][0][paths[:, 0]].copy()
    for i in range(1, n):
        trans = model.log_initial[i] if i < m else model.log_transition
        ctx = np.zeros(len(paths), dtype=np.intp)
        for j in range(max(0, i - m), i):
            ctx = ctx * 5 + paths[:, j]
        scores = scores + trans[ctx, paths[:, i]]
        out = None
        for lag, slab in slabs:
            if lag <= i:
                term = slab[i - lag][paths[:, i - lag], paths[:, i]]
                out = term if out is None else out + term
        if out is not None:
            scores = scores + out
        if i in masks:
            scores[~masks[i][0][paths[:, i - 1], paths[:, i]]] = NEG_INF
    return paths, scores


def test_criterion_1_viterbi_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    checked = 0
    for trial in range(200):
        order = int(rng.integers(1, 4))
        representation = INTEGRAL if rng.random() < 0.5 else LATTICE
        constraint = bool(rng.random() < 0.5)
        model = random_note_model(
            rng, order=order, representation=representation,
            chord_constraint=constraint,
        )
        piece = random_piece(rng, n_max=6)
        hand = Hand(piece.notes[0].channel)
        result = decode_viterbi(model, piece, hand=hand)
        paths, scores = all_fingering_scores(model, piece, hand)
        best = int(np.argmax(scores))  # first maximum = lexicographic minimum
        assert result.log_score == scores[best]
        assert result.fingers == tuple(int(d) + 1 for d in paths[best])
        # the enumerator itself must agree with the public scorer
        for k in rng.integers(0, len(paths), size=3):
            fingers = [int(d) + 1 for d in paths[k]]
            assert scores[k] == sequence_log_score(model, piece, fingers, hand)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    _report(1, f"{checked} random instances, exact match, {elapsed:.1f}s")


def test_criterion_2_recombination_oracle():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    costs = [0.0, 0.5, 1.0, 2.0, math.inf]
    for trial in range(200):
        n = int(rng.integers(1, 9))
        n_g = int(rng.integers(1, 4))
        gts = [[int(d) for d in rng.integers(1, 4, size=n)] for _ in range(n_g)]
        est = [int(d) for d in rng.integers(1, 4, size=n)]
        config = RecombinationConfig(
            c_rec=float(rng.choice(costs)),
            c_rec_prime=float(rng.choice(costs)),
            c_sub=float(rng.choice([0.5, 1.0, 2.0, math.inf])),
        )
        m_rec, e_rec, path = recombination_match_rate(est, gts, config)
        cost, oracle_path = reference.brute_force_recombination(est, gts, config)
        assert e_rec == cost
        assert path == oracle_path
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"recombination sweep took {elapsed:.1f}s"
    _report(2, f"200 random instances incl. infinite costs, {elapsed:.1f}s")


def test_criterion_3_measure_ordering_and_limits():
    rng = np.random.default_rng(303)
    for trial in range(1000):
        n = int(rng.integers(1, 12))
        n_g = int(rng.integers(1, 5))
        gts = [[int(d) for d in rng.integers(1, 6, size=n)] for _ in range(n_g)]
        est = [int(d) for d in rng.integers(1, 6, size=n)]
        r = match_rate_report(est, gts)
        assert r.m_gen <= r.m_high + 1e-12
        assert r.m_high <= r.m_rec + 1e-12
        assert r.m_rec <= r.m_soft + 1e-12
        # limit: infinite switching cost recovers the highest match rate
        frozen = RecombinationConfig(c_rec=math.inf, c_rec_prime=math.inf)
        m_frozen, _, _ = recombination_match_rate(est, gts, frozen)
        assert m_frozen == match_rates("m_high", [(est, gts)])[0]
        # limit: one ground truth reduces to plain substitution counting
        m_single, _, path = recombination_match_rate(est, gts[:1])
        assert m_single == match_rates("m_high", [(est, gts[:1])])[0]
        assert path == (0,) * n
    _report(3, "ordering and limit identities on 1000 random instances")


def test_criterion_4_two_symbol_reference_model():
    omega = (1.0 + math.sqrt(2.0 * 0.68 - 1.0)) / 2.0
    assert omega == 0.8
    value = random_model_match(0.68, 3)
    assert abs(value - 0.52) < 1e-15  # analytic value 0.52, one-ulp evaluation
    rng = np.random.default_rng(404)
    for _ in range(100):
        m2 = float(rng.uniform(0.5, 1.0))
        assert abs(random_model_match(m2, 2) - m2) < 1e-12
    with pytest.raises(OutOfDomain):
        random_model_match(0.49, 2)
    _report(4, "omega solved exactly, 100 round trips within 1e-12")


def _random_annotated(rng, hand, n):
    midis = [int(m) for m in rng.integers(41, 100, size=n)]
    piece = make_piece(midis, onsets=[0.3 * i for i in range(n)], hand=hand)
    return piece.with_fingers(
        [FingerLabel(hand, int(d)) for d in rng.integers(1, 6, size=n)]
    )


def test_criterion_5_normalisation_and_symmetries():
    rng = np.random.default_rng(505)
    corpus = [
        _random_annotated(rng, Hand.RH if i % 2 else Hand.LH, int(rng.integers(3, 20)))
        for i in range(10)
    ]
    symmetry_sets = [
        frozenset(),
        frozenset({Symmetry.TIME_INVERSION}),
        frozenset({Symmetry.REFLECTION}),
        frozenset({Symmetry.TIME_INVERSION, Symmetry.REFLECTION}),
    ]
    for representation in (INTEGRAL, LATTICE):
        negperm = negation_permutation(representation, 15)
        reflperm = reflection_permutation(representation, 15)
        for symmetries in symmetry_sets:
            for order in (1, 2):
                model = train(
                    corpus,
                    NoteHmmConfig(
                        order=order,
                        pitch_representation=representation,
                        symmetries=symmetries,
                    ),
                )
                assert np.allclose(
                    np.exp(model.log_transition).sum(axis=1), 1.0, atol=1e-9
                )
                for k in range(order):
                    assert np.allclose(
                        np.exp(model.log_initial[k]).sum(axis=1), 1.0, atol=1e-9
                    )
                for hand in Hand:
                    for lag in range(order):
                        table = model.log_output[hand][lag]
                        assert np.allclose(
                            np.exp(table).sum(axis=2), 1.0, atol=1e-9
                        )
                        if Symmetry.TIME_INVERSION in symmetries:
                            partner = table.transpose(1, 0, 2)[:, :, negperm]
                            assert (table == partner).all()
                if Symmetry.REFLECTION in symmetries:
                    for lag in range(order):
                        assert (
                            model.log_output[Hand.LH][lag]
                            == model.log_output[Hand.RH][lag][:, :, reflperm]
                        ).all()
    chord_model = train_chord(corpus, ChordHmmParams())
    assert np.exp(chord_model.log_initial_digit).sum() == pytest.approx(1.0, abs=1e-9)
    for table in (chord_model.log_trans_across, chord_model.log_trans_within):
        assert np.allclose(np.exp(table).sum(axis=1), 1.0, atol=1e-9)
    for tables in (chord_model.log_out_across, chord_model.log_out_within):
        for hand in Hand:
            assert np.allclose(np.exp(tables[hand]).sum(axis=2), 1.0, atol=1e-9)
    _report(5, "all distributions normalised; symmetry ties hold cellwise")


def test_criterion_6_octave_transposition_invariance():
    rng = np.random.default_rng(606)
    from dataclasses import replace

    for trial in range(50):
        representation = INTEGRAL if rng.random() < 0.5 else LATTICE
        model = random_note_model(
            rng, order=int(rng.integers(1, 4)), representation=representation
        )
        piece = random_piece(rng, n_max=10, midi_lo=40, midi_hi=90)
        hand = Hand(piece.notes[0].channel)
        shifted = replace(
            piece,
            notes=tuple(
                replace(n, midi=n.midi + 12, pitch=midi_to_pitch(n.midi + 12))
                for n in piece.notes
            ),
        )
        assert (
            decode_viterbi(model, piece, hand=hand).fingers
            == decode_viterbi(model, shifted, hand=hand).fingers
        )
    _report(6, "50 random pieces decode identically one octave up")


def test_criterion_7_sqrt_law_fit():
    points = [(100, 0.59), (400, 0.615), (2500, 0.63)]
    a, b = fit_sqrt(points)
    assert abs(a - 0.64) < 1e-9 and abs(b - 0.5) < 1e-9
    rng = np.random.default_rng(707)
    for _ in range(100):
        a_true = float(rng.uniform(0.05, 0.95))
        b_true = float(rng.uniform(0.0, 3.0))
        ns = rng.choice(np.arange(5, 10**6), size=int(rng.integers(2, 9)), replace=False)
        fitted_a, fitted_b = fit_sqrt(
            [(int(n), a_true - b_true / math.sqrt(n)) for n in ns]
        )
        assert abs(fitted_a - a_true) < 1e-9
        assert abs(fitted_b - b_true) < 1e-9
    _report(7, "coefficients recovered to 1e-9 on 100 fuzzed point sets")


def test_criterion_8_chord_state_combinatorics():
    for k in range(1, 6):
        chord = Chord(
            onset=0.0,
            components=tuple(
                ChordComponent(midi=50 + 3 * i, note_ids=(i,), sustained=False)
                for i in range(k)
            ),
        )
        for hand in Hand:
            assert len(enumerate_states(chord, hand)) == math.comb(5, k)
    rng = np.random.default_rng(808)
    for _ in range(100):
        prev, chord = random_chord_pair(rng)
        for hand in Hand:
            keep = _keeps(reference.chord_columns([prev, chord]), 1, hand)
            expected = reference.keeps(prev, chord, hand)
            assert (keep is None) == (expected is None)
            assert keep is None or keep.tolist() == expected.tolist()
    _report(8, "state counts C(5,K) and the sustain filter _keeps verified by enumeration")


# --- dataset-gated benchmarks -------------------------------------------------

TEST_SPLIT_MAX_ID = 30

REFERENCE_ROWS = {
    # measure values in percent: (m_gen, m_high, m_soft, m_rec)
    "note-1": (61.7, 68.3, 82.8, 74.0),
    "note-2": (64.3, 70.8, 85.3, 77.6),
    "note-3": (64.5, 71.0, 85.5, 77.8),
    "chord": (61.2, 67.7, 81.7, 73.8),
    "human": (71.4, 79.1, 90.8, 84.3),
}


def _split_dataset():
    train_pieces = [
        p for p in load_corpus(DATASET_DIR) if int(p.piece_id) > TEST_SPLIT_MAX_ID
    ]
    test_sets = [
        s
        for s in load_ground_truth_sets(DATASET_DIR, on_error="skip")
        if int(s.piece_id) <= TEST_SPLIT_MAX_ID
    ]
    return train_pieces, test_sets


def _macro_measures(model, test_sets):
    reports = []
    for gt_set in test_sets:
        try:
            from pianofinger.estimate import estimate_piece

            signed, _ = estimate_piece(model, gt_set.piece)
        except Exception as exc:  # hand overflow etc: excluded, reported
            print(f"excluded {gt_set.piece_id}: {exc}")
            continue
        reports.append(match_rate_report(signed, gt_set.signed_fingerings))
    n = len(reports)
    return tuple(
        100.0 * sum(getattr(r, m) for r in reports) / n
        for m in ("m_gen", "m_high", "m_soft", "m_rec")
    )


@requires_dataset
def test_criterion_9_benchmark_rows():
    train_pieces, test_sets = _split_dataset()
    failures = []
    for order in (1, 2, 3):
        config = NoteHmmConfig(order=order)
        model = train_model("note-hmm", config, train_pieces)
        got = _macro_measures(model, test_sets)
        want = REFERENCE_ROWS[f"note-{order}"]
        print(f"note-{order}: got {got} want {want}")
        for g, w in zip(got, want):
            if abs(g - w) > 2.0:
                failures.append(f"note-{order}: {got} vs {want}")
                break
    chord_model = train_model("chord-hmm", ChordHmmParams(), train_pieces)
    got = _macro_measures(chord_model, test_sets)
    want = REFERENCE_ROWS["chord"]
    print(f"chord: got {got} want {want}")
    if any(abs(g - w) > 2.5 for g, w in zip(got, want)):
        failures.append(f"chord: {got} vs {want}")
    assert not failures, failures
    _report(9, "benchmark rows within tolerance")


@requires_dataset
def test_criterion_10_human_reference_row():
    _, test_sets = _split_dataset()
    per_piece = []
    for gt_set in test_sets:
        if len(gt_set) < 2:
            continue
        rows = []
        for i, est in enumerate(gt_set.signed_fingerings):
            others = [s for j, s in enumerate(gt_set.signed_fingerings) if j != i]
            r = match_rate_report(est, others)
            rows.append((r.m_gen, r.m_high, r.m_soft, r.m_rec))
        per_piece.append(tuple(sum(c) / len(c) for c in zip(*rows)))
    got = tuple(100.0 * sum(c) / len(c) for c in zip(*per_piece))
    want = REFERENCE_ROWS["human"]
    print(f"human: got {got} want {want}")
    assert all(abs(g - w) <= 0.5 for g, w in zip(got, want)), (got, want)
    _report(10, "human leave-one-out row within 0.5 points")


@requires_dataset
def test_criterion_11_architecture_ablation_direction():
    train_pieces, test_sets = _split_dataset()
    m_gen = {}
    for representation in (LATTICE, INTEGRAL):
        for constraint in (True, False):
            config = NoteHmmConfig(
                order=1,
                pitch_representation=representation,
                alpha=(1.0,),
                chord_constraint=constraint,
            )
            model = train_model("note-hmm", config, train_pieces)
            m_gen[(representation, constraint)] = _macro_measures(model, test_sets)[0]
    print(f"ablation M_gen: {m_gen}")
    slack = 0.5
    for constraint in (True, False):
        assert (
            m_gen[(LATTICE, constraint)] >= m_gen[(INTEGRAL, constraint)] - slack
        ), m_gen
    for representation in (LATTICE, INTEGRAL):
        assert (
            m_gen[(representation, True)] >= m_gen[(representation, False)] - slack
        ), m_gen
    _report(11, "lattice >= integral and constraint-on >= off in M_gen")
