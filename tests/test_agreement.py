"""Annotator agreement statistics and the power-law fit."""

import math
from itertools import combinations

import pytest

from conftest import make_piece
from pianofinger.agreement import MultiplicityUnit, analyze_sets, fit_power, random_model_match
from pianofinger.errors import (
    DegenerateFit,
    InsufficientAnnotators,
    LengthMismatch,
    OutOfDomain,
)
from pianofinger.pig_io import FingerLabel, GroundTruthSet, Hand, Note, Piece, midi_to_pitch


def gt_set(finger_rows, hand=Hand.RH, piece_id="p"):
    """Ground-truth set over a shared synthetic piece."""
    n = len(finger_rows[0])
    pieces = [
        make_piece(
            list(range(60, 60 + n)),
            hand=hand,
            digits=row,
            piece_id=piece_id,
            annotator_id=str(i),
        )
        for i, row in enumerate(finger_rows)
    ]
    return GroundTruthSet.from_pieces(pieces)


def label_set(label_rows):
    """Ground-truth set holding the signed label rows as given, over a
    synthetic piece with one note per label."""
    piece = make_piece(list(range(60, 60 + len(label_rows[0]))))
    return GroundTruthSet(piece=piece, signed_fingerings=tuple(map(tuple, label_rows)))


def test_multi_match_rate_examples():
    rates = analyze_sets([gt_set([[1, 2], [1, 3], [1, 2]])]).match_rates
    assert rates[2] == pytest.approx(2.0 / 3.0)
    assert rates[3] == 0.5
    identical = analyze_sets([gt_set([[1, 2, 3]] * 4)]).match_rates
    for j in (2, 3, 4):
        assert identical[j] == 1.0


def test_multi_match_rate_non_increasing(rng):
    for _ in range(50):
        n = int(rng.integers(1, 15))
        n_g = int(rng.integers(2, 6))
        gts = [[int(d) for d in rng.integers(1, 4, size=n)] for _ in range(n_g)]
        rates = analyze_sets([gt_set(gts)]).match_rates
        values = [rates[j] for j in range(2, n_g + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_multi_match_rate_domain():
    with pytest.raises(InsufficientAnnotators):
        analyze_sets([gt_set([[1, 2]])])
    with pytest.raises(LengthMismatch):
        analyze_sets([gt_set([[], []])])


def _agreeing_subsets(gts, j) -> int:
    """(note, j-subset of annotators) combinations on which the whole
    subset agrees, by enumerating every subset."""
    return sum(
        len({gts[g][i] for g in subset}) == 1
        for subset in combinations(range(len(gts)), j)
        for i in range(len(gts[0]))
    )


def test_multi_match_rate_is_the_ratio_of_subset_counts(rng):
    for _ in range(200):
        n = int(rng.integers(1, 41))
        n_g = int(rng.integers(2, 8))
        labels = [-5, -2, 1, 2, 3, 4, 5][: int(rng.integers(1, 8))]
        gts = [[labels[k] for k in rng.integers(0, len(labels), size=n)] for _ in range(n_g)]
        rates = analyze_sets([label_set(gts)]).match_rates
        for j in range(2, n_g + 1):
            expected = _agreeing_subsets(gts, j) / (n * math.comb(n_g, j))
            assert rates[j] == expected


def test_random_model_reference_point():
    value = random_model_match(0.68, 3)
    omega = (1.0 + math.sqrt(2.0 * 0.68 - 1.0)) / 2.0
    assert omega == 0.8
    assert value == pytest.approx(0.52, abs=1e-15)


def test_random_model_limits():
    assert random_model_match(1.0, 7) == 1.0
    for j in (2, 3, 6):
        assert random_model_match(0.5, j) == pytest.approx(2.0 ** (1 - j), abs=1e-15)


def test_random_model_round_trip(rng):
    for _ in range(100):
        m2 = float(rng.uniform(0.5, 1.0))
        assert abs(random_model_match(m2, 2) - m2) < 1e-12


def test_random_model_domain():
    with pytest.raises(OutOfDomain):
        random_model_match(0.49, 3)
    with pytest.raises(OutOfDomain):
        random_model_match(1.01, 3)


def test_multiplicity_note_unit():
    s = gt_set([[1, 2], [2, 2]])
    hist = analyze_sets([s]).note_multiplicity
    assert hist == {1: 0.5, 2: 0.5}
    identical = gt_set([[1, 2, 3], [1, 2, 3]])
    assert analyze_sets([identical]).note_multiplicity == {1: 1.0}


def test_multiplicity_pair_unit():
    s = gt_set([[1, 2, 3], [1, 3, 3], [1, 2, 3]])
    hist = analyze_sets([s]).pair_multiplicity
    # pairs (1,2)/(1,3)/(1,2) -> 2 choices; (2,3)/(3,3)/(2,3) -> 2 choices
    assert hist == {2: 1.0}


def test_multiplicity_histogram_sums_to_one(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        rows = [
            [int(d) for d in rng.integers(1, 6, size=n)]
            for _ in range(int(rng.integers(2, 5)))
        ]
        report = analyze_sets([gt_set(rows)])
        for hist in (report.note_multiplicity, report.pair_multiplicity):
            assert sum(hist.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(v >= 0 for v in hist.values())


def test_multiplicity_needs_annotators():
    with pytest.raises(InsufficientAnnotators):
        analyze_sets([gt_set([[1, 2]])])


def test_fit_power_recovers_exact_law():
    points = [(j, 0.8 * j**-0.3) for j in (2, 3, 4, 5, 6)]
    c, gamma = fit_power(points)
    assert abs(c - 0.8) < 1e-9 and abs(gamma - 0.3) < 1e-9


def test_fit_power_constant_points():
    _, gamma = fit_power([(2, 0.7), (3, 0.7), (4, 0.7)])
    assert abs(gamma) < 1e-9


def test_fit_power_two_points_interpolates():
    c, gamma = fit_power([(2, 0.9), (4, 0.6)])
    assert 0.9 == pytest.approx(c * 2**-gamma, rel=1e-9)
    assert 0.6 == pytest.approx(c * 4**-gamma, rel=1e-9)


def test_fit_power_degenerate():
    with pytest.raises(DegenerateFit):
        fit_power([(2, 0.5)])
    with pytest.raises(DegenerateFit):
        fit_power([(2, 0.5), (2, 0.6)])
    with pytest.raises(DegenerateFit):
        fit_power([(2, 0.5), (3, -0.1)])


def test_analyze_sets_end_to_end(rng):
    sets = []
    for p in range(4):
        n = int(rng.integers(4, 9))
        base = [int(d) for d in rng.integers(1, 6, size=n)]
        rows = []
        for _ in range(int(rng.integers(2, 5))):
            row = list(base)
            flip = int(rng.integers(0, n))
            row[flip] = int(rng.integers(1, 6))  # mostly-agreeing annotators
            rows.append(row)
        sets.append(gt_set(rows, piece_id=f"p{p}"))
    report = analyze_sets(sets)
    js = sorted(report.match_rates)
    assert js[0] == 2
    assert set(report.random_reference) == set(report.match_rates)
    assert abs(report.random_reference[2] - report.match_rates[2]) < 1e-12
    assert sum(report.note_multiplicity.values()) == pytest.approx(1.0, abs=1e-9)
    values = [report.match_rates[j] for j in js]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def _choice_count_histogram(gt_sets, unit) -> dict:
    """Pooled counts of notes (or same-hand note pairs) by their number of
    distinct choices, as ratios of whole numbers."""
    counts: dict = {}
    for s in gt_sets:
        rows = s.signed_fingerings
        if unit is MultiplicityUnit.NOTE:
            units = [[(i,) for i in range(len(s.piece))]]
        else:
            hands = {}
            for i, note in enumerate(s.piece.notes):
                hands.setdefault(note.channel, []).append(i)
            units = [list(zip(p, p[1:])) for p in hands.values()]
        for indices in (u for hand in units for u in hand):
            k = len({tuple(row[i] for i in indices) for row in rows})
            counts[k] = counts.get(k, 0) + 1
    total = sum(counts.values())
    return {k: counts[k] / total for k in sorted(counts)}


def test_analyze_sets_pools_raw_counts(rng):
    sets = []
    for p in range(30):
        n = int(rng.integers(1, 60))
        n_g = int(rng.integers(2, 7))
        rows = [[int(d) for d in rng.integers(1, 4, size=n)] for _ in range(n_g)]
        hands = [Hand(int(c)) for c in rng.integers(0, 2, size=n)]
        pieces = [
            Piece(
                tuple(
                    Note(i, 0.5 * i, 0.5 * i + 0.4, midi_to_pitch(40 + i), 40 + i, 64, 64,
                         hand.channel, FingerLabel(hand, d))
                    for i, (hand, d) in enumerate(zip(hands, row))
                ),
                f"p{p}",
                str(a),
            )
            for a, row in enumerate(rows)
        ]
        sets.append(GroundTruthSet.from_pieces(pieces))
    # 1 of 2 and 13 of 23 notes agree: pooling the proportions 1/2 and
    # 13/23 back into counts gives 14/25 plus a rounding error
    small = [gt_set([[1, 1], [1, 2]], piece_id="a"),
             gt_set([[1] * 23, [1] * 13 + [2] * 10], piece_id="b")]
    assert analyze_sets(small).note_multiplicity == {1: 14 / 25, 2: 11 / 25}
    report = analyze_sets(sets)
    assert report.note_multiplicity == _choice_count_histogram(sets, MultiplicityUnit.NOTE)
    assert report.pair_multiplicity == _choice_count_histogram(
        sets, MultiplicityUnit.NOTE_PAIR
    )
    for j, rate in report.match_rates.items():
        values = [
            _agreeing_subsets(s.signed_fingerings, j) / (len(s.piece) * math.comb(len(s), j))
            for s in sets
            if len(s) >= j
        ]
        assert rate == sum(values) / len(values)


def test_analyze_sets_low_agreement_has_no_random_reference():
    disjoint = gt_set([[1, 2, 3, 4], [2, 3, 4, 5], [3, 4, 5, 1]])
    report = analyze_sets([disjoint])
    assert all(math.isnan(v) for v in report.random_reference.values())
