"""Fingering-file parsing, serialisation and hand splitting."""

import pytest

from pianofinger.errors import (
    AlignmentMismatch,
    InvalidFinger,
    InvalidPitchToken,
    LengthMismatch,
    MalformedLine,
    MissingFinger,
    NonMonotoneOnsets,
)
from pianofinger.pig_io import (
    FingerLabel,
    GroundTruthSet,
    Hand,
    Piece,
    midi_to_pitch,
    parse_fingering_file,
    pitch_to_midi,
    resolve_substitution,
    serialize_fingering_file,
    split_hands,
)

SIMPLE = """\
//Version: example
0  0.000000  0.500000  C4  80  80  0  1
1  0.500000  1.000000  E4  80  80  0  2

3  1.0  1.5  G3  70  70  1  -5
"""


def test_parse_basic_fields():
    piece = parse_fingering_file(SIMPLE)
    assert len(piece) == 3
    first = piece.notes[0]
    assert first.note_id == 0
    assert first.onset == 0.0 and first.offset == 0.5
    assert first.pitch == "C4" and first.midi == 60
    assert first.finger == FingerLabel(Hand.RH, 1)
    assert piece.notes[2].finger == FingerLabel(Hand.LH, 5)
    assert piece.notes[2].channel == 1


def test_parse_substitution_token():
    line = "0 0.0 0.5 C4 80 80 0 1_2"
    piece = parse_fingering_file(line)
    assert piece.notes[0].finger == FingerLabel(Hand.RH, 1)


@pytest.mark.parametrize(
    "token,expected",
    [
        ("1_2", (Hand.RH, 1)),
        ("-2_-1", (Hand.LH, 2)),
        ("4", (Hand.RH, 4)),
        ("-5", (Hand.LH, 5)),
    ],
)
def test_resolve_substitution(token, expected):
    label = resolve_substitution(token)
    assert (label.hand, label.digit) == expected


@pytest.mark.parametrize("token", ["0", "6", "-6", "1_-2", "1_2_3", "x", "_2"])
def test_resolve_substitution_rejects(token):
    with pytest.raises(InvalidFinger):
        resolve_substitution(token)


@pytest.mark.parametrize(
    "token,midi",
    [
        ("C4", 60),
        ("F#4", 66),
        ("Bb3", 58),
        ("B#3", 60),
        ("Cb4", 59),
        ("Cx4", 62),
        ("C##4", 62),
        ("Dbb4", 60),
        ("A0", 21),
        ("C8", 108),
        ("60", 60),
    ],
)
def test_pitch_tokens(token, midi):
    assert pitch_to_midi(token) == midi


@pytest.mark.parametrize("token", ["H4", "C", "C#b4", "C-1", "G9", "20", "109", ""])
def test_pitch_token_rejects(token):
    with pytest.raises(InvalidPitchToken):
        pitch_to_midi(token)


def test_midi_to_pitch_round_trip():
    for midi in range(21, 109):
        assert pitch_to_midi(midi_to_pitch(midi)) == midi


def test_parse_errors():
    with pytest.raises(MalformedLine):
        parse_fingering_file("0 0.0 0.5 C4 80 80\n")  # 6 fields
    for bad_times in ("x 0.5", "nan 0.5", "0.0 nan", "0.0 inf", "nan inf", "-inf 0.5",
                      "-0.5 0.5", "-1.0 -0.5"):
        with pytest.raises(MalformedLine):
            parse_fingering_file(f"0 {bad_times} C4 80 80 0 1\n")
    with pytest.raises(MalformedLine):
        parse_fingering_file("0 0.6 0.5 C4 80 80 0 1\n")  # offset before onset
    with pytest.raises(MalformedLine):
        parse_fingering_file("0 0.0 0.5 C4 200 80 0 1\n")
    with pytest.raises(MalformedLine):
        parse_fingering_file("0 0.0 0.5 C4 80 80 2 1\n")
    with pytest.raises(InvalidPitchToken):
        parse_fingering_file("0 0.0 0.5 Z4 80 80 0 1\n")
    with pytest.raises(InvalidFinger):
        parse_fingering_file("0 0.0 0.5 C4 80 80 0 0\n")
    with pytest.raises(NonMonotoneOnsets):
        parse_fingering_file(
            "0 1.0 1.5 C4 80 80 0 1\n1 0.5 1.0 D4 80 80 0 2\n"
        )


def test_parse_allows_missing_finger_column():
    piece = parse_fingering_file("0 0.0 0.5 C4 80 80 0\n")
    assert piece.notes[0].finger is None


def test_canonical_tie_order_ascending_pitch():
    text = "0 0.0 0.5 E4 80 80 0 3\n1 0.0 0.5 C4 80 80 0 1\n"
    piece = parse_fingering_file(text)
    assert [n.pitch for n in piece.notes] == ["C4", "E4"]


def test_serialize_round_trip():
    piece = parse_fingering_file(SIMPLE)
    text = serialize_fingering_file(piece)
    again = parse_fingering_file(text)
    assert again.notes == piece.notes
    # signed rendering and tab separation
    assert "\t-5" in text
    assert text.count("\t") == 7 * len(piece)


def test_serialize_parse_idempotent_on_seventh_decimal():
    text = "0 0.1234567 0.5 C4 80 80 0 1\n"
    once = parse_fingering_file(text)
    twice = parse_fingering_file(serialize_fingering_file(once))
    assert twice.notes == once.notes


def test_serialize_empty_piece():
    assert serialize_fingering_file(Piece(notes=())) == ""


def test_parse_serialize_parse_idempotent_on_random_pieces(rng):
    for _ in range(50):
        n = int(rng.integers(1, 20))
        onset = 0.0
        lines = []
        for i in range(n):
            onset += float(rng.choice([0.0, 0.0137929, 0.25]))
            midi = int(rng.integers(21, 109))
            finger = int(rng.integers(1, 6)) * int(rng.choice([-1, 1]))
            channel = 1 if finger < 0 else 0
            lines.append(
                f"{i} {onset:.7f} {onset + 0.31:.7f} {midi} "
                f"{int(rng.integers(0, 128))} 64 {channel} {finger}"
            )
        text = "".join(line + "\n" for line in lines)
        once = parse_fingering_file(text)
        text_once = serialize_fingering_file(once)
        twice = parse_fingering_file(text_once)
        assert twice.notes == once.notes
        assert serialize_fingering_file(twice) == text_once


def test_serialize_requires_fingers():
    piece = parse_fingering_file("0 0.0 0.5 C4 80 80 0\n")
    with pytest.raises(MissingFinger):
        serialize_fingering_file(piece)


def test_split_hands_partition():
    text = (
        "0 0.0 0.5 C4 80 80 0 1\n"
        "1 0.5 1.0 C3 80 80 1 -1\n"
        "2 1.0 1.5 D4 80 80 0 2\n"
    )
    rh, lh = split_hands(parse_fingering_file(text))
    assert [n.pitch for n in rh.notes] == ["C4", "D4"]
    assert [n.pitch for n in lh.notes] == ["C3"]


def test_split_hands_all_one_hand():
    rh, lh = split_hands(parse_fingering_file("0 0.0 0.5 C4 80 80 0 1\n"))
    assert len(rh) == 1 and len(lh) == 0


def test_ground_truth_set_rejects_unequal_lengths():
    a = parse_fingering_file("0 0.0 0.5 C4 80 80 0 1\n", annotator_id="a")
    b = parse_fingering_file(
        "0 0.0 0.5 C4 80 80 0 1\n1 0.5 1.0 D4 80 80 0 2\n", annotator_id="b"
    )
    with pytest.raises(LengthMismatch):
        GroundTruthSet.from_pieces([a, b])


def test_ground_truth_set_rejects_different_content():
    a = parse_fingering_file("0 0.0 0.5 C4 80 80 0 1\n")
    b = parse_fingering_file("0 0.0 0.5 D4 80 80 0 1\n")
    with pytest.raises(AlignmentMismatch):
        GroundTruthSet.from_pieces([a, b])


def test_ground_truth_set_signed_fingerings():
    a = parse_fingering_file("0 0.0 0.5 C4 80 80 0 1\n", annotator_id="a")
    b = parse_fingering_file("0 0.0 0.5 C4 80 80 0 2\n", annotator_id="b")
    gt = GroundTruthSet.from_pieces([a, b])
    assert gt.signed_fingerings == ((1,), (2,))
    assert gt.annotator_ids == ("a", "b")
