"""Fingering-file parsing, serialisation and hand splitting."""

import dataclasses
import numbers
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from pianofinger._tables import check_digits
from pianofinger.errors import (
    AlignmentMismatch,
    FingeringError,
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
    Note,
    Piece,
    check_alignment,
    hand_positions,
    midi_to_pitch,
    parse_fingering_file,
    pitch_to_midi,
    resolve_substitution,
    serialize_fingering_file,
    split_hands,
)

DATA = Path(__file__).resolve().parents[1] / "data"

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


@pytest.mark.parametrize(
    "token",
    ["H4", "C", "C#b4", "C-1", "G9", "20", "109", "", "²", "6²", "①",
     pytest.param("6" * 5000, id="5000-digits")],
)
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


def test_take_gives_the_constructors_piece():
    pieces = [parse_fingering_file(path.read_text(), path.name, "1")
              for path in sorted((DATA / "sample_corpus").glob("*.txt"))[:3]]
    # a note id past int64 is held as a Python int, in an object column
    pieces.append(parse_fingering_file(f"0 0.0 0.5 C4 80 80 0 1\n{2**70} 0.5 1.0 D4 80 80 1 -2\n"))
    pieces.append(parse_fingering_file("0 0.0 0.5 C4 80 80 0\n"))  # unannotated
    for piece in pieces:
        n = len(piece)
        for index in (*hand_positions(piece).values(), np.arange(n)[::-1], np.arange(0),
                      np.arange(n) % 2 == 0, slice(1, None)):
            taken = piece.take(index)
            columns = {name: getattr(piece, name)[index] for name in vars(taken)
                       if name not in ("piece_id", "annotator_id")}
            built = Piece(None, piece.piece_id, piece.annotator_id, **columns)
            assert list(vars(taken)) == list(vars(built))
            assert [(k, v.dtype) for k, v in vars(taken).items() if isinstance(v, np.ndarray)] \
                == [(k, v.dtype) for k, v in vars(built).items() if isinstance(v, np.ndarray)]
            assert taken == built and repr(taken) == repr(built)
            assert taken.notes == built.notes and taken.fingers == built.fingers

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


@pytest.mark.parametrize(
    "bad_line,error,message",
    [
        ("2 1.0 1.5 Q4 80 80 0 1", InvalidPitchToken, "bad pitch token 'Q4'"),
        ("2 1.0 1.5 ² 80 80 0 1", InvalidPitchToken, "bad pitch token '²'"),
        ("2 1.0 1.5 C4 80 80 0 6", InvalidFinger, "finger 6 outside 1..5 in '6'"),
        ("2 1.0 1.5 C4 80 80 0 1_-2", InvalidFinger, "substitution '1_-2' changes hands"),
    ],
)
def test_token_errors_name_their_line(bad_line, error, message):
    text = f"0 0.0 0.5 C4 80 80 0 1\n//comment\n\n1 0.5 1.0 D4 80 80 0 2\n{bad_line}\n"
    with pytest.raises(error) as parsed:
        parse_fingering_file(text)
    assert str(parsed.value) == f"line 5: {message}"
    # called directly, the token functions keep their line-free messages
    token = bad_line.split()[3 if error is InvalidPitchToken else 7]
    resolve = pitch_to_midi if error is InvalidPitchToken else resolve_substitution
    with pytest.raises(error) as direct:
        resolve(token)
    assert str(direct.value) == message


def test_parsed_notes_keep_the_note_contract():
    piece = parse_fingering_file(SIMPLE)
    for n in piece.notes:
        built = Note(**{f.name: getattr(n, f.name) for f in dataclasses.fields(Note)})
        assert type(n) is Note
        assert n == built and hash(n) == hash(built)
        assert vars(n) == vars(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            n.onset = 9.0
        moved = dataclasses.replace(n, onset=9.0)
        assert moved.onset == 9.0 and n.onset != 9.0 and moved.pitch == n.pitch


@pytest.mark.parametrize("finger", [FingerLabel(h, d) for h in Hand for d in (1, 5)] + [None])
def test_with_fingers_is_replace_of_every_note(finger):
    piece = parse_fingering_file(SIMPLE)
    relabelled = piece.with_fingers([finger] * len(piece))
    replaced = tuple(dataclasses.replace(n, finger=finger) for n in piece.notes)
    assert relabelled.notes == replaced and relabelled.fingers == (finger,) * len(piece)
    assert [vars(n) for n in relabelled.notes] == [vars(n) for n in replaced]
    assert repr(relabelled) == repr(Piece(notes=replaced))
    assert relabelled == Piece(notes=replaced)


@pytest.mark.parametrize("value", [sign * digit for sign in (1, -1) for digit in range(1, 6)])
def test_from_signed_reads_the_label_it_names(value):
    hand = Hand.RH if value > 0 else Hand.LH
    label = FingerLabel.from_signed(value)
    assert label == FingerLabel(hand, abs(value)) and hash(label) == hash(FingerLabel(hand, abs(value)))
    assert label.signed == value


@pytest.mark.parametrize("value, message", [
    (0, "finger 0 is invalid"),
    (6, "finger digit must be 1..5, got 6"),
    (-6, "finger digit must be 1..5, got 6"),
])
def test_from_signed_refuses_what_names_no_finger(value, message):
    with pytest.raises(InvalidFinger) as info:
        FingerLabel.from_signed(value)
    assert str(info.value) == message


@pytest.mark.parametrize("hand, digit", [
    (Hand.RH, 2.0), (Hand.RH, True), (Hand.LH, np.float64(3)), ("rh", 2), (0, 2), (None, 1),
])
def test_a_label_of_no_hand_or_no_integer_digit_is_refused(hand, digit):
    # such a label would serialise as '2.0' or 'True', which no parse reads back
    with pytest.raises(InvalidFinger):
        FingerLabel(hand, digit)


@pytest.mark.parametrize("value", [True, 2.0, -2.0, np.float64(1)])
def test_from_signed_refuses_what_is_not_an_integer(value):
    with pytest.raises(InvalidFinger):
        FingerLabel.from_signed(value)


class _RegisteredIntegral:
    """A ``numbers.Integral`` by registration only: neither an int nor a
    numpy integer, though it compares as the value it holds."""

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return self.value < other

    def __gt__(self, other):
        return self.value > other

    def __repr__(self):
        return f"_RegisteredIntegral({self.value})"


numbers.Integral.register(_RegisteredIntegral)


def test_a_registered_integral_is_no_digit_to_a_label_or_a_model():
    digit = _RegisteredIntegral(1)
    assert isinstance(digit, numbers.Integral) and 0 < digit < 6
    with pytest.raises(InvalidFinger, match=r"^finger digit must be 1\.\.5, got "):
        FingerLabel(Hand.RH, digit)
    with pytest.raises(ValueError, match=r"^finger digit _RegisteredIntegral\(1\) is not an integer"):
        check_digits([digit])


def test_numpy_integer_digits_make_the_labels_they_name():
    assert FingerLabel(Hand.RH, np.int64(3)) == FingerLabel(Hand.RH, 3)
    assert FingerLabel.from_signed(np.int8(-4)) == FingerLabel.from_signed(-4)
    piece = parse_fingering_file(SIMPLE)
    labels = [FingerLabel(Hand(n.channel), np.int64(n.finger.digit)) for n in piece.notes]
    assert parse_fingering_file(serialize_fingering_file(piece.with_fingers(labels))) == piece


@pytest.mark.parametrize(
    "path",
    sorted((DATA / "sample_corpus").glob("*.txt")) + [DATA / "golden_estimate.txt"],
    ids=lambda p: p.name,
)
def test_parse_serialize_is_byte_identical_on_data_files(path):
    text = path.read_text(encoding="utf-8")
    notes_only = "".join(
        line + "\n" for line in text.splitlines() if not line.startswith("//")
    )
    piece = parse_fingering_file(text)
    assert serialize_fingering_file(piece) == notes_only
    # the notes of one pitch token share one str
    assert len(set(map(id, piece.pitches))) == len(set(piece.pitches)) < len(piece)


def test_canonical_order_keeps_file_order_for_equal_onset_and_pitch():
    text = (
        "0 0.0 0.5 C4 80 80 0 1\n"
        "1 0.5 1.0 G4 80 80 0 4\n"
        "2 0.5 1.0 E4 80 80 0 3\n"
        "3 0.5 1.0 E4 80 80 0 2\n"
        "4 1.0 1.5 C4 80 80 0 1\n"
    )
    piece = parse_fingering_file(text)
    assert [n.note_id for n in piece.notes] == [0, 2, 3, 1, 4]


def test_non_monotone_onsets_yield_to_a_later_malformed_line():
    text = "0 1.0 1.5 C4 80 80 0 1\n1 0.5 1.0 D4 80 80 0 2\n2 x 1.0 D4 80 80 0 2\n"
    with pytest.raises(MalformedLine) as info:
        parse_fingering_file(text)
    assert info.value.line_no == 3
    # the message names the first decrease
    with pytest.raises(NonMonotoneOnsets, match="^line 2: onset 0.5 of note 1 precedes 1.0$"):
        parse_fingering_file(text.replace(" x ", " 0.2 "))


# --- properties ------------------------------------------------------------

_LETTER_SEMITONE = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
_ACCIDENTAL_SHIFT = {"": 0, "#": 1, "##": 2, "x": 2, "b": -1, "bb": -2}

spelled_pitches = st.tuples(
    st.sampled_from(sorted(_LETTER_SEMITONE)),
    st.sampled_from(sorted(_ACCIDENTAL_SHIFT)),
    st.integers(0, 8),
).filter(
    lambda t: 21 <= 12 * (t[2] + 1) + _LETTER_SEMITONE[t[0]] + _ACCIDENTAL_SHIFT[t[1]] <= 108
).map(lambda t: f"{t[0]}{t[1]}{t[2]}")
pitch_tokens = st.one_of(spelled_pitches, st.integers(21, 108).map(str))
signed_digits = st.integers(1, 5).flatmap(lambda d: st.sampled_from([d, -d]))
finger_tokens = st.one_of(
    signed_digits.map(str),
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.booleans()).map(
        lambda t: f"{t[0]}_{t[1]}" if t[2] else f"-{t[0]}_-{t[1]}"
    ),
)
note_rows = st.tuples(
    st.sampled_from([0, 0, 1, 137929, 2500000]),  # onset step in 1e-7 s
    st.one_of(st.none(), pitch_tokens),             # None repeats the last pitch
    st.integers(1, 10**7),                          # duration in 1e-7 s
    st.integers(0, 127),
    st.integers(0, 127),
    st.sampled_from([0, 1]),
    finger_tokens,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(note_rows, max_size=25))
def test_serialize_parse_serialize_is_identity(rows):
    lines, step_total, pitch = [], 0, "C4"
    for i, (step, token, duration, v_on, v_off, channel, finger) in enumerate(rows):
        step_total += step
        pitch = token or pitch  # a step of 0 then makes a unison
        onset = step_total / 10**7
        lines.append(
            f"{i} {onset:.7f} {onset + duration / 10**7:.7f} {pitch} "
            f"{v_on} {v_off} {channel} {finger}"
        )
    piece = parse_fingering_file("".join(line + "\n" for line in lines))
    text = serialize_fingering_file(piece)
    again = parse_fingering_file(text)
    assert again.notes == piece.notes
    assert serialize_fingering_file(again) == text


def _render(rows, fields=8, zero="0.0000000") -> str:
    """A fingering file of ``note_rows``, each line cut to ``fields``
    fields; ``zero`` spells the onset of the even-numbered notes at time 0."""
    lines, step_total, pitch = [], 0, "C4"
    for i, (step, token, duration, v_on, v_off, channel, finger) in enumerate(rows):
        step_total += step
        pitch = token or pitch  # a step of 0 then makes a unison
        onset = step_total / 10**7
        offset = f"{onset + duration / 10**7:.7f}"
        line = [str(i), f"{onset:.7f}" if onset or i % 2 else zero, offset,
                pitch, str(v_on), str(v_off), str(channel), finger]
        lines.append(" ".join(line[:fields]))
    return "".join(line + "\n" for line in lines)


def _plain(value):
    """A result in comparable form: a piece as its repr, which shows every
    note field by repr, index arrays as lists."""
    if isinstance(value, Piece):
        return repr(value)
    if isinstance(value, GroundTruthSet):
        return repr(value.piece), value.signed_fingerings
    if isinstance(value, dict):
        return {key: np.asarray(v, dtype=np.intp).tolist() for key, v in value.items()}
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


def _result(function, *args):
    try:
        return _plain(function(*args))
    except Exception as exc:  # noqa: BLE001 - a stray type must show in the comparison
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(note_rows, max_size=10),
    fields=st.sampled_from([8, 8, 7]),
    zero=st.sampled_from(["0.0000000", "-0.0", "-0.000000", "0"]),
    change=st.sampled_from(["refinger", "drop", "pitch", "onset", "unannotated"]),
    at=st.integers(0, 9),
    fingers=st.lists(finger_tokens, min_size=10, max_size=10),
    token=pitch_tokens,
)
def test_the_column_readers_match_the_per_note_reference(
        rows, fields, zero, change, at, fingers, token):
    # a second annotator's file: other fingers, and maybe one note changed
    other = [row[:6] + (finger,) for row, finger in zip(rows, fingers)]
    if change == "drop":
        other = other[:-1]
    elif other and change in ("pitch", "onset"):
        k = at % len(other)
        step, pitch, *rest = other[k]
        other[k] = (step + 10**4, pitch, *rest) if change == "onset" else (step, token, *rest)
    texts = [_render(rows, fields, zero),
             _render(other, 7 if change == "unannotated" else 8, zero)]
    pieces = [parse_fingering_file(text, "p", str(a)) for a, text in enumerate(texts)]
    references = [reference.reference_parse_fingering_file(text, "p", str(a))
                  for a, text in enumerate(texts)]
    for piece, ref in zip(pieces, references):
        assert _result(hand_positions, piece) == _result(reference.reference_hand_positions, ref)
        assert _result(split_hands, piece) == _result(reference.reference_split_hands, ref)
        assert _result(serialize_fingering_file, piece) == _result(
            reference.reference_serialize_fingering_file, ref)
    assert _result(check_alignment, pieces[1], pieces[0], "p/1") == _result(
        reference.reference_check_alignment, references[1], references[0], "p/1")
    for chosen in (slice(0, 1), slice(None), slice(None, None, -1)):
        assert _result(GroundTruthSet.from_pieces, pieces[chosen]) == _result(
            reference.reference_from_pieces, references[chosen])


# Hostile tokens per kind of column.  Among the Unicode digits, int() takes
# the decimal ones (Nd) but refuses the superscripts and circled digits
# that str.isdigit() also accepts.
_HOSTILE_NUMBERS = ["²", "①", "٣", "-0", "+1", "-1", "128", "1_0", "1e400", "nan",
                    "-nan", "inf", "-inf", "+.5", "-0.5", "0.1234567"]
_HOSTILE_PITCHES = ["²", "³", "6²", "①", "1①", "٦٠", "߃", "C٤", "Cx4", "Bb-1", "H4",
                    "20", "109"]
_HOSTILE_FINGERS = ["0", "-0", "6", "+1", "٣", "²", "_", "1_", "_2", "1__2", "0_0",
                    "1_-2", "-1_-2", "nan"]
# A plausible value and the hostile tokens of each column, so hostile
# tokens also reach the checks that come after the field-count check.
_COLUMNS = [
    (st.integers(0, 99).map(str), _HOSTILE_NUMBERS),
    (st.sampled_from(["0.0", "0.5", "1.25", "0.1234567"]), _HOSTILE_NUMBERS),
    (st.sampled_from(["2.0", "2.5", "3.0000001"]), _HOSTILE_NUMBERS),
    (pitch_tokens, _HOSTILE_PITCHES),
    (st.integers(0, 127).map(str), _HOSTILE_NUMBERS),
    (st.integers(0, 127).map(str), _HOSTILE_NUMBERS),
    (st.sampled_from(["0", "1"]), _HOSTILE_NUMBERS),
    (finger_tokens, _HOSTILE_FINGERS),
    (st.just("0"), _HOSTILE_NUMBERS),
]


@st.composite
def hostile_lines(draw):
    """A line of 6-9 plausible fields, up to two of them swapped for hostile
    tokens; or a blank or comment line."""
    # sampled_from favours its first entries: common lines and the
    # token columns come first
    n = draw(st.sampled_from([8, 7, 8, 9, 8, 6, 0]))
    if n == 0:
        return draw(st.sampled_from(["", "//comment", "  ", "\t//x"]))
    fields = [draw(plausible) for plausible, _ in _COLUMNS[:n]]
    for _ in range(draw(st.sampled_from([1, 0, 1, 2]))):
        i = draw(st.sampled_from([i for i in (3, 7, 1, 2, 0, 4, 5, 6, 8) if i < n]))
        fields[i] = draw(st.sampled_from(_COLUMNS[i][1]))
    return draw(st.sampled_from([" ", "\t"])).join(fields)


@settings(max_examples=200, deadline=None)
@given(st.lists(hostile_lines(), min_size=1, max_size=8))
def test_arbitrary_text_parses_or_raises_fingering_error(lines):
    # The first bad line ends a parse, so each line is also parsed alone.
    for text in ["\n".join(lines), *lines]:
        try:
            piece = parse_fingering_file(text)
        except FingeringError:
            continue
        keys = [(n.onset, n.midi) for n in piece.notes]
        assert keys == sorted(keys)


def _outcome(parse, text):
    """The notes ``parse`` reads from ``text`` as field tuples, or the type
    and message of what it raised."""
    try:
        piece = parse(text)
    except Exception as exc:  # noqa: BLE001 - a stray type must show in the comparison
        return type(exc), str(exc)
    for note in piece.notes:
        assert type(note.onset) is float and type(note.offset) is float
    # repr tells -0.0 from 0.0, which a message may print
    return [tuple(repr(getattr(n, f.name)) for f in dataclasses.fields(Note))
            for n in piece.notes]


@settings(max_examples=300, deadline=None)
@given(st.lists(hostile_lines(), min_size=1, max_size=8))
def test_parse_matches_the_per_line_reference(lines):
    for text in ["\n".join(lines), *lines]:
        expected = _outcome(reference.reference_parse_fingering_file, text)
        assert _outcome(parse_fingering_file, text) == expected


def _first_error(text):
    with pytest.raises(FingeringError) as info:
        parse_fingering_file(text)
    assert _outcome(reference.reference_parse_fingering_file, text) == (
        type(info.value), str(info.value))
    return info.value


def test_a_bad_field_count_beats_a_later_bad_velocity():
    error = _first_error("0 0.0 0.5 C4 80 80 0 1\n1 0.5 1.0 D4 80 80\n2 1.0 1.5 E4 200 80 0 3\n")
    assert isinstance(error, MalformedLine) and error.line_no == 2
    assert str(error) == "line 2: expected 8 fields, got 6"


def test_a_bad_id_beats_a_bad_pitch_on_the_same_line():
    error = _first_error("0 0.0 0.5 C4 80 80 0 1\nx 0.5 1.0 Q4 80 80 0 2\n")
    assert str(error) == "line 2: invalid literal for int() with base 10: 'x'"


def test_a_malformed_line_anywhere_beats_an_earlier_backwards_onset():
    error = _first_error("0 1.0 1.5 C4 80 80 0 1\n1 0.5 1.0 D4 80 80 0 2\n"
                         "2 1.0 1.5 E4 80 80 0 2\n3 1.5 2.0 F4 80 80 0 0\n")
    assert str(error) == "line 4: finger 0 outside 1..5 in '0'"


# One way to break each line rule, as (field, token), in the parser's rule
# order; the conversions come first, one per number field.
_BREAKERS = [(0, "x"), (1, "x"), (2, "x"), (4, "x"), (5, "x"), (6, "x"), (0, "-1"), (1, "nan"),
             (1, "-0.5"), (2, "0.25"), (4, "128"), (5, "-1"), (6, "2"), (3, "Q4"), (7, "0")]


def _broken(*breakers) -> str:
    """A good first line, then a line with each (field, token) of ``breakers``."""
    fields = "1 0.5 1.0 D4 64 64 0 2".split()
    for field, token in breakers:
        fields[field] = token
    return "0 0.0 0.5 C4 64 64 0 1\n" + " ".join(fields) + "\n"


@pytest.mark.parametrize("first, second", [
    (a, b) for i, a in enumerate(_BREAKERS) for b in _BREAKERS[i + 1:] if a[0] != b[0]
])
def test_a_line_that_breaks_two_rules_raises_the_earlier(first, second):
    text = _broken(first, second)
    assert _outcome(parse_fingering_file, text) == _outcome(
        reference.reference_parse_fingering_file, text)


@pytest.mark.parametrize("token", ["1e-7", "1.5E-7", "0.000_0004", "٠.٠٠٠٠٠٠٦", "0.1234567",
                                   "+0.0000004", "1.0000005"])
def test_a_time_is_rounded_whatever_its_spelling(token):
    text = f"0 {token} 2.0 C4 64 64 0 1\n1 {token} 2.0 E4 64 64 0 1\n"
    assert _outcome(parse_fingering_file, text) == _outcome(
        reference.reference_parse_fingering_file, text)
    assert parse_fingering_file(text).notes[0].onset == round(float(token), 6)
