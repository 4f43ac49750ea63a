"""Reading, validating and writing PIG fingering files.

A fingering file is UTF-8 text with one note per line and eight
whitespace-separated fields::

    id  onset[s]  offset[s]  pitch  onset_vel  offset_vel  channel  finger

Pitch is a spelled token (``C4``, ``F#4``, ``Bb3``; ``x`` doubles a sharp)
mapping onto the 88-key range; a bare MIDI number is accepted as a
fallback.  Channel 0 is the right hand, 1 the left.  The finger field is a
signed digit (positive = right hand, negative = left); a substitution such
as ``1_2`` is resolved to the first finger at parse time.  Lines starting
with ``//`` and blank lines are skipped.

Parsing canonicalises a piece: onset/offset times are rounded to the
format's six-decimal resolution, which changes only a time written with
more than six decimals, and notes sharing an onset are ordered by
ascending pitch, so that decoding and evaluation see one deterministic
total order.  A piece holds one numpy column per field, fingers signed
with 0 for none; ``Piece.notes`` is a view built on first read, by no command.

A malformed file raises the first rule its lowest bad line breaks, in this
order: field count; the numbers, in field order; negative id; non-finite
time; negative onset; offset before onset; onset, then offset velocity;
channel; pitch token; finger token.  Only a file free of these raises for
onsets that *decrease* in file order, which are never silently reordered.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from itertools import zip_longest
from operator import gt, le

import numpy as np

from .errors import (
    AlignmentMismatch,
    InvalidFinger,
    InvalidPitchToken,
    LengthMismatch,
    MalformedLine,
    MissingFinger,
    NonMonotoneOnsets,
)
from .pitch_space import MIDI_MAX, MIDI_MIN

TIME_DECIMALS = 6


class Hand(enum.Enum):
    RH = 0
    LH = 1

    @property
    def channel(self) -> int:
        return self.value


def _is_digit(value) -> bool:
    """Whether ``value`` is a finger digit: an int or numpy integer 1 to 5, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and 0 < value < 6


@dataclass(frozen=True, order=True)
class FingerLabel:
    """One hand's digit: 1 = thumb .. 5 = little finger."""

    hand: Hand
    digit: int

    def __post_init__(self):
        if not isinstance(self.hand, Hand):
            raise InvalidFinger(f"finger hand must be a Hand, got {self.hand!r}")
        if not _is_digit(self.digit):
            raise InvalidFinger(f"finger digit must be 1..5, got {self.digit}")

    @property
    def signed(self) -> int:
        """Signed file encoding: positive digits are RH, negative LH."""
        return self.digit if self.hand is Hand.RH else -self.digit

    @classmethod
    def from_signed(cls, value: int) -> "FingerLabel":
        label = _SIGNED_LABELS.get(value) if type(value) is int else None
        if label is not None:
            return label
        if value == 0:
            raise InvalidFinger("finger 0 is invalid")
        # not abs(value): abs(True) is the int 1, which the digit check would pass
        return cls(hand=Hand.RH if value > 0 else Hand.LH, digit=value if value > 0 else -value)


# the ten labels, by signed value; labels are immutable, so notes share them
_SIGNED_LABELS = {
    sign * digit: FingerLabel(hand, digit)
    for sign, hand in ((1, Hand.RH), (-1, Hand.LH)) for digit in range(1, 6)
}


@dataclass(frozen=True)
class Note:
    """One performed note as stored in a fingering file."""

    note_id: int
    onset: float
    offset: float
    pitch: str
    midi: int
    onset_velocity: int
    offset_velocity: int
    channel: int
    finger: FingerLabel | None = None

    @property
    def hand(self) -> Hand:
        return Hand(self.channel)


# a Piece's columns and their dtypes, in Note field order; a finger is signed, 0 for none
_COLUMNS = {
    "ids": np.int64, "onsets": np.float64, "offsets": np.float64, "pitches": object,
    "midis": np.intp, "onset_velocities": np.int64, "offset_velocities": np.int64,
    "channels": np.int64, "signed_fingers": np.int64,
}
_LABELS = {0: None, **_SIGNED_LABELS}


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Piece:
    """A canonically ordered note sequence, one numpy column per field
    (``pitches`` as written, dtype object), with identity metadata.
    ``Piece(notes)`` builds the columns from ``Note``s, which win over
    columns passed by name, as the parser and ``dataclasses.replace`` pass
    them.  ``notes`` and ``fingers`` are views of plain Python values."""

    piece_id: str
    annotator_id: str
    ids: np.ndarray
    onsets: np.ndarray
    offsets: np.ndarray
    pitches: np.ndarray
    midis: np.ndarray
    onset_velocities: np.ndarray
    offset_velocities: np.ndarray
    channels: np.ndarray
    signed_fingers: np.ndarray

    def __init__(self, notes=None, piece_id: str = "", annotator_id: str = "", **columns):
        if columns.keys() - _COLUMNS.keys():
            raise TypeError(f"unknown Piece columns {sorted(columns.keys() - _COLUMNS.keys())}")
        if notes is not None:
            notes = self.__dict__["notes"] = tuple(notes)  # the view, as given
            # a Note's __dict__ holds its fields in declaration order
            *values, fingers = [*zip(*(vars(n).values() for n in notes))] or [()] * len(_COLUMNS)
            signed = [0 if f is None else f.signed for f in fingers]
            columns = dict(zip(_COLUMNS, (*values, signed)))
        self.__dict__.update(piece_id=piece_id, annotator_id=annotator_id)
        for name, dtype in _COLUMNS.items():
            try:
                self.__dict__[name] = np.asarray(columns.get(name, ()), dtype=dtype)
            except OverflowError:  # an integer past int64, such as a long note id, stays an int
                self.__dict__[name] = np.array(columns[name], dtype=object)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Piece):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def __repr__(self) -> str:
        return (f"Piece(notes={self.notes!r}, piece_id={self.piece_id!r}, "
                f"annotator_id={self.annotator_id!r})")

    @cached_property
    def notes(self) -> tuple[Note, ...]:
        columns = (getattr(self, name).tolist() for name in list(_COLUMNS)[:-1])
        return tuple(map(Note, *columns, self.fingers))

    @cached_property
    def fingers(self) -> tuple[FingerLabel | None, ...]:
        return tuple(map(_LABELS.__getitem__, self.signed_fingers.tolist()))

    def take(self, index) -> "Piece":
        """The piece of the notes at ``index``, in that order: the constructor's
        piece, whose columns, already of their dtypes, fill it directly."""
        columns = {name: getattr(self, name)[index] for name in _COLUMNS}
        if any(columns[name].dtype != dtype for name, dtype in _COLUMNS.items()):
            return Piece(None, self.piece_id, self.annotator_id, **columns)  # ints past int64
        piece = object.__new__(Piece)
        piece.__dict__.update(piece_id=self.piece_id, annotator_id=self.annotator_id, **columns)
        return piece

    def with_fingers(self, fingers) -> "Piece":
        if len(fingers) != len(self):
            raise LengthMismatch(f"{len(fingers)} fingers for {len(self)} notes")
        return replace(self, signed_fingers=[0 if f is None else f.signed for f in fingers])


_PITCH_RE = re.compile(r"^([A-G])(x|##|bb|#|b)?(-?\d+)$")
_BASE_SEMITONE = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
_ACCIDENTAL = {None: 0, "#": 1, "##": 2, "x": 2, "b": -1, "bb": -2}
_SHARP_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")


# Pitch and finger tokens come from a small set, so each distinct token is
# resolved once per process.  The caches are bounded because spellings
# such as ``C004`` or ``060`` make the set of valid tokens unbounded;
# tokens that raise are not cached.
_TOKEN_CACHE_SIZE = 1024


@lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def pitch_to_midi(token: str) -> int:
    """Spelled pitch token (or bare MIDI number) to MIDI note number."""
    try:
        if token.isdigit():
            midi = int(token)
        else:
            m = _PITCH_RE.match(token)
            if m is None:
                raise InvalidPitchToken(f"bad pitch token {token!r}")
            letter, accidental, octave = m.groups()
            midi = 12 * (int(octave) + 1) + _BASE_SEMITONE[letter] + _ACCIDENTAL[accidental]
    except ValueError:  # int() refuses digits such as '²', and over 4300 of them
        raise InvalidPitchToken(f"bad pitch token {token!r}") from None
    if not MIDI_MIN <= midi <= MIDI_MAX:
        raise InvalidPitchToken(
            f"pitch {token!r} (MIDI {midi}) outside the 88-key range"
        )
    return midi


def midi_to_pitch(midi: int) -> str:
    """MIDI number to a spelled token, preferring sharps."""
    if not MIDI_MIN <= midi <= MIDI_MAX:
        raise InvalidPitchToken(f"MIDI {midi} outside the 88-key range")
    octave, pc = divmod(midi, 12)
    return f"{_SHARP_NAMES[pc]}{octave - 1}"


@lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def resolve_substitution(finger_token: str) -> FingerLabel:
    """Signed finger token, possibly an ``a_b`` substitution pair, to the
    label of the finger first used."""
    parts = finger_token.split("_")
    if len(parts) > 2 or not all(parts):
        raise InvalidFinger(f"bad finger token {finger_token!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise InvalidFinger(f"bad finger token {finger_token!r}") from None
    for v in values:
        if v == 0 or not 1 <= abs(v) <= 5:
            raise InvalidFinger(f"finger {v} outside 1..5 in {finger_token!r}")
    if len(values) == 2 and (values[0] > 0) != (values[1] > 0):
        raise InvalidFinger(f"substitution {finger_token!r} changes hands")
    return FingerLabel.from_signed(values[0])


@lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def _signed_finger(finger_token: str | None) -> int:
    """The signed finger ``resolve_substitution`` reads; 0 for a finger left out."""
    return 0 if finger_token is None else resolve_substitution(finger_token).signed


# Deleting these characters leaves nothing of a plain decimal, and
# round(float(t), 6) == float(t) for a plain decimal t of at most six decimals.
_PLAIN = str.maketrans("", "", "0123456789+-.\n")
_SEVENTH_DECIMAL = re.compile(r"\.[0-9]{7}")
_VELOCITIES = frozenset(range(128))


def parse_fingering_file(text: str, piece_id: str = "", annotator_id: str = "") -> Piece:
    """Parse a fingering file into a canonically ordered Piece.

    An unannotated file may omit the finger column (7 fields per line);
    such notes carry signed finger 0.  The file is read a column at a
    time: each rule is checked only on the rows before the first failure
    found so far, so the last failure found is the file's first error.
    """
    rows = list(map(str.split, text.splitlines()))
    line_nos = [i for i, fields in enumerate(rows, 1) if fields and fields[0][:2] != "//"]
    if len(line_nos) < len(rows):
        rows = [rows[i - 1] for i in line_nos]
    n, error = len(rows), None
    def fail(flags, template, *columns):  # the first flagged row; later rules stop before it
        nonlocal n, error
        n = next(i for i, flag in enumerate(flags) if flag)
        error = MalformedLine(line_nos[n], template.format(*(column[n] for column in columns)))
    if not {7, 8}.issuperset(lengths := list(map(len, rows))):
        fail((length not in (7, 8) for length in lengths), "expected 8 fields, got {}", lengths)
    columns = list(zip_longest(*rows[:n])) or [()] * 8  # a finger left out is None
    fingers = columns[7] if len(columns) == 8 else (None,) * n
    values = []
    for field, convert in ((0, int), (1, float), (2, float), (4, int), (5, int), (6, int)):
        values.append(column := [])
        try:
            column.extend(map(convert, columns[field][:n]))  # keeps the values before a raise
        except ValueError as exc:
            n, error = len(column), MalformedLine(line_nos[len(column)], str(exc))
    ids, onsets, offsets, on_vels, off_vels, channels = values
    time_tokens = "\n".join(columns[1] + columns[2])
    if time_tokens.translate(_PLAIN) or _SEVENTH_DECIMAL.search(time_tokens):
        onsets, offsets = ([round(t, TIME_DECIMALS) for t in ts] for ts in (onsets, offsets))
    if min(ids[:n], default=0) < 0:
        fail((v < 0 for v in ids), "negative note id {}", ids)
    if not all(map(math.isfinite, onsets[:n] + offsets[:n])):
        fail((not (math.isfinite(a) and math.isfinite(b)) for a, b in zip(onsets, offsets)),
             "non-finite time in {} {}", columns[1], columns[2])
    if min(onsets[:n], default=0) < 0:
        fail((t < 0 for t in onsets), "negative onset {}", onsets)
    if not all(map(le, onsets[:n], offsets)):
        fail(map(gt, onsets, offsets), "offset {} before onset {}", offsets, onsets)
    for column, allowed, template in ((on_vels, _VELOCITIES, "velocity {} outside 0..127"),
                                      (off_vels, _VELOCITIES, "velocity {} outside 0..127"),
                                      (channels, {0, 1}, "channel {} is not 0 or 1")):
        if not allowed.issuperset(column[:n]):
            fail((v not in allowed for v in column), template, column)
    for convert, tokens in ((pitch_to_midi, columns[3]), (_signed_finger, fingers)):
        values.append(column := [])
        try:
            column.extend(map(convert, tokens[:n]))
        except (InvalidPitchToken, InvalidFinger) as exc:
            n, error = len(column), exc
            exc.args = (f"line {line_nos[n]}: {exc}",)
    if error is not None:
        raise error
    midis, signed = values[6:]
    pitches = list(map(sys.intern, columns[3]))  # one str per distinct token, not per note
    piece = Piece(None, piece_id, annotator_id, **dict(zip(_COLUMNS, (
        ids, onsets, offsets, pitches, midis, on_vels, off_vels, channels, signed))))
    later, earlier = piece.onsets[1:], piece.onsets[:-1]
    if (later < earlier).any():
        # Raised only after every rule passed, so a malformed line anywhere wins.
        i = int(np.argmax(later < earlier)) + 1
        raise NonMonotoneOnsets(
            f"line {line_nos[i]}: onset {onsets[i]} of note {ids[i]} precedes {onsets[i - 1]}"
        )
    if ((later == earlier) & (piece.midis[1:] < piece.midis[:-1])).any():  # not yet in order
        piece = piece.take(np.lexsort((piece.midis, piece.onsets)))  # stable: ties by pitch
    return piece


def serialize_fingering_file(piece: Piece) -> str:
    """Render a fully annotated piece back to file text.

    Times get exactly six decimals and fields are tab-separated; an empty
    piece yields an empty document.
    """
    missing = np.flatnonzero(piece.signed_fingers == 0)
    if missing.size:
        raise MissingFinger(f"note {piece.ids[missing[0]]} has no finger label")
    columns = (getattr(piece, name).tolist() for name in _COLUMNS if name != "midis")
    return "".join(map("{}\t{:.6f}\t{:.6f}\t{}\t{}\t{}\t{}\t{}\n".format, *columns))


def hand_positions(piece: Piece) -> dict:
    """Hand -> the ascending ``intp`` indices of that hand's notes in the
    piece's columns; the right hand comes first."""
    return {hand: np.flatnonzero(piece.channels == hand.channel) for hand in Hand}


def split_hands(piece: Piece) -> tuple[Piece, Piece]:
    """Stable partition of a piece into its right- and left-hand parts."""
    return tuple(map(piece.take, hand_positions(piece).values()))


def infer_hand(piece: Piece) -> Hand:
    """Hand of a single-hand part; raises on mixed or empty input."""
    channels = sorted(set(piece.channels.tolist()))
    if len(channels) != 1:
        raise ValueError(f"expected a single-hand part, channels {channels}")
    return Hand(channels[0])


def part_hand(piece: Piece, hand) -> Hand:
    """``hand`` if a Hand, ``infer_hand(piece)`` if None; ValueError naming
    any other value."""
    if hand is None:
        return infer_hand(piece)
    if not isinstance(hand, Hand):
        raise ValueError(f"hand must be None or a Hand, got {hand!r}")
    return hand


def check_alignment(piece: Piece, reference: Piece, name: str) -> None:
    """Raise unless ``piece`` holds the notes of ``reference``: the same
    number of notes and the same (onset, MIDI pitch) at every position.
    ``name`` labels ``piece`` in the message."""
    if len(piece) != len(reference):
        raise LengthMismatch(f"{name}: {len(piece)} notes, expected {len(reference)}")
    differs = (piece.onsets != reference.onsets) | (piece.midis != reference.midis)
    if differs.any():
        i = int(np.argmax(differs))
        raise AlignmentMismatch(
            f"{name}: note content differs at position {i} ({piece.pitches[i]}@"
            f"{piece.onsets[i].item()} vs {reference.pitches[i]}@{reference.onsets[i].item()})"
        )


@dataclass(frozen=True)
class GroundTruthSet:
    """Aligned signed fingerings of one piece by one or more annotators."""

    piece: Piece                                  # reference note content
    signed_fingerings: tuple[tuple[int, ...], ...]

    @property
    def piece_id(self) -> str:
        return self.piece.piece_id

    def __len__(self) -> int:
        return len(self.signed_fingerings)

    @classmethod
    def from_pieces(cls, pieces: list[Piece]) -> "GroundTruthSet":
        if not pieces:
            raise LengthMismatch("a ground-truth set needs at least one fingering")
        reference = pieces[0]
        fingerings = []
        for p in pieces:
            name = f"{p.piece_id}/{p.annotator_id}"
            if p is not reference:
                check_alignment(p, reference, name)
            if not p.signed_fingers.all():
                raise MissingFinger(f"{name} is unannotated")
            fingerings.append(tuple(p.signed_fingers.tolist()))
        return cls(piece=reference, signed_fingerings=tuple(fingerings))
