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
total order.

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
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import zip_longest
from operator import attrgetter, gt, le

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

    def with_finger(self, finger: FingerLabel) -> "Note":
        """``replace(self, finger=finger)``, filled as ``_parsed_note`` fills a Note."""
        note = _new_object(Note)
        note.__dict__.update(self.__dict__, finger=finger)
        return note


@dataclass(frozen=True)
class Piece:
    """A canonically ordered note sequence with optional identity metadata."""

    notes: tuple[Note, ...]
    piece_id: str = ""
    annotator_id: str = ""

    def __len__(self) -> int:
        return len(self.notes)

    @property
    def fingers(self) -> tuple[FingerLabel | None, ...]:
        return tuple(n.finger for n in self.notes)

    def with_fingers(self, fingers) -> "Piece":
        if len(fingers) != len(self.notes):
            raise LengthMismatch(
                f"{len(fingers)} fingers for {len(self.notes)} notes"
            )
        notes = tuple(n.with_finger(f) for n, f in zip(self.notes, fingers))
        return replace(self, notes=notes)


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


_new_object = object.__new__


def _parsed_note(note_id, onset, offset, pitch, midi, onset_velocity,
                 offset_velocity, channel, finger) -> Note:
    """``Note(...)`` of validated fields, skipping the frozen ``__init__``'s setattr per field."""
    note = _new_object(Note)
    fields = note.__dict__
    fields["note_id"] = note_id
    fields["onset"] = onset
    fields["offset"] = offset
    fields["pitch"] = pitch
    fields["midi"] = midi
    fields["onset_velocity"] = onset_velocity
    fields["offset_velocity"] = offset_velocity
    fields["channel"] = channel
    fields["finger"] = finger
    return note


# Deleting these characters leaves nothing of a plain decimal, and
# round(float(t), 6) == float(t) for a plain decimal t of at most six decimals.
_PLAIN = str.maketrans("", "", "0123456789+-.\n")
_SEVENTH_DECIMAL = re.compile(r"\.[0-9]{7}")
_VELOCITIES = frozenset(range(128))


def parse_fingering_file(text: str, piece_id: str = "", annotator_id: str = "") -> Piece:
    """Parse a fingering file into a canonically ordered Piece.

    An unannotated file may omit the finger column (7 fields per line);
    such notes carry ``finger=None``.  The file is read a column at a
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
    resolve = resolve_substitution if None not in fingers else (
        lambda token: token and resolve_substitution(token))
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
    for convert, tokens in ((pitch_to_midi, columns[3]), (resolve, fingers)):
        values.append(column := [])
        try:
            column.extend(map(convert, tokens[:n]))
        except (InvalidPitchToken, InvalidFinger) as exc:
            n, error = len(column), exc
            exc.args = (f"line {line_nos[n]}: {exc}",)
    if error is not None:
        raise error
    midis, fingers = values[6:]
    notes = list(map(_parsed_note, ids, onsets, offsets, columns[3], midis, on_vels,
                     off_vels, channels, fingers))
    keys = list(zip(onsets, midis))
    if not all(map(le, keys, keys[1:])):  # not yet in (onset, midi) order
        # Raised only after every rule passed, so a malformed line anywhere wins.
        if not all(map(le, onsets, onsets[1:])):
            i = next(i for i in range(1, n) if onsets[i] < onsets[i - 1])
            raise NonMonotoneOnsets(
                f"line {line_nos[i]}: onset {onsets[i]} of note {ids[i]} precedes {onsets[i - 1]}"
            )
        notes = [notes[i] for i in sorted(range(n), key=keys.__getitem__)]  # stable: ties by pitch
    return Piece(notes=tuple(notes), piece_id=piece_id, annotator_id=annotator_id)


def serialize_fingering_file(piece: Piece) -> str:
    """Render a fully annotated piece back to file text.

    Times get exactly six decimals and fields are tab-separated; an empty
    piece yields an empty document.
    """
    lines = []
    for n in piece.notes:
        if n.finger is None:
            raise MissingFinger(f"note {n.note_id} has no finger label")
        lines.append(
            f"{n.note_id}\t{n.onset:.6f}\t{n.offset:.6f}\t{n.pitch}\t"
            f"{n.onset_velocity}\t{n.offset_velocity}\t{n.channel}\t{n.finger.signed}"
        )
    return "".join(line + "\n" for line in lines)


def hand_positions(piece: Piece) -> dict:
    """Hand -> indices into ``piece.notes`` of that hand's notes, in piece
    order; the right hand comes first."""
    positions = {}
    for hand in Hand:
        channel = hand.channel  # read once: an enum property costs per note
        positions[hand] = [i for i, n in enumerate(piece.notes) if n.channel == channel]
    return positions


def split_hands(piece: Piece) -> tuple[Piece, Piece]:
    """Stable partition of a piece into its right- and left-hand parts."""
    return tuple(
        replace(piece, notes=tuple(piece.notes[i] for i in positions))
        for positions in hand_positions(piece).values()
    )


def infer_hand(piece: Piece) -> Hand:
    """Hand of a single-hand part; raises on mixed or empty input."""
    channels = {n.channel for n in piece.notes}
    if len(channels) != 1:
        raise ValueError(f"expected a single-hand part, channels {sorted(channels)}")
    return Hand(channels.pop())


def check_alignment(piece: Piece, reference: Piece, name: str) -> None:
    """Raise unless ``piece`` holds the notes of ``reference``: the same
    number of notes and the same (onset, MIDI pitch) at every position.
    ``name`` labels ``piece`` in the message."""
    if len(piece) != len(reference):
        raise LengthMismatch(f"{name}: {len(piece)} notes, expected {len(reference)}")
    key = attrgetter("onset", "midi")
    keys, reference_keys = list(map(key, piece.notes)), list(map(key, reference.notes))
    if keys != reference_keys:
        i = next(i for i, pair in enumerate(zip(keys, reference_keys)) if pair[0] != pair[1])
        a, b = piece.notes[i], reference.notes[i]
        raise AlignmentMismatch(
            f"{name}: note content differs at position {i} "
            f"({a.pitch}@{a.onset} vs {b.pitch}@{b.onset})"
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
            fingers = p.fingers
            if any(f is None for f in fingers):
                raise MissingFinger(f"{name} is unannotated")
            fingerings.append(tuple(f.signed for f in fingers))
        return cls(piece=reference, signed_fingerings=tuple(fingerings))
