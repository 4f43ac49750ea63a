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
format's six-decimal resolution and notes sharing an onset are ordered by
ascending pitch, so that decoding and evaluation see one deterministic
total order.  Onsets that *decrease* in file order are an error, never
silently reordered.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache

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


@dataclass(frozen=True, order=True)
class FingerLabel:
    """One hand's digit: 1 = thumb .. 5 = little finger."""

    hand: Hand
    digit: int

    def __post_init__(self):
        if self.digit not in (1, 2, 3, 4, 5):
            raise InvalidFinger(f"finger digit must be 1..5, got {self.digit}")

    @property
    def signed(self) -> int:
        """Signed file encoding: positive digits are RH, negative LH."""
        return self.digit if self.hand is Hand.RH else -self.digit

    @classmethod
    def from_signed(cls, value: int) -> "FingerLabel":
        label = _SIGNED_LABELS.get(value)
        if label is not None:
            return label
        if value == 0:
            raise InvalidFinger("finger 0 is invalid")
        return cls(hand=Hand.RH if value > 0 else Hand.LH, digit=abs(value))


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
    """A ``Note`` from fields the parser has already validated.

    It fills the instance dict directly instead of running the frozen
    dataclass ``__init__``, which pays one ``object.__setattr__`` call per
    field.  The result is an ordinary frozen ``Note``, equal and
    hash-equal to ``Note(...)`` of the same fields.
    """
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


def _parse_line(line_no: int, fields: list[str]) -> Note:
    if len(fields) not in (7, 8):
        raise MalformedLine(line_no, f"expected 8 fields, got {len(fields)}")
    try:
        note_id = int(fields[0])
        onset = round(float(fields[1]), TIME_DECIMALS)
        offset = round(float(fields[2]), TIME_DECIMALS)
        onset_velocity = int(fields[4])
        offset_velocity = int(fields[5])
        channel = int(fields[6])
    except ValueError as exc:
        raise MalformedLine(line_no, str(exc)) from None
    if note_id < 0:
        raise MalformedLine(line_no, f"negative note id {note_id}")
    if not (math.isfinite(onset) and math.isfinite(offset)):
        raise MalformedLine(line_no, f"non-finite time in {fields[1]} {fields[2]}")
    if onset < 0:
        raise MalformedLine(line_no, f"negative onset {onset}")
    if offset < onset:
        raise MalformedLine(line_no, f"offset {offset} before onset {onset}")
    for v in (onset_velocity, offset_velocity):
        if not 0 <= v <= 127:
            raise MalformedLine(line_no, f"velocity {v} outside 0..127")
    if channel not in (0, 1):
        raise MalformedLine(line_no, f"channel {channel} is not 0 or 1")
    try:
        midi = pitch_to_midi(fields[3])
        finger = resolve_substitution(fields[7]) if len(fields) == 8 else None
    except (InvalidPitchToken, InvalidFinger) as exc:
        exc.args = (f"line {line_no}: {exc}",)
        raise
    return _parsed_note(note_id, onset, offset, fields[3], midi, onset_velocity,
                        offset_velocity, channel, finger)


def parse_fingering_file(
    text: str, piece_id: str = "", annotator_id: str = ""
) -> Piece:
    """Parse a fingering file into a canonically ordered Piece.

    An unannotated file may omit the finger column (7 fields per line);
    such notes carry ``finger=None``.
    """
    notes: list[Note] = []
    prev = None
    backwards = None  # the first adjacent pair whose onset decreases, and its line
    in_order = True   # already in (onset, midi) order: the sort is a no-op
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("//"):
            continue
        note = _parse_line(line_no, fields)
        if prev is not None:
            if note.onset < prev.onset:
                backwards = backwards or (prev, note, line_no)
            elif note.onset == prev.onset and note.midi < prev.midi:
                in_order = False
        notes.append(note)
        prev = note
    # Raised only after every line parsed, so a malformed line anywhere wins.
    if backwards is not None:
        prev, cur, line_no = backwards
        raise NonMonotoneOnsets(
            f"line {line_no}: onset {cur.onset} of note {cur.note_id} precedes {prev.onset}"
        )
    if not in_order:
        notes.sort(key=lambda n: (n.onset, n.midi))  # stable: ties by pitch only
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
    for i, (a, b) in enumerate(zip(piece.notes, reference.notes)):
        if (a.onset, a.midi) != (b.onset, b.midi):
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
            check_alignment(p, reference, name)
            fingers = p.fingers
            if any(f is None for f in fingers):
                raise MissingFinger(f"{name} is unannotated")
            fingerings.append(tuple(f.signed for f in fingers))
        return cls(piece=reference, signed_fingerings=tuple(fingerings))
