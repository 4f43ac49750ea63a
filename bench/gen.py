"""Seeded generator of synthetic PIG fingering files for the benchmark.

Every piece is drawn from ``numpy.random.default_rng`` seeded by the
workload seed, so identical seeds give identical bytes.  The properties
that decoding cost depends on are parameters of :class:`HandSpec` and of
the corpus writers: piece length, texture, chord density, sustain
overlap, annotators per piece and corpus size.

Textures:

* ``scale``: repeated white-key scale runs and broken-triad arpeggios at
  a steady pulse.  Periodic motion with no black-key steps meets the
  many equal smoothed cells of a sparsely trained model, so decoders hit
  many exact score ties.
* ``walk``: a bounded random walk with irregular rhythm; ties are rare.

A chord has at most three pitches and only single notes are sustained,
and only into the next event, so no chord the chord HMM clusters can
exceed five pitches in one hand (``HandOverflow`` never fires).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MIDI_MIN, MIDI_MAX = 21, 108
_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
_MAJOR = (0, 2, 4, 5, 7, 9, 11)
# register per hand: (low, high, centre) in MIDI numbers; 0 = RH, 1 = LH
_REGISTER = {0: (55, 93, 67), 1: (28, 64, 48)}
_CHORD_SHAPES = ((4, 7), (3, 7), (5, 9), (3, 8), (4, 9), (7, 12), (4,), (3,), (5,), (7,), (12,))
FLIP_P = 0.15           # chance that an extra annotator moves a digit to a neighbour
CHORD_P = 0.15          # chance that an event of a two-hand or `walk` piece is a chord
SUSTAIN_P = 0.08        # chance that such a single note overlaps the next event
LADDER_ANNOTATORS = 2


def pitch_name(midi: int) -> str:
    return f"{_NAMES[midi % 12]}{midi // 12 - 1}"


@dataclass(frozen=True)
class HandSpec:
    """What one hand part of a piece looks like."""

    n_notes: int
    texture: str            # "scale" or "walk"
    chord_p: float          # probability that an event is a chord
    sustain_p: float        # probability that a single note overlaps the next event


def _scale_pitches(rng, n: int, channel: int) -> list:
    low, high, _ = _REGISTER[channel]
    run = [p for p in range(low, high - 6) if p % 12 in _MAJOR]
    arp = [p for p in run if p % 12 in (0, 4, 7)]
    figures = (run + run[-2:0:-1], arp + arp[-2:0:-1])
    skip, out = int(rng.integers(0, len(figures[0]))), []
    while len(out) < skip + n:
        out.extend(figures[int(rng.random() < 0.25)])
    return out[skip : skip + n]


def _walk_pitches(rng, n: int, channel: int) -> list:
    low, high, centre = _REGISTER[channel]
    steps = np.array([-7, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 7])
    weights = np.array([1, 2, 3, 4, 6, 6, 2, 6, 6, 4, 3, 2, 1], dtype=float)
    weights /= weights.sum()
    m, out = centre, []
    for step in rng.choice(steps, size=n, p=weights):
        m += int(step)
        if m < low or m > high - 12:
            m -= 2 * int(step)
        out.append(m)
    return out


def _events(rng, spec: HandSpec, channel: int) -> list:
    """List of (onset, [midi, ...], sustained) events with spec.n_notes notes."""
    pitches = (
        _scale_pitches(rng, spec.n_notes, channel)
        if spec.texture == "scale"
        else _walk_pitches(rng, spec.n_notes, channel)
    )
    pulses = (0.125, 0.25, 0.375, 0.5)
    t, count, events = 0.0, 0, []
    for root in pitches:
        if count >= spec.n_notes:
            break
        chord = [root]
        if rng.random() < spec.chord_p:
            shape = _CHORD_SHAPES[int(rng.integers(0, len(_CHORD_SHAPES)))]
            chord += [root + i for i in shape if root + i <= MIDI_MAX]
        chord = chord[: spec.n_notes - count]
        sustained = len(chord) == 1 and rng.random() < spec.sustain_p
        events.append((t, chord, sustained))
        count += len(chord)
        step = 0.125 if spec.texture == "scale" else pulses[int(rng.integers(0, 4))]
        t += step
    return events


def _base_fingers(events, channel: int) -> list:
    """Rule-of-thumb fingering: follow the pitch direction, pass the thumb
    under (or cross over) at the hand's edge, spread chord tones."""
    sign = 1 if channel == 0 else -1
    prev_m, prev_f, out = None, 3, []
    for _, chord, _ in events:
        if len(chord) > 1:
            span = chord[-1] - chord[0]
            if len(chord) == 3:
                digits = (1, 3, 5) if span >= 7 else (1, 2, 4)
            else:
                digits = (1, 5) if span >= 7 else (1, 3) if span >= 4 else (1, 2)
            digits = digits if channel == 0 else tuple(reversed(digits))
            out.append(list(digits))
            prev_m, prev_f = chord[-1] if channel == 0 else chord[0], digits[-1] if channel == 0 else digits[0]
            continue
        m = chord[0]
        if prev_m is None:
            f = 1 if channel == 0 else 5
        else:
            d = (m - prev_m) * sign
            step = 0 if d == 0 else 1 if abs(d) <= 2 else 2 if abs(d) <= 5 else 3
            if d > 0:
                f = prev_f + step if prev_f + step <= 5 else 1
            elif d < 0:
                f = prev_f - step if prev_f - step >= 1 else (3 if step == 1 else 4)
            else:
                f = prev_f
        out.append([f])
        prev_m, prev_f = m, f
    return out


def _annotator_fingers(rng, base) -> list:
    """An annotator's variant of the base fingering: each digit moves to a
    neighbour with probability ``FLIP_P``."""
    out = []
    for digits in base:
        row = []
        for f in digits:
            if rng.random() < FLIP_P:
                f = f + 1 if f == 1 or (f < 5 and rng.random() < 0.5) else f - 1
            row.append(f)
        out.append(row)
    return out


@dataclass(frozen=True)
class GeneratedPiece:
    piece_id: str
    hands: dict            # channel -> list of (onset, [midi], sustained)
    fingerings: list       # per annotator: channel -> [[digit]] aligned with events

    @property
    def n_notes(self) -> int:
        return sum(len(c) for evs in self.hands.values() for _, c, _ in evs)


def make_piece(rng, piece_id: str, specs: dict, n_annotators: int) -> GeneratedPiece:
    """One piece with a part per channel in ``specs`` (0 = RH, 1 = LH)."""
    hands = {ch: _events(rng, spec, ch) for ch, spec in sorted(specs.items())}
    base = {ch: _base_fingers(evs, ch) for ch, evs in hands.items()}
    fingerings = [base] + [
        {ch: _annotator_fingers(rng, base[ch]) for ch in hands}
        for _ in range(n_annotators - 1)
    ]
    return GeneratedPiece(piece_id=piece_id, hands=hands, fingerings=fingerings)


def render(piece: GeneratedPiece, annotator: int = 0) -> str:
    """PIG file text of one annotator's fingering, in canonical order."""
    rows = []
    for ch, events in piece.hands.items():
        fingers = piece.fingerings[annotator][ch]
        for ei, (onset, chord, sustained) in enumerate(events):
            if sustained and ei + 1 < len(events):
                offset = events[ei + 1][0] + 0.05
            elif ei + 1 < len(events):
                offset = onset + 0.8 * (events[ei + 1][0] - onset)
            else:
                offset = onset + 0.4
            for midi, digit in zip(chord, fingers[ei]):
                rows.append((round(onset, 6), midi, round(offset, 6), ch, digit))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["//Version: PianoFingering_v170101"]
    for i, (onset, midi, offset, ch, digit) in enumerate(rows):
        signed = digit if ch == 0 else -digit
        lines.append(
            f"{i}\t{onset:.6f}\t{offset:.6f}\t{pitch_name(midi)}\t64\t64\t{ch}\t{signed}"
        )
    return "\n".join(lines) + "\n"


def write_set(directory: Path, pieces) -> list:
    """Write every annotator's file of each piece in the flat PIG layout;
    returns the annotator-1 paths."""
    directory.mkdir(parents=True, exist_ok=True)
    first = []
    for piece in pieces:
        for a in range(len(piece.fingerings)):
            path = directory / f"{piece.piece_id}-{a + 1}_fingering.txt"
            path.write_text(render(piece, a), encoding="utf-8")
            if a == 0:
                first.append(path)
    return first


def mixed_pieces(rng, prefix: str, count: int, notes_range: tuple,
                 n_annotators: int) -> list:
    """Two-hand pieces.  Hand lengths are spread evenly over
    ``notes_range`` and half the hands are ``scale``, half ``walk``; the
    seed only shuffles them, so every seed gives the same amount of work."""
    lo, hi = notes_range
    lengths = rng.permutation(np.linspace(lo, hi, 2 * count).round().astype(int))
    textures = rng.permutation(["scale", "walk"] * count)
    pieces = []
    for i in range(count):
        specs = {
            ch: HandSpec(
                n_notes=int(lengths[2 * i + ch]),
                texture=str(textures[2 * i + ch]),
                chord_p=CHORD_P,
                sustain_p=SUSTAIN_P,
            )
            for ch in (0, 1)
        }
        pieces.append(make_piece(rng, f"{prefix}{i:03d}", specs, n_annotators))
    return pieces


def ladder_pieces(rng, lengths) -> list:
    """Single-hand (RH) pieces with ``LADDER_ANNOTATORS`` annotators, one
    per (texture, length) rung; ``scale`` is plain single notes, ``walk``
    has chords and sustain."""
    pieces = []
    for texture in ("scale", "walk"):
        for n in lengths:
            spec = HandSpec(
                n_notes=n,
                texture=texture,
                chord_p=0.0 if texture == "scale" else CHORD_P,
                sustain_p=0.0 if texture == "scale" else SUSTAIN_P,
            )
            pieces.append(make_piece(rng, f"{texture}{n}", {0: spec}, LADDER_ANNOTATORS))
    return pieces
