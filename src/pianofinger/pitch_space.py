"""Keyboard geometry: integral and lattice pitch representations.

The integral representation is the plain MIDI semitone axis.  The lattice
representation places each key on a two-dimensional grid: ``x`` runs along
the keyboard in doubled key-step units (adjacent white keys are 2 apart,
so every key gets an integer coordinate) and ``y`` is 1 on black keys and
0 on white keys.  Output models only ever see *displacements* between two
keys, clamped to a maximum span, so the absolute origin of ``x`` is
irrelevant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfRange

MIDI_MIN = 21   # A0
MIDI_MAX = 108  # C8

# x offset of each pitch class within an octave, in doubled key-step units.
_X_OFFSET = (0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12)  # C .. B
_BLACK = frozenset({1, 3, 6, 8, 10})
_OCTAVE_X = 14


class PitchRepresentation(enum.Enum):
    INTEGRAL = "integral"
    LATTICE = "lattice"


@dataclass(frozen=True)
class LatticePoint:
    x: int
    y: int


@dataclass(frozen=True)
class Displacement:
    """Clamped relative motion between two keys.

    ``dy`` is None in the integral representation, which has no vertical
    axis.
    """

    dx: int
    dy: int | None = None


def to_lattice(midi: int) -> LatticePoint:
    """Map a MIDI number on the 88-key range to its lattice point."""
    if not MIDI_MIN <= midi <= MIDI_MAX:
        raise OutOfRange(f"MIDI number {midi} outside {MIDI_MIN}..{MIDI_MAX}")
    octave, pc = divmod(midi, 12)
    return LatticePoint(x=_OCTAVE_X * octave + _X_OFFSET[pc], y=1 if pc in _BLACK else 0)


def _clamp(value: int, bound: int) -> int:
    return max(-bound, min(bound, value))


def displacement(
    representation: PitchRepresentation,
    from_midi: int,
    to_midi: int,
    delta_p_max: int,
) -> Displacement:
    """Relative motion from one pitch to another, clamped at the span cutoff.

    Integral: dx is the semitone interval clamped to +-delta_p_max.
    Lattice: dx is the x interval clamped to +-2*delta_p_max (the same
    physical span in doubled units); dy is the unclamped black/white step.
    """
    if representation is PitchRepresentation.INTEGRAL:
        return Displacement(dx=_clamp(to_midi - from_midi, delta_p_max))
    a, b = to_lattice(from_midi), to_lattice(to_midi)
    return Displacement(dx=_clamp(b.x - a.x, 2 * delta_p_max), dy=b.y - a.y)


def reflect_x(d: Displacement) -> Displacement:
    """Mirror a displacement along the keyboard; the vertical step is kept."""
    return Displacement(dx=-d.dx, dy=d.dy)


# --- displacement alphabet indexing -------------------------------------
#
# Output tables are dense arrays over the clamped displacement alphabet;
# the helpers below define the (fixed, documented) cell ordering:
# integral cells are dx ascending; lattice cells are dx-major, dy minor
# with dy in (-1, 0, 1).

def alphabet_size(representation: PitchRepresentation, delta_p_max: int) -> int:
    if representation is PitchRepresentation.INTEGRAL:
        return 2 * delta_p_max + 1
    return (4 * delta_p_max + 1) * 3


def index_displacement(
    representation: PitchRepresentation, delta_p_max: int, index: int
) -> Displacement:
    if representation is PitchRepresentation.INTEGRAL:
        return Displacement(dx=index - delta_p_max)
    q, r = divmod(index, 3)
    return Displacement(dx=q - 2 * delta_p_max, dy=r - 1)


def key_indices(midis) -> np.ndarray:
    """``midis - MIDI_MIN`` as an ``intp`` array, the row and column
    indices of ``index_table``; OutOfRange off the 88 keys."""
    midis = np.asarray(midis if isinstance(midis, (np.ndarray, list, tuple)) else list(midis))
    off = (midis < MIDI_MIN) | (midis > MIDI_MAX)
    if off.any():
        raise OutOfRange(f"MIDI number {midis[off][0]} outside {MIDI_MIN}..{MIDI_MAX}")
    return midis.astype(np.intp) - MIDI_MIN


@lru_cache(maxsize=16)
def index_table(representation: PitchRepresentation, delta_p_max: int) -> np.ndarray:
    """Read-only (88, 88) ``intp`` table of alphabet cells:
    ``index_table(r, d)[a - MIDI_MIN, b - MIDI_MIN]`` is the cell of
    ``displacement(r, a, b, d)``.  Built on first use for each
    representation and ``delta_p_max``."""
    midi = np.arange(MIDI_MIN, MIDI_MAX + 1)
    if representation is PitchRepresentation.INTEGRAL:
        dx = np.clip(midi[None, :] - midi[:, None], -delta_p_max, delta_p_max)
        table = dx + delta_p_max
    else:
        octave, pc = np.divmod(midi, 12)
        x = _OCTAVE_X * octave + np.array(_X_OFFSET)[pc]
        y = np.isin(pc, list(_BLACK)).astype(np.intp)
        dx = np.clip(x[None, :] - x[:, None], -2 * delta_p_max, 2 * delta_p_max)
        table = (dx + 2 * delta_p_max) * 3 + (y[None, :] - y[:, None] + 1)
    table = table.astype(np.intp)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=16)
def negation_permutation(
    representation: PitchRepresentation, delta_p_max: int
) -> np.ndarray:
    """Read-only index permutation realising d -> -d on the displacement
    alphabet.  In both cell orderings the cell of -d is the last cell
    minus the cell of d, so it reverses the alphabet."""
    size = alphabet_size(representation, delta_p_max)
    return _read_only(np.arange(size - 1, -1, -1))


@lru_cache(maxsize=16)
def reflection_permutation(
    representation: PitchRepresentation, delta_p_max: int
) -> np.ndarray:
    """Read-only index permutation realising the x-mirror on the
    displacement alphabet: ``dx`` reverses, ``dy`` stays."""
    if representation is PitchRepresentation.INTEGRAL:
        return negation_permutation(representation, delta_p_max)
    # cell = (dx + 2 * delta_p_max) * 3 + (dy + 1)
    x, y = np.divmod(np.arange(alphabet_size(representation, delta_p_max)), 3)
    return _read_only((4 * delta_p_max - x) * 3 + y)


def _read_only(array: np.ndarray) -> np.ndarray:
    array = array.astype(np.intp)
    array.flags.writeable = False
    return array
