"""What the note and chord HMMs share: digit states, config value rules,
annotated training parts, additive counts, the exact-DP tie rule."""

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DegenerateFit, EmptyCorpus, MissingFinger
from .pig_io import infer_hand
from .pitch_space import MIDI_MAX, MIDI_MIN

N_DIGITS = 5
NEG_INF = float("-inf")


def annotated_parts(corpus) -> list:
    """``(part, hand, digits)`` of each non-empty single-hand part of
    ``corpus``: its hand and its fingers as 0-based digits, an ``intp``
    array in note order.  MissingFinger for a note without a finger."""
    parts = []
    for piece in filter(len, corpus):
        hand = infer_hand(piece)
        missing = [note.note_id for note in piece.notes if note.finger is None]
        if missing:
            raise MissingFinger(f"note {missing[0]} of {piece.piece_id!r} has no finger")
        digits = np.array([note.finger.digit for note in piece.notes], dtype=np.intp) - 1
        parts.append((piece, hand, digits))
    return parts


@dataclass(frozen=True, eq=False)
class Counts:
    """Additive training counts of a model, held sparse: ``events`` maps
    each table key to ``(shape, cells)``, the flat cell of every counted
    event in a table of that shape, and ``tables`` tallies them, on first
    use, into float64 tables of whole numbers.

    Adding two counts joins their events and their ``skipped`` ids (the
    parts left out), so the tables of a sum are exactly those of the
    pooled parts, whatever the order of the sum.  ``parts`` is the number
    of non-empty parts counted and ``settings`` maps the config fields
    the events depend on, which a subclass names in ``SETTINGS``, to
    their values.
    """

    settings: dict
    parts: int
    events: dict
    skipped: tuple = ()

    def __add__(self, other: "Counts") -> "Counts":
        if type(other) is not type(self) or other.settings != self.settings:
            raise ValueError("cannot add counts taken under different settings")
        return type(self)(
            settings=self.settings,
            parts=self.parts + other.parts,
            events={
                key: (shape, np.concatenate([cells, other.events[key][1]]))
                for key, (shape, cells) in self.events.items()
            },
            skipped=self.skipped + other.skipped,
        )

    @classmethod
    def collect(cls, config, parts, shapes: dict, cells: dict, skipped=()):
        """Counts taken under ``config`` whose events under each key of
        ``shapes`` are the arrays listed under that key of ``cells``."""
        empty = np.empty(0, dtype=np.intp)
        return cls(
            settings={name: getattr(config, name) for name in cls.SETTINGS},
            parts=parts,
            events={key: (shape, np.concatenate([empty, *cells[key]]))
                    for key, shape in shapes.items()},
            skipped=tuple(skipped),
        )

    def check(self, config) -> None:
        """EmptyCorpus for counts of no parts; ValueError naming the
        settings in which ``config`` differs from the counts'."""
        if self.parts == 0:
            raise EmptyCorpus("training corpus is empty")
        differ = [k for k, v in self.settings.items() if getattr(config, k) != v]
        if differ:
            raise ValueError(f"counts were taken under a different {' and '.join(differ)}")

    @cached_property
    def tables(self) -> dict:
        return {
            key: np.bincount(cells, minlength=math.prod(shape)).astype(float).reshape(shape)
            for key, (shape, cells) in self.events.items()
        }


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# what a config field annotated with each type must hold; numpy scalars count
_FIELD_TYPES = {
    "bool": ("a bool", lambda v: isinstance(v, (bool, np.bool_))),
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": ("a real number", _real),
    "tuple | None": ("None or real numbers", lambda v: v is None or all(map(_real, v))),
}


def check_fields(config) -> None:
    """The value rules of both model configs, by the fields of dataclass
    ``config``.  TypeError for a value that does not fit its annotation:
    ``bool`` takes a bool, ``int`` an integer, ``float`` a real number,
    ``tuple | None`` None or real numbers, and a bool is never a number.
    ValueError for a ``float`` not finite and non-negative (NaN fails
    too) or a ``delta_p_max`` outside 1..87."""
    for f in fields(config):
        kind = getattr(f.type, "__name__", f.type)
        what, fits = _FIELD_TYPES.get(kind, (None, None))
        value = getattr(config, f.name)
        if fits is not None and not fits(value):
            raise TypeError(f"{f.name} must be {what}, got {value!r}")
        if kind == "float":
            check_non_negative(f.name, value)
        # the widest interval on the keyboard; a larger cutoff clamps nothing
        if f.name == "delta_p_max" and not 1 <= value <= MIDI_MAX - MIDI_MIN:
            raise ValueError(f"delta_p_max must lie in 1..{MIDI_MAX - MIDI_MIN}, got {value}")


def check_non_negative(name: str, value) -> None:
    """ValueError unless ``value``, a number or a tuple of them, is finite
    and non-negative throughout."""
    if not all(0 <= v < math.inf for v in (value if isinstance(value, tuple) else (value,))):
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def normalize_rows(counts: np.ndarray) -> np.ndarray:
    """Rows (last axis) to distributions; an all-zero row becomes uniform."""
    sums = counts.sum(axis=-1, keepdims=True)
    uniform = np.full_like(counts, 1.0 / counts.shape[-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = counts / sums
    return np.where(sums > 0, probs, uniform)


def safe_log(table: np.ndarray) -> np.ndarray:
    """Elementwise log with zeros mapping to -inf, silently."""
    with np.errstate(divide="ignore"):
        return np.log(table)


# The exact-DP tie rule: score ties go to the lexicographically smallest
# state path, as enumeration finds it.  ``rank[s]`` places the best prefix
# ending in state s among all best prefixes; a tie takes the lowest rank.

def best_parents(scores: np.ndarray, rank: np.ndarray) -> tuple:
    """``(best, parent)`` of one DP step: the best of ``scores`` over axis
    0, the candidate parents, and the lowest-ranked candidate that reaches
    it; ``rank`` ranks the candidates, shaped to broadcast to ``scores``."""
    best = scores.max(axis=0)
    return best, np.where(scores == best, rank, rank.size).argmin(axis=0)


def best_path(dp: np.ndarray, rank: np.ndarray, parents: list) -> tuple:
    """``(best, path)`` after the last DP step: the best final score and the
    states of the lowest-ranked path to it, where ``parents[t][i]`` is the
    predecessor of state i at step t + 1; None if every score is -inf."""
    best = dp.max()
    if not best > NEG_INF:
        return best, None
    winner = np.flatnonzero(dp == best)
    path = [winner[rank[winner].argmin()]]
    for parent in reversed(parents):
        path.append(parent[path[-1]])
    return best, path[::-1]


def rerank(rank: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Lexicographic ranks after one DP step in which state i extends the
    best prefix of state ``parent[i]``: by (parent rank, own index), as
    the sort is stable."""
    order = np.argsort(rank[parent], kind="stable")
    new_rank = np.empty_like(order)
    new_rank[order] = np.arange(order.size)
    return new_rank


def fit_line(points, g, positive: str, distinct: str, log_y: bool = False) -> np.ndarray:
    """Least-squares ``(c0, c1)`` of ``y = c0 + c1 * g(x)`` (``log y`` if
    ``log_y``) over (x, y) ``points``; DegenerateFit for fewer than two,
    a non-positive x or log-y (``positive``), or one distinct x (``distinct``)."""
    points = list(points)
    if len(points) < 2:
        raise DegenerateFit("need at least two points")
    xs, ys = np.array(points, dtype=float).T
    if np.any(xs <= 0) or (log_y and np.any(ys <= 0)):
        raise DegenerateFit(positive)
    if np.unique(xs).size < 2:
        raise DegenerateFit(distinct)
    design = np.column_stack([np.ones_like(xs), g(xs)])
    coef, *_ = np.linalg.lstsq(design, np.log(ys) if log_y else ys, rcond=None)
    return coef
