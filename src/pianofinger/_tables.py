"""What the note and chord HMMs share: digit states and their rule, config
value rules, annotated training parts, additive counts, the exact-DP tie rule."""

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

    Pooling counts joins their events and their ``skipped`` ids (the
    parts left out), in order, so the tables of a pool are exactly those
    of the pooled parts, whatever their order.  ``parts`` is the number
    of non-empty parts counted and ``settings`` maps the config fields
    the events depend on, which a subclass names in ``SETTINGS``, to
    their values.
    """

    settings: dict
    parts: int
    events: dict
    skipped: tuple = ()

    @staticmethod
    def pool(counts: list) -> "Counts":
        """The counts of the parts behind a list of counts of one type and settings."""
        first = counts[0]
        if any(type(c) is not type(first) or c.settings != first.settings for c in counts):
            raise ValueError("cannot pool counts taken under different settings")
        return type(first)(
            settings=first.settings,
            parts=sum(c.parts for c in counts),
            events={key: (shape, np.concatenate([c.events[key][1] for c in counts]))
                    for key, (shape, _) in first.events.items()},
            skipped=tuple(part for c in counts for part in c.skipped),
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


def check_digits(digits) -> None:
    """ValueError unless every digit is an integer 1 to 5, not a bool."""
    for d in digits:
        if isinstance(d, bool) or not (isinstance(d, (int, np.integer)) and 1 <= d <= N_DIGITS):
            raise ValueError(f"finger digit {d!r} is not an integer 1 to 5")


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
# state path, as enumeration finds it.  ``rank[s]`` is an int64 key ordering
# the best prefixes ending in each state s; a tie takes the lowest key.
KEY_LIMIT = 1 << 62  # above every key: the sentinel of best_parents


def best_parents(scores: np.ndarray, rank: np.ndarray) -> tuple:
    """``(best, parent)`` of one DP step: the best of ``scores`` over axis
    0, the candidate parents, and the lowest-ranked candidate that reaches
    it; ``rank`` ranks the candidates, shaped to broadcast to ``scores``."""
    best = np.maximum.reduce(scores)
    return best, np.where(scores == best, rank, KEY_LIMIT).argmin(axis=0)


def best_path(dp: np.ndarray, rank: np.ndarray, parents: list, offset: int = 0) -> tuple:
    """``(best, path)`` after the last DP step: the best final score and the
    states of the lowest-ranked path to it, where ``parents[t][i]`` is the
    predecessor of state i at step t + 1 and ``dp[0]`` is state ``offset``
    of the last step; None if every score is -inf."""
    best = dp.max()
    if not best > NEG_INF:
        return best, None
    winner = np.flatnonzero(dp == best)
    path = [offset + winner[rank[winner].argmin()]]
    for parent in reversed(parents):
        path.append(parent[path[-1]])
    return best, path[::-1]


def rerank(rank: np.ndarray, parent: np.ndarray, top: int, index=None) -> tuple:
    """``(keys, top)`` after one DP step in which state i of n extends the
    best prefix of state ``parent[i]``: the keys ``rank[parent[i]] * n +
    i``, in (parent rank, own index) order, and a bound on them.  ``top``
    bounds the keys of ``rank``: a Python int the caller carries from step
    to step, so that no step reads ``rank.max()``; ``index``, if given, is
    ``np.arange(n)``, kept by a caller of many steps.  Where a key could
    reach KEY_LIMIT, ``rank`` first becomes the dense ranks of its keys,
    one argsort per 62 / log2(n) steps."""
    n = parent.size
    if top >= KEY_LIMIT // n:
        dense = np.empty_like(rank)
        dense[np.argsort(rank)] = np.arange(rank.size)
        rank, top = dense, rank.size - 1
    return rank[parent] * n + (np.arange(n) if index is None else index), top * n + n - 1


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
