"""What the note and chord HMMs share: digit states and their rule, config
value rules, annotated training parts, additive counts; the one DP step of
all three exact DPs (``LockStep.step``), alone in applying their tie rule
and reading each parent off its winning key;
and the two decoders' lock step over a set of parts."""

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DegenerateFit, EmptyCorpus, FingeringError, MissingFinger
from .pig_io import _is_digit, infer_hand
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
        missing = np.flatnonzero(piece.signed_fingers == 0)
        if missing.size:
            raise MissingFinger(f"note {piece.ids[missing[0]]} of {piece.piece_id!r} has no finger")
        digits = np.abs(piece.signed_fingers).astype(np.intp) - 1
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
    """ValueError unless every digit is a finger digit, by ``pig_io``'s rule."""
    for d in digits:
        if not _is_digit(d):
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
# the best prefixes ending in each state s of n, and ``rank[s] % n`` is s; a
# tie takes the lowest key, which so names the parent.
KEY_LIMIT = 1 << 62  # above every key: what ``LockStep.step`` gives a candidate off the best


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


# part-notes decoded in one lock-step DP, which keeps each step's parents
# and its parts' score tables: a larger set runs in several
LOCKSTEP = 4096


def decode_set(parts: list, prepare, run) -> list:
    """Per part, in order: its result from ``run`` or the FingeringError
    raised.  ``prepare(*part)`` gives its DP steps, its notes and what
    ``run`` reads of it; ``run`` decodes a list of those in one lock-step
    DP.  The parts go longest first by steps, ties in order, so those still
    running at a step are a prefix, and LOCKSTEP notes (or one part) a DP."""
    out, valid = [None] * len(parts), {}
    for i, part in enumerate(parts):
        try:
            valid[i] = prepare(*part)
        except FingeringError as exc:
            out[i] = exc
    order = sorted(valid, key=lambda i: -valid[i][0])
    while order:  # the longest run of parts whose notes fit, and at least one
        notes = np.cumsum([valid[i][1] for i in order])
        fit = max(1, int(np.searchsorted(notes, LOCKSTEP, side="right")))
        chunk, order = order[:fit], order[fit:]
        for i, result in zip(chunk, run([valid[i][2] for i in chunk])):
            out[i] = result
    return out


class LockStep:
    """One exact DP's bookkeeping over parts in lock step, longest first:
    ``running(b)`` gives the state scores of the first b, a row per part,
    and ``step`` takes one DP step of them; ``paths`` gets each part's
    None if its every path scores -inf, else its best score and the state
    of each step, within its row, of the lowest-ranked path to it.  The
    prefix keys and parents are flat, part p's from p times its row width,
    and each key ends in its state's flat index: ``rank % n`` is
    ``arange(n)``, n the number of states when the keys were made."""

    def __init__(self, dp: np.ndarray):
        self.dp, self.paths, self.parents, self.widths = dp, [None] * len(dp), [], [dp.shape[1]]
        self.rank, self.top, self.n = np.arange(dp.size), dp.size - 1, dp.size
        self.index = np.arange(dp.size)  # grown to fit each step's states

    def running(self, b: int) -> np.ndarray:
        """The scores of the first b parts; the others end here, and
        ``running(0)`` after the last step ends every part."""
        if b == len(self.dp):
            return self.dp
        width = self.dp.shape[1]
        for p in range(b, len(self.dp)):
            best, path = best_path(self.dp[p], self.rank[p * width : (p + 1) * width],
                                   self.parents, p * width)
            self.paths[p] = path and (float(best), [int(s) % w for s, w in zip(path, self.widths)])
        self.dp, self.rank = self.dp[:b], self.rank[: b * width]
        return self.dp

    def step(self, scores: np.ndarray, after: np.ndarray | None = None) -> np.ndarray:
        """One DP step of the running parts; returns their new scores.
        ``scores`` is (b, k, ..., n): axes 1 to -2, flattened, index the
        previous state and axes 2 to -1 the new state, so new state (r, d)
        has the k candidate parents (g, r).  ``after``, a (b, new states)
        term, is added once the parents are picked: no rounded sum moves a tie.
        A new state's parent is its best candidates' lowest key % ``n``, its
        key that key times the new n plus its flat index.  ``top``, a Python
        int, bounds the keys; where one could reach KEY_LIMIT, the parents'
        keys first become their dense ranks, one argsort per 62 / log2(n) steps."""
        best = np.maximum.reduce(scores, axis=1)
        keys = self.rank.reshape(scores.shape[:-1] + (1,))
        key = np.minimum.reduce(np.where(scores == best[:, None], keys, KEY_LIMIT), axis=1)
        key = key.reshape(-1)
        parent, n = key % self.n, key.size
        if self.top >= KEY_LIMIT // n:
            dense = np.empty_like(self.rank)
            dense[np.argsort(self.rank)] = np.arange(self.rank.size)
            key, self.top = dense[parent], self.rank.size - 1
        if n > self.index.size:
            self.index = np.arange(n)
        key *= n
        key += self.index[:n]
        self.rank, self.top, self.n = key, self.top * n + n - 1, n
        if after is not None:
            best += after
        self.dp = best.reshape(len(best), -1)
        self.parents.append(parent)
        self.widths.append(self.dp.shape[1])
        return self.dp


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
    # one distinct x, all NaNs counting as one value, as np.unique counts them
    if np.all((xs == xs[0]) | (np.isnan(xs) & np.isnan(xs[0]))):
        raise DegenerateFit(distinct)
    design = np.column_stack([np.ones_like(xs), g(xs)])
    coef, *_ = np.linalg.lstsq(design, np.log(ys) if log_y else ys, rcond=None)
    return coef
