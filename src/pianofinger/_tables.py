"""Small helpers shared by the table-based models and the exact DPs."""

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class Counts:
    """Additive training counts of a model, held sparse: ``events`` maps
    each table key to ``(shape, cells)``, the flat cell of every counted
    event in a table of that shape, and ``tables`` tallies them, on first
    use, into float64 tables of whole numbers.

    Adding two counts joins their events and their ``skipped`` ids (the
    parts left out), so the tables of a sum are exactly those of the
    pooled parts, whatever the order of the sum.  ``parts`` is the number
    of non-empty parts counted and ``settings`` the config fields the
    events depend on.
    """

    settings: tuple
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
    def collect(cls, settings, parts, shapes: dict, cells: dict, skipped=()):
        """Counts whose events under each key of ``shapes`` are the
        concatenated arrays listed under that key of ``cells``."""
        empty = np.empty(0, dtype=np.intp)
        return cls(
            settings=settings,
            parts=parts,
            events={key: (shape, np.concatenate([empty, *cells[key]]))
                    for key, shape in shapes.items()},
            skipped=tuple(skipped),
        )

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


def check_field_types(config) -> None:
    """TypeError for a field of the dataclass ``config`` whose value does
    not fit its annotation: ``bool`` takes a bool, ``int`` an integer,
    ``float`` a real number, ``tuple | None`` None or real numbers, and a
    bool is never a number."""
    for f in fields(config):
        what, fits = _FIELD_TYPES.get(getattr(f.type, "__name__", f.type), (None, None))
        value = getattr(config, f.name)
        if fits is not None and not fits(value):
            raise TypeError(f"{f.name} must be {what}, got {value!r}")


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


def backtrack(parents, last) -> list:
    """State indices of the path that ends in state ``last``, where
    ``parents[t][i]`` is the predecessor of state i at step t + 1."""
    path = [last]
    for parent in reversed(parents):
        path.append(parent[path[-1]])
    path.reverse()
    return path


def rerank(rank: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Lexicographic ranks after one DP step in which state i extends the
    best prefix of state ``parent[i]``: by (parent rank, own index), as
    the sort is stable."""
    order = np.argsort(rank[parent], kind="stable")
    new_rank = np.empty_like(order)
    new_rank[order] = np.arange(order.size)
    return new_rank

