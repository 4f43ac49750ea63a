"""Coefficient tuning, training-size scaling, and the asymptotic fit.

Tuning is a derivative-free search of the model kind's coefficient box,
``model_io.KINDS[kind].coefficients``: seeded random candidates, the
first the base configuration, then coordinate-descent refinement around
the incumbent.  Every tuned coefficient acts after counting, so the
training pieces are counted once and each candidate fits a model from
those counts and scores its decoded fingerings on a validation set.  The scaling experiment counts each
training piece once and fits a model to the pooled counts of random
piece subsets of growing size; its match-rate curve is summarised by the
two-parameter law A(N) = a - b / sqrt(N), whose intercept ``a``
extrapolates to unlimited training data.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from itertools import islice

import numpy as np

from . import model_io
from ._tables import Counts, fit_line
from .errors import EmptyCorpus, FingeringError, HandOverflow
from .estimate import estimate_pieces
from .eval_measures import MEASURES, match_rates
from .pig_io import split_hands


def fit_sqrt(points) -> tuple:
    """Least squares for A(N) = a - b / sqrt(N); returns (a, b).

    ``points`` are (N, value) pairs with positive N; at least two
    distinct N are required.
    """
    a, minus_b = fit_line(points, lambda ns: 1.0 / np.sqrt(ns), "sample sizes must be positive",
                          "need at least two distinct sample sizes")
    return float(a), float(-minus_b)


@dataclass(frozen=True)
class ScalingFit:
    """Fitted asymptotic law over scaling points."""

    points: tuple            # (N, match rate)
    a: float
    b: float
    residual_norm: float
    b_negative: bool         # flagged, not rejected: curve was not increasing

    @classmethod
    def from_points(cls, points) -> "ScalingFit":
        points = tuple((float(n), float(y)) for n, y in points)
        a, b = fit_sqrt(points)
        residual = math.sqrt(
            sum((y - (a - b / math.sqrt(n))) ** 2 for n, y in points)
        )
        return cls(points=points, a=a, b=b, residual_norm=residual, b_negative=b < 0)


# --- shared evaluation ----------------------------------------------------

def hand_parts(pieces) -> list:
    """Non-empty single-hand parts of whole pieces."""
    parts = []
    for piece in pieces:
        for part in split_hands(piece):
            if len(part):
                parts.append(part)
    return parts


def _kind(model_kind: str, config) -> tuple:
    """The ``KINDS`` entry of a kind name and the config, the kind's
    default if None; ValueError for a config of the other kind."""
    kind = model_io.kind(model_kind)
    if config is not None and model_io.model_kind(config) != model_kind:
        raise ValueError(f"a {model_kind} model cannot take a {model_io.model_kind(config)} config")
    return kind, kind.config() if config is None else config


def train_model(model_kind: str, config, train_pieces):
    """Train either model kind on whole pieces (hands split internally)."""
    kind, config = _kind(model_kind, config)
    return kind.fit(kind.count(hand_parts(train_pieces), config), config)


def _check_measure(measure: str) -> None:
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; known measures: {', '.join(MEASURES)}")


def evaluate_model(model, gt_sets, measure: str = "m_gen") -> float:
    """Macro average of one match-rate measure over ground-truth sets.

    Every hand part of every piece is decoded in one ``estimate_pieces``
    call: a model of either kind runs one lock-step DP per
    ``_tables.LOCKSTEP`` part-notes.  Pieces a chord model cannot decode
    (hand overflow) are excluded; any other decode error is raised.
    """
    _check_measure(measure)
    gt_sets = list(gt_sets)
    pairs = []
    for gt_set, estimate in zip(gt_sets, estimate_pieces(model, [s.piece for s in gt_sets])):
        if isinstance(estimate, HandOverflow):
            continue
        if isinstance(estimate, FingeringError):
            raise estimate
        pairs.append((estimate[0], gt_set.signed_fingerings))
    if not pairs:
        raise EmptyCorpus("no piece could be evaluated")
    values = match_rates(measure, pairs)
    return sum(values) / len(values)


# --- coefficient tuning ---------------------------------------------------

RANDOM_FRACTION = 0.7  # share of a tuning budget spent on random candidates


@dataclass(frozen=True)
class TuneResult:
    best_params: dict
    best_objective: float
    best_index: int
    trace: tuple             # (index, params, objective)


def tune(
    train_pieces,
    valid_sets,
    model_kind: str = "note-hmm",
    base_config=None,
    objective: str = "m_gen",
    budget: int = 200,
    seed: int = 0,
) -> TuneResult:
    """Derivative-free search of the box ``kind.coefficients(base_config)``
    spans: each tunable coefficient within its range, in the table's order.

    At most ``budget`` candidates are scored on ``objective``, the first
    ``RANDOM_FRACTION`` of them seeded random draws (the first of all is
    the base configuration clipped into the box, so the result never
    scores below it), the rest coordinate-descent refinement.  Objective
    ties keep the earliest candidate.
    """
    kind, base_config = _kind(model_kind, base_config)
    _check_measure(objective)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    train_pieces = list(train_pieces)
    valid_sets = list(valid_sets)
    if not train_pieces or not valid_sets:
        raise EmptyCorpus("tuning needs non-empty train and validation data")
    table = kind.coefficients(base_config)
    rng = np.random.default_rng(seed)
    trace = []

    def incumbent() -> tuple:
        return max(trace, key=operator.itemgetter(2))  # the earliest of tied maxima

    def candidates():
        """The warm start, the random draws, then coordinate proposals; each
        proposal reads the incumbent after the previous candidate is in ``trace``."""
        yield {n: min(hi, max(lo, value)) for n, (value, (lo, hi)) in table.items()}
        for _ in range(round(budget * RANDOM_FRACTION) - 1):
            yield {n: lo + rng.random() * (hi - lo) for n, (_, (lo, hi)) in table.items()}
        scale = 0.25
        while True:
            proposed = improved = False
            for name, (_, (lo, hi)) in table.items():
                step = scale * (hi - lo)
                for direction in (1.0, -1.0):
                    _, current, value = incumbent()
                    moved = min(hi, max(lo, current[name] + direction * step))
                    if moved == current[name]:
                        continue
                    yield {**current, name: moved}
                    proposed = True
                    if trace[-1][2] > value:  # the candidate became the incumbent
                        improved = True
                        break
            if not proposed:
                return  # every proposal clipped onto the incumbent
            if not improved:
                scale /= 2.0

    counts = kind.count(hand_parts(train_pieces), base_config)
    for params in islice(candidates(), budget):
        model = kind.fit(counts, kind.set_coefficients(base_config, params))
        trace.append((len(trace), params, evaluate_model(model, valid_sets, objective)))
    index, params, value = incumbent()
    return TuneResult(
        best_params=dict(params), best_objective=value, best_index=index, trace=tuple(trace)
    )


# --- training-size scaling ------------------------------------------------

@dataclass(frozen=True)
class ScalingPoint:
    fraction: float
    n_pieces: int
    mean_notes: float
    mean_match_rate: float
    std_match_rate: float
    repeats: int


def scaling_experiment(
    train_pieces,
    test_sets,
    fractions,
    repeats: int,
    model_kind: str = "note-hmm",
    config=None,
    seed: int = 0,
) -> list:
    """Match rate as a function of training-set size.

    For each fraction, ``repeats`` random piece subsets are drawn, a
    model is fitted to the pooled counts of each subset's pieces (each
    piece is counted once, when a subset first holds it) and scored on
    the test sets; the point records the mean subset note count and the
    mean and spread of the general match rate.  Fraction 1.0 is
    deterministic and evaluated once.  Fixed seeds reproduce
    bit-identical results.
    """
    kind, config = _kind(model_kind, config)
    train_pieces = list(train_pieces)
    test_sets = list(test_sets)
    if not train_pieces or not test_sets:
        raise EmptyCorpus("scaling needs non-empty train and test data")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    fractions = list(fractions)
    if not fractions:
        raise ValueError("fractions must hold at least one fraction")
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside (0, 1]")
    rng = np.random.default_rng(seed)
    n_total = len(train_pieces)
    counts_of = cache(lambda i: kind.count(hand_parts([train_pieces[i]]), config))

    points = []
    for fraction in fractions:
        n_pieces = max(1, round(fraction * n_total))
        reps = 1 if n_pieces == n_total else repeats
        rates, note_counts = [], []
        for _ in range(reps):
            chosen = sorted(rng.choice(n_total, size=n_pieces, replace=False))
            model = kind.fit(Counts.pool([counts_of(i) for i in chosen]), config)
            rates.append(evaluate_model(model, test_sets))
            note_counts.append(sum(len(train_pieces[i]) for i in chosen))
        mean_rate = sum(rates) / len(rates)
        std = math.sqrt(sum((r - mean_rate) ** 2 for r in rates) / len(rates))
        points.append(
            ScalingPoint(
                fraction=fraction,
                n_pieces=n_pieces,
                mean_notes=sum(note_counts) / len(note_counts),
                mean_match_rate=mean_rate,
                std_match_rate=std,
                repeats=reps,
            )
        )
    return points


def _meta_line(meta: dict | None) -> list:
    if not meta:
        return []
    rendered = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
    return [f"# {rendered}"]


def format_scaling_table(points, fit: ScalingFit | None = None, meta: dict | None = None) -> str:
    lines = _meta_line(meta)
    lines.append("fraction\tn_pieces\tmean_notes\tmean_match_rate\tstd\trepeats")
    for p in points:
        lines.append(
            f"{p.fraction!r}\t{p.n_pieces}\t{p.mean_notes!r}\t"
            f"{p.mean_match_rate!r}\t{p.std_match_rate!r}\t{p.repeats}"
        )
    if fit is not None:
        lines.append(
            f"# fit: a={fit.a!r} b={fit.b!r} residual={fit.residual_norm!r}"
        )
    return "".join(line + "\n" for line in lines)


def format_tuning_trace(result: TuneResult, meta: dict | None = None) -> str:
    lines = _meta_line(meta)
    lines.append("index\tobjective\tparams")
    for index, params, value in result.trace:
        rendered = " ".join(f"{k}={params[k]!r}" for k in sorted(params))
        lines.append(f"{index}\t{value!r}\t{rendered}")
    lines.append(
        f"# best: index={result.best_index} objective={result.best_objective!r}"
    )
    return "".join(line + "\n" for line in lines)
