"""Coefficient tuning, training-size scaling, and the asymptotic fit.

Tuning is a derivative-free box search: a seeded random-search stage
(warm-started from the base configuration) followed by coordinate-descent
refinement around the incumbent.  Every tuned coefficient acts after
counting, so the training pieces are counted once and each candidate
fits a model from those counts and scores its decoded fingerings on a
validation set.  The scaling experiment counts each training piece once
and fits a model to the summed counts of random piece subsets of
growing size; its match-rate curve is summarised by the two-parameter law
A(N) = a - b / sqrt(N), whose intercept ``a`` extrapolates to unlimited
training data.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import model_io
from ._tables import fit_line
from .errors import EmptyCorpus, HandOverflow
from .estimate import estimate_piece
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


def train_model(model_kind: str, config, train_pieces):
    """Train either model kind on whole pieces (hands split internally)."""
    kind = model_io.kind(model_kind)
    return kind.fit(kind.count(hand_parts(train_pieces), config), config)


def evaluate_model(model, gt_sets, measure: str = "m_gen") -> float:
    """Macro average of one match-rate measure over ground-truth sets.

    Pieces a chord model cannot decode (hand overflow) are excluded.
    """
    if measure not in MEASURES:
        raise ValueError(
            f"unknown measure {measure!r}; known measures: {', '.join(MEASURES)}"
        )
    pairs = []
    for gt_set in gt_sets:
        try:
            signed, _ = estimate_piece(model, gt_set.piece)
        except HandOverflow:
            continue
        pairs.append((signed, gt_set.signed_fingerings))
    if not pairs:
        raise EmptyCorpus("no piece could be evaluated")
    values = match_rates(measure, pairs)
    return sum(values) / len(values)


# --- coefficient tuning ---------------------------------------------------

RANDOM_FRACTION = 0.7  # share of a tuning budget spent on random candidates


@dataclass(frozen=True)
class TuningSpec:
    """Search box and objective of a tuning run.

    ``bounds`` maps names from the model kind's coefficient table,
    ``model_io.KINDS[kind].coefficients``, to (low, high); ``budget`` is
    the total number of model evaluations, split between random search
    and coordinate refinement.
    """

    bounds: dict
    objective: str = "m_gen"
    budget: int = 200

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if not self.bounds:
            raise ValueError("bounds must name at least one coefficient")
        for name, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"bad bounds for {name}: ({lo}, {hi})")


@dataclass(frozen=True)
class TuneResult:
    best_params: dict
    best_objective: float
    best_index: int
    trace: tuple             # (index, params, objective)


def tune(
    spec: TuningSpec,
    train_pieces,
    valid_sets,
    model_kind: str = "note-hmm",
    base_config=None,
    seed: int = 0,
) -> TuneResult:
    """Derivative-free search of the coefficient box.

    Spends ``RANDOM_FRACTION`` of the budget on seeded random candidates
    (the first candidate is the base configuration clipped into the box,
    so the result never scores below the shipped defaults) and the rest
    on coordinate-descent refinement.  Objective ties keep the earliest
    candidate.  A bound on a name that is not one of the kind's
    coefficients raises ValueError before any piece is counted.
    """
    kind = model_io.kind(model_kind)
    train_pieces = list(train_pieces)
    valid_sets = list(valid_sets)
    if not train_pieces or not valid_sets:
        raise EmptyCorpus("tuning needs non-empty train and validation data")
    if base_config is None:
        base_config = kind.config()
    rng = np.random.default_rng(seed)
    names = sorted(spec.bounds)
    trace = []
    state = {"best": None, "counts": None}  # best: (objective, index, params)

    def evaluate(params: dict) -> float:
        config = kind.with_coefficients(base_config, params)
        if state["counts"] is None:  # on first use, so a bad candidate fails first
            state["counts"] = kind.count(hand_parts(train_pieces), base_config)
        model = kind.fit(state["counts"], config)
        value = evaluate_model(model, valid_sets, spec.objective)
        index = len(trace)
        trace.append((index, dict(params), value))
        if state["best"] is None or value > state["best"][0]:
            state["best"] = (value, index, dict(params))
        return value

    def clip(name, value):
        lo, hi = spec.bounds[name]
        return min(hi, max(lo, value))

    n_random = min(spec.budget, max(1, round(spec.budget * RANDOM_FRACTION)))
    start = kind.coefficients(base_config)  # evaluate refuses an unknown name
    warm = {n: clip(n, start[n][0] if n in start else spec.bounds[n][0]) for n in names}
    evaluate(warm)
    while len(trace) < n_random:
        evaluate(
            {
                name: spec.bounds[name][0]
                + rng.random() * (spec.bounds[name][1] - spec.bounds[name][0])
                for name in names
            }
        )

    scale = 0.25
    while len(trace) < spec.budget:
        evaluations_before = len(trace)
        improved = False
        for name in names:
            if len(trace) >= spec.budget:
                break
            lo, hi = spec.bounds[name]
            step = scale * (hi - lo)
            current = state["best"][2]
            for direction in (1.0, -1.0):
                if len(trace) >= spec.budget:
                    break
                candidate = dict(current)
                candidate[name] = clip(name, current[name] + direction * step)
                if candidate == current:
                    continue
                before = state["best"][0]
                if evaluate(candidate) > before:
                    improved = True
                    break
        if not improved:
            scale /= 2.0
        if len(trace) == evaluations_before:
            break  # every proposal clipped onto the incumbent

    value, index, params = state["best"]
    return TuneResult(
        best_params=params, best_objective=value, best_index=index, trace=tuple(trace)
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
    model is fitted to the summed counts of each subset's pieces (each
    piece is counted once, when a subset first holds it) and scored on
    the test sets; the point records the mean subset note count and the
    mean and spread of the general match rate.  Fraction 1.0 is
    deterministic and evaluated once.  Fixed seeds reproduce
    bit-identical results.
    """
    kind = model_io.kind(model_kind)
    train_pieces = list(train_pieces)
    test_sets = list(test_sets)
    if not train_pieces or not test_sets:
        raise EmptyCorpus("scaling needs non-empty train and test data")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if config is None:
        config = kind.config()
    fractions = list(fractions)
    if not fractions:
        raise ValueError("fractions must hold at least one fraction")
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside (0, 1]")
    rng = np.random.default_rng(seed)
    n_total = len(train_pieces)
    counts = [None] * n_total

    def counts_of(i: int):
        if counts[i] is None:
            counts[i] = kind.count(hand_parts([train_pieces[i]]), config)
        return counts[i]

    points = []
    for fraction in fractions:
        n_pieces = max(1, round(fraction * n_total))
        reps = 1 if n_pieces == n_total else repeats
        rates, note_counts = [], []
        for _ in range(reps):
            chosen = sorted(rng.choice(n_total, size=n_pieces, replace=False))
            model = kind.fit(reduce(operator.add, map(counts_of, chosen)), config)
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
