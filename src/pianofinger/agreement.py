"""Individual-difference statistics over multi-annotator fingerings.

Every statistic counts choices per note in one table of signed fingers
(one row per annotator).  The j-way match rate is the fraction of (note,
j annotators) combinations in which all j chose the same finger: a note
on which c of G annotators chose one finger holds C(c, j) of them, so
M_j = sum over notes and fingers of C(c, j), over n * C(G, j) for n
notes.  Also covered: the two-symbol independent random reference model,
finger-choice multiplicity histograms per note and per consecutive
same-hand note pair (pooled over pieces as raw counts), and a power fit
of M_j against j.  ``analyze_sets`` computes them all for a corpus, a
single piece included.  A value with no definition is NaN in
``AgreementReport`` and an empty cell, or ``# power fit: undefined``,
in the formatted tables.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._tables import fit_line
from .errors import DegenerateFit, InsufficientAnnotators, LengthMismatch, OutOfDomain
from .pig_io import GroundTruthSet, hand_positions


class MultiplicityUnit(enum.Enum):
    NOTE = "note"
    NOTE_PAIR = "note-pair"


def _label_counts(gt_set: GroundTruthSet, unit: MultiplicityUnit) -> list:
    """Per distinct column of choices (the annotators' signed fingers on
    a note, or their (finger, next finger) pairs on a consecutive
    same-hand note pair): how many notes or pairs received it, and how
    many annotators made each distinct choice in it."""
    notes = list(zip(*gt_set.signed_fingerings))
    if unit is MultiplicityUnit.NOTE:
        columns = Counter(notes)
    else:
        pairs = Counter()
        for positions in hand_positions(gt_set.piece).values():
            hand = list(map(notes.__getitem__, positions.tolist()))
            pairs.update(zip(hand, hand[1:]))
        columns = {tuple(zip(*pair)): times for pair, times in pairs.items()}
    return [(times, Counter(column).values()) for column, times in columns.items()]


def _match_rate(label_counts: list, n_g: int, j: int) -> float:
    n = sum(times for times, _ in label_counts)
    if n == 0:
        raise LengthMismatch("sequences must be non-empty")
    agreeing = sum(
        times * math.comb(c, j) for times, counts in label_counts for c in counts
    )
    return agreeing / (n * math.comb(n_g, j))


def _histogram(label_counts) -> dict:
    """Proportion of notes (or note pairs) by their number of distinct
    choices, from raw counts."""
    counts = Counter()
    for times, labels in label_counts:
        counts[len(labels)] += times
    total = sum(counts.values())
    return {k: v / total for k, v in sorted(counts.items())} if total else {}


def random_model_match(m2: float, j: int) -> float:
    """Expected j-way match rate of independent per-note choices between
    two symbols, calibrated so that the pairwise rate equals ``m2``.

    With symbol probabilities w and 1-w, the pairwise match rate is
    w^2 + (1-w)^2; solving for w >= 1/2 and extending gives
    M_j = w^j + (1-w)^j.
    """
    if not 0.5 <= m2 <= 1.0:
        raise OutOfDomain(f"two-symbol model needs m2 in [0.5, 1], got {m2}")
    omega = (1.0 + math.sqrt(2.0 * m2 - 1.0)) / 2.0
    return omega**j + (1.0 - omega) ** j


def fit_power(points) -> tuple:
    """Least-squares fit of M = c * j**-gamma in log space.

    ``points`` are (j, M) pairs with positive coordinates; returns
    (c, gamma).
    """
    log_c, minus_gamma = fit_line(points, np.log, "power fit needs positive coordinates",
                                  "need at least two distinct j values", log_y=True)
    return float(np.exp(log_c)), float(-minus_gamma)


@dataclass(frozen=True)
class AgreementReport:
    """Corpus-level agreement statistics.

    ``match_rates`` maps j -> mean over pieces (with at least j
    annotators) of the j-way match rate; ``random_reference`` maps j to
    the two-symbol model prediction calibrated on the measured pairwise
    rate, NaN below 0.5; ``power_fit`` is NaN when a rate is zero.
    Histograms pool raw counts over all pieces.
    """

    match_rates: dict
    random_reference: dict
    power_fit: tuple           # (c, gamma)
    note_multiplicity: dict
    pair_multiplicity: dict
    n_pieces: int


def analyze_sets(gt_sets) -> AgreementReport:
    """Agreement statistics for a corpus of multi-annotator pieces."""
    gt_sets = [s for s in gt_sets if len(s) >= 2]
    if not gt_sets:
        raise InsufficientAnnotators("no piece has two or more annotators")
    max_j = max(len(s) for s in gt_sets)
    note_counts = [_label_counts(s, MultiplicityUnit.NOTE) for s in gt_sets]
    match_rates = {}
    for j in range(2, max_j + 1):
        values = [_match_rate(counts, len(s), j)
                  for s, counts in zip(gt_sets, note_counts) if len(s) >= j]
        match_rates[j] = sum(values) / len(values)
    m2 = match_rates[2]  # the two-symbol reference has no real solution below 0.5
    random_reference = {
        j: random_model_match(m2, j) if m2 >= 0.5 else math.nan for j in match_rates
    }
    if len(match_rates) >= 2:
        try:
            power_fit = fit_power(match_rates.items())
        except DegenerateFit:
            power_fit = (math.nan, math.nan)  # some rate hit zero
    else:
        power_fit = (match_rates[2], 0.0)

    pair_counts = (_label_counts(s, MultiplicityUnit.NOTE_PAIR) for s in gt_sets)
    return AgreementReport(
        match_rates=match_rates,
        random_reference=random_reference,
        power_fit=power_fit,
        note_multiplicity=_histogram(chain.from_iterable(note_counts)),
        pair_multiplicity=_histogram(chain.from_iterable(pair_counts)),
        n_pieces=len(gt_sets),
    )


def format_match_rate_table(report: AgreementReport) -> str:
    """Delimited (j, M_j, M_j_random) table for plotting."""
    lines = ["j\tmatch_rate\trandom_model"]
    for j in sorted(report.match_rates):
        reference = report.random_reference[j]
        cell = "" if math.isnan(reference) else repr(reference)
        lines.append(f"{j}\t{report.match_rates[j]!r}\t{cell}")
    c, gamma = report.power_fit
    if math.isnan(c) or math.isnan(gamma):
        lines.append("# power fit: undefined")
    else:
        lines.append(f"# power fit: c={c!r} gamma={gamma!r}")
    return "".join(line + "\n" for line in lines)


def format_multiplicity_table(report: AgreementReport) -> str:
    """Delimited (unit, choices, proportion) table for plotting."""
    lines = ["unit\tchoices\tproportion"]
    for unit, hist in (
        ("note", report.note_multiplicity),
        ("note-pair", report.pair_multiplicity),
    ):
        for k, proportion in hist.items():
            lines.append(f"{unit}\t{k}\t{proportion!r}")
    return "".join(line + "\n" for line in lines)
