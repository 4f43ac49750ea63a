"""Individual-difference statistics over multi-annotator fingerings.

Covers subset match rates among j annotators, the two-symbol independent
random reference model, finger-choice multiplicity histograms per note
and per consecutive same-hand note pair, and a power-function fit of the
match-rate decay against the number of compared players.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DegenerateFit, InsufficientAnnotators, OutOfDomain
from .pig_io import GroundTruthSet, hand_positions


class MultiplicityUnit(enum.Enum):
    NOTE = "note"
    NOTE_PAIR = "note-pair"


def multi_match_rate(gts, j: int) -> float:
    """Average over all j-subsets of annotators of the fraction of notes
    on which the whole subset agrees."""
    n_g = len(gts)
    if not 2 <= j <= n_g:
        raise InsufficientAnnotators(f"j={j} with {n_g} fingerings")
    lengths = {len(g) for g in gts}
    if len(lengths) != 1:
        raise InsufficientAnnotators(f"unequal sequence lengths {sorted(lengths)}")
    n = lengths.pop()
    total = 0.0
    count = 0
    for subset in combinations(range(n_g), j):
        agree = sum(
            len({gts[g][i] for g in subset}) == 1 for i in range(n)
        )
        total += agree / n
        count += 1
    return total / count


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


def multiplicity_distribution(
    gt_set: GroundTruthSet, unit: MultiplicityUnit
) -> dict:
    """Proportion of notes (or consecutive same-hand note pairs) by the
    number of distinct finger choices the annotators used."""
    n_g = len(gt_set)
    if n_g < 2:
        raise InsufficientAnnotators("multiplicities need at least two annotators")
    fingerings = gt_set.signed_fingerings
    counts: dict = {}
    if unit is MultiplicityUnit.NOTE:
        for i in range(len(gt_set.piece)):
            k = len({seq[i] for seq in fingerings})
            counts[k] = counts.get(k, 0) + 1
    else:
        for positions in hand_positions(gt_set.piece).values():
            for a, b in zip(positions, positions[1:]):
                k = len({(seq[a], seq[b]) for seq in fingerings})
                counts[k] = counts.get(k, 0) + 1
    total = sum(counts.values())
    if total == 0:
        return {}
    return {k: v / total for k, v in sorted(counts.items())}


def fit_power(points) -> tuple:
    """Least-squares fit of M = c * j**-gamma in log space.

    ``points`` are (j, M) pairs with positive coordinates; returns
    (c, gamma).
    """
    points = list(points)
    if len(points) < 2:
        raise DegenerateFit("need at least two points")
    js = np.array([float(j) for j, _ in points])
    ms = np.array([float(m) for _, m in points])
    if np.any(js <= 0) or np.any(ms <= 0):
        raise DegenerateFit("power fit needs positive coordinates")
    if np.unique(js).size < 2:
        raise DegenerateFit("need at least two distinct j values")
    design = np.column_stack([np.ones_like(js), np.log(js)])
    coef, *_ = np.linalg.lstsq(design, np.log(ms), rcond=None)
    return float(np.exp(coef[0])), float(-coef[1])


@dataclass(frozen=True)
class AgreementReport:
    """Corpus-level agreement statistics.

    ``match_rates`` maps j -> mean over pieces (with at least j
    annotators) of the j-way match rate; ``random_reference`` maps j to
    the two-symbol model prediction calibrated on the measured pairwise
    rate.  Histograms pool raw counts over all pieces.
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
    match_rates = {}
    for j in range(2, max_j + 1):
        values = [
            multi_match_rate(s.signed_fingerings, j) for s in gt_sets if len(s) >= j
        ]
        match_rates[j] = sum(values) / len(values)
    # the two-symbol reference has no real solution below 0.5
    if match_rates[2] >= 0.5:
        random_reference = {
            j: random_model_match(match_rates[2], j) for j in match_rates
        }
    else:
        random_reference = {j: math.nan for j in match_rates}
    if len(match_rates) >= 2:
        try:
            power_fit = fit_power(match_rates.items())
        except DegenerateFit:
            power_fit = (math.nan, math.nan)  # some rate hit zero
    else:
        power_fit = (match_rates[2], 0.0)

    def pooled(unit):
        counts: dict = {}
        for s in gt_sets:
            piece_counts = multiplicity_distribution(s, unit)
            # histogram values are proportions; pool by unit count
            if unit is MultiplicityUnit.NOTE:
                n_units = len(s.piece)
            else:
                n_units = sum(
                    max(0, len(positions) - 1)
                    for positions in hand_positions(s.piece).values()
                )
            for k, proportion in piece_counts.items():
                counts[k] = counts.get(k, 0.0) + proportion * n_units
        total = sum(counts.values())
        return {k: v / total for k, v in sorted(counts.items())} if total else {}

    return AgreementReport(
        match_rates=match_rates,
        random_reference=random_reference,
        power_fit=power_fit,
        note_multiplicity=pooled(MultiplicityUnit.NOTE),
        pair_multiplicity=pooled(MultiplicityUnit.NOTE_PAIR),
        n_pieces=len(gt_sets),
    )


def format_match_rate_table(report: AgreementReport) -> str:
    """Delimited (j, M_j, M_j_random) table for plotting."""
    lines = ["j\tmatch_rate\trandom_model"]
    for j in sorted(report.match_rates):
        lines.append(
            f"{j}\t{report.match_rates[j]!r}\t{report.random_reference[j]!r}"
        )
    c, gamma = report.power_fit
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
