"""Match rates of an estimated fingering against multiple ground truths.

Four measures are computed over aligned sequences of finger labels:

* general match rate: per-ground-truth match rates, averaged;
* highest match rate: the best single ground truth;
* soft match rate: fraction of notes matching at least one ground truth;
* recombination match rate: the reference sequence is allowed to switch
  between ground truths, each switch costing ``c_rec`` where the switched
  sequences agree (``c_rec_prime``, by default infinite, elsewhere) and
  each residual mismatch costing ``c_sub``; the minimum total edit cost
  E over all switching paths gives M_rec = (N - E) / N.

Labels can be any hashables; the library passes signed finger integers.
Infinite costs use ``math.inf`` so that path feasibility is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ._tables import backtrack, prefix_ranks
from .errors import LengthMismatch
from .pig_io import hand_positions

INF = math.inf


@dataclass(frozen=True)
class RecombinationConfig:
    """Edit costs of the recombination measure.

    The defaults (switch 1 where fingers agree, forbidden elsewhere,
    mismatch 1) are the standard measure definition.
    """

    c_rec: float = 1.0
    c_rec_prime: float = INF
    c_sub: float = 1.0

    def __post_init__(self):
        for name in ("c_rec", "c_rec_prime", "c_sub"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


DEFAULT_COSTS = RecombinationConfig()


@dataclass(frozen=True)
class MatchRateReport:
    """All four measures for one estimate, as fractions in [0, 1]."""

    m_gen: float
    m_high: float
    m_soft: float
    m_rec: float
    e_rec: float
    n_notes: int
    n_ground_truths: int


def _check(est, gts):
    if not gts:
        raise LengthMismatch("need at least one ground truth")
    n = len(est)
    if n == 0:
        raise LengthMismatch("sequences must be non-empty")
    for g, gt in enumerate(gts):
        if len(gt) != n:
            raise LengthMismatch(f"ground truth {g} has {len(gt)} notes, estimate {n}")
    return n


def general_match_rate(est, gts) -> float:
    """Mean over ground truths of the per-ground-truth match rate."""
    n = _check(est, gts)
    total = sum(sum(e == g for e, g in zip(est, gt)) for gt in gts)
    return total / (n * len(gts))


def highest_match_rate(est, gts) -> float:
    """Match rate against the closest single ground truth."""
    n = _check(est, gts)
    return max(sum(e == g for e, g in zip(est, gt)) for gt in gts) / n


def soft_match_rate(est, gts) -> float:
    """Fraction of notes matching at least one ground truth."""
    n = _check(est, gts)
    hits = sum(any(est[i] == gt[i] for gt in gts) for i in range(n))
    return hits / n


def recombination_match_rate(est, gts, config: RecombinationConfig = DEFAULT_COSTS):
    """Minimum-edit-cost recombined reference; returns (M_rec, E_rec, path).

    The path is the 0-based ground-truth index chosen at each note; exact
    cost ties resolve to the lexicographically smallest path, i.e. the
    smallest ground-truth indices: ``rank[g]`` places the best prefix
    ending in g among all best prefixes, a tie goes to the lower-ranked
    predecessor, and prefixes re-rank by (parent rank, g) after each note,
    so ties cost O(ground truths) per note.
    """
    n = _check(est, gts)
    n_g = len(gts)

    def sub(pos, g):
        return 0.0 if gts[g][pos] == est[pos] else config.c_sub

    def switch(pos, g_prev, g):
        if g_prev == g:
            return 0.0
        return config.c_rec if gts[g][pos] == gts[g_prev][pos] else config.c_rec_prime

    dp = [sub(0, g) for g in range(n_g)]
    identity = list(range(n_g))
    rank = identity
    parents = []
    for pos in range(1, n):
        new_dp, new_parents = [], []
        for g in range(n_g):
            best, best_prev = INF, 0
            for g_prev in range(n_g):
                if dp[g_prev] == INF:
                    continue
                cand = dp[g_prev] + switch(pos, g_prev, g)
                if cand < best:
                    best, best_prev = cand, g_prev
                elif cand == best < INF and rank[g_prev] < rank[best_prev]:
                    best_prev = g_prev
            new_dp.append(best + sub(pos, g) if best < INF else INF)
            new_parents.append(best_prev)
        dp = new_dp
        parents.append(new_parents)
        if new_parents != identity:  # if each g keeps its parent, ranks hold
            rank = prefix_ranks(rank, new_parents)

    e_rec = min(dp)
    path = (0,) * n  # kept when every path is equally infeasible
    if e_rec < INF:
        last = min((g for g, v in enumerate(dp) if v == e_rec), key=rank.__getitem__)
        path = tuple(backtrack(parents, last))
    return (n - e_rec) / n, e_rec, path


# match-rate function of each measure, in report-column order
MEASURES = {
    "m_gen": general_match_rate,
    "m_high": highest_match_rate,
    "m_soft": soft_match_rate,
    "m_rec": lambda est, gts: recombination_match_rate(est, gts)[0],
}


def match_rate_report(
    est, gts, config: RecombinationConfig = DEFAULT_COSTS
) -> MatchRateReport:
    """All four measures at once."""
    m_rec, e_rec, _ = recombination_match_rate(est, gts, config)
    return MatchRateReport(
        m_gen=general_match_rate(est, gts),
        m_high=highest_match_rate(est, gts),
        m_soft=soft_match_rate(est, gts),
        m_rec=m_rec,
        e_rec=e_rec,
        n_notes=len(est),
        n_ground_truths=len(gts),
    )


def hand_reports(piece_id, piece, gts, est=None) -> list:
    """Reports for a whole piece and for each of its hands that has notes.

    Returns (row key, report) pairs keyed ``piece_id``, ``piece_id/rh``
    and ``piece_id/lh``; ``est`` and ``gts`` are aligned with
    ``piece.notes``.  Without ``est`` the rows are leave-one-out: each
    ground truth in turn is scored against the others and every row is
    the mean over annotators, with ``n_ground_truths`` counting all of
    them.
    """
    if est is None:
        per_annotator = [
            hand_reports(piece_id, piece, gts[:i] + gts[i + 1 :], own)
            for i, own in enumerate(gts)
        ]
        rows = []
        for row in zip(*per_annotator):
            reports = [report for _, report in row]
            means = {
                m: sum(getattr(r, m) for r in reports) / len(reports)
                for m in (*MEASURES, "e_rec")
            }
            mean = replace(reports[0], **means, n_ground_truths=len(gts))
            rows.append((row[0][0], mean))
        return rows
    rows = [(piece_id, match_rate_report(est, gts))]
    for hand, positions in hand_positions(piece).items():
        if positions:
            sub_est = [est[i] for i in positions]
            sub_gts = [[gt[i] for i in positions] for gt in gts]
            rows.append(
                (f"{piece_id}/{hand.name.lower()}", match_rate_report(sub_est, sub_gts))
            )
    return rows


def summarize(piece_reports: dict) -> dict:
    """Aggregate per-piece reports into macro and micro corpus averages.

    ``piece_reports`` maps piece id -> MatchRateReport.  Macro averages
    weight every piece equally; micro averages weight by note count.
    Returns a flat dict with ``macro_*`` and ``micro_*`` keys.
    """
    if not piece_reports:
        raise LengthMismatch("no piece reports to summarise")
    reports = list(piece_reports.values())
    total_notes = sum(r.n_notes for r in reports)
    out = {"n_pieces": len(reports), "n_notes": total_notes}
    for measure in MEASURES:
        values = [getattr(r, measure) for r in reports]
        out[f"macro_{measure}"] = sum(values) / len(values)
        out[f"micro_{measure}"] = (
            sum(getattr(r, measure) * r.n_notes for r in reports) / total_notes
        )
    return out


def format_report_text(piece_reports: dict, summary: dict) -> str:
    """Human-readable report: one record per piece plus the corpus
    summary from ``summarize``, match rates as one-decimal percentages."""
    width = max([len("piece")] + [len(str(p)) for p in piece_reports] + [5])
    columns = "  ".join(f"{'M' + m[1:]:>6}" for m in MEASURES)
    lines = [f"{'piece':>{width}}  notes  gts  {columns}"]

    def row(label, notes, gts, values):
        cells = "  ".join(f"{100.0 * v:6.1f}" for v in values)
        return f"{label:>{width}}  {notes:5d}  {gts:3d}  {cells}"

    for piece_id in sorted(piece_reports):
        r = piece_reports[piece_id]
        lines.append(
            row(str(piece_id), r.n_notes, r.n_ground_truths,
                [getattr(r, m) for m in MEASURES])
        )
    for kind in ("macro", "micro"):
        lines.append(
            row(kind, summary["n_notes"], summary["n_pieces"],
                [summary[f"{kind}_{m}"] for m in MEASURES])
        )
    return "".join(line + "\n" for line in lines)


def format_report_table(piece_reports: dict, summary: dict) -> str:
    """Tab-separated table: one row per piece plus the corpus summary
    rows from ``summarize``.

    Match rates appear twice: fixed one-decimal percent columns for
    reading, full-precision fractions for machines.
    """
    header = ["piece", "notes", "gts"]
    header += [f"{m}_pct" for m in MEASURES]
    header += [f"{m}_frac" for m in MEASURES]
    lines = ["\t".join(header)]
    for piece_id in sorted(piece_reports):
        r = piece_reports[piece_id]
        row = [str(piece_id), str(r.n_notes), str(r.n_ground_truths)]
        row += [f"{100.0 * getattr(r, m):.1f}" for m in MEASURES]
        row += [repr(getattr(r, m)) for m in MEASURES]
        lines.append("\t".join(row))
    for kind in ("macro", "micro"):
        row = [kind, str(summary["n_notes"]), str(summary["n_pieces"])]
        row += [f"{100.0 * summary[f'{kind}_{m}']:.1f}" for m in MEASURES]
        row += [repr(summary[f"{kind}_{m}"]) for m in MEASURES]
        lines.append("\t".join(row))
    return "".join(line + "\n" for line in lines)
