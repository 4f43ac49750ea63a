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

Labels are scalars compared with ``==`` (numbers or strings); the library
passes signed finger integers.  Infinite costs use ``math.inf`` so that
path feasibility is exact.

The recombination DP runs in lock step: ``recombination_match_rates``,
``match_rates`` and ``hand_reports`` group their rows by ground-truth
count G, sort each group longest first, and advance every unfinished row
of a group by one note per numpy step, dropping rows as they end.  A
G = 1 row needs no DP: its one path stays on ground truth 0 and E is the
running sum (``np.add.accumulate``) of its substitution costs.  Batch at
the caller: ``cli.cmd_evaluate`` scores every piece, hand and
leave-one-out row of an ``evaluate`` call in one ``hand_reports`` call,
and ``experiments.evaluate_model`` every validation piece in one
``match_rates`` call.  A lone ``recombination_match_rate`` call is a
batch of one, which pays numpy's per-step overhead for a single row:
about 30 us per note at G = 2 and at G = 5, against 3 and 13 us for the
plain loop it replaced, and 0.2-0.9 us per note at G = 1 (Xeon vCPU,
Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import LengthMismatch
from .pig_io import hand_positions

INF = math.inf


@dataclass(frozen=True)
class RecombinationConfig:
    """Edit costs of the recombination measure.

    The defaults (switch 1 where fingers agree, forbidden elsewhere,
    mismatch 1) are the standard measure definition.  A cost is a
    non-negative float, ``math.inf`` included; NaN is refused.
    """

    c_rec: float = 1.0
    c_rec_prime: float = INF
    c_sub: float = 1.0

    def __post_init__(self):
        for name in ("c_rec", "c_rec_prime", "c_sub"):
            value = getattr(self, name)
            if not value >= 0:  # NaN fails too
                raise ValueError(f"{name} must be non-negative, got {value}")
            # -0.0 is kept as 0.0: the DP adds a 0.0 stay cost that the
            # G = 1 running sum does not, and the two agree only without it
            object.__setattr__(self, name, float(value) + 0.0)


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
    if not len(gts):
        raise LengthMismatch("need at least one ground truth")
    n = len(est)
    if n == 0:
        raise LengthMismatch("sequences must be non-empty")
    for g, gt in enumerate(gts):
        if len(gt) != n:
            raise LengthMismatch(f"ground truth {g} has {len(gt)} notes, estimate {n}")
    return n


def _row(est, gts) -> tuple:
    """One scored row: the (G, n) ground-truth labels and the (G, n)
    agreement table, true where ground truth g matches the estimate at
    note i."""
    _check(est, gts)
    labels = np.asarray(gts)
    return labels, labels == np.asarray(est)


def _codes(labels):
    """Each label as the index of the first ground truth (row) that shares
    it, in the smallest integer type that holds the indices."""
    return (labels[:, None] == labels).argmax(axis=1).astype(np.min_scalar_type(len(labels)))


# each measure over a batch of ``_row`` rows, in report-column order
MEASURES = {
    "m_gen": lambda rows: [int(agree.sum()) / agree.size for _, agree in rows],
    "m_high": lambda rows: [int(agree.sum(axis=1).max()) / agree.shape[1] for _, agree in rows],
    "m_soft": lambda rows: [int(agree.any(axis=0).sum()) / agree.shape[1] for _, agree in rows],
    "m_rec": lambda rows: [m_rec for m_rec, _, _ in _recombine(rows, DEFAULT_COSTS)],
}


def match_rates(measure: str, pairs) -> list:
    """One measure of every ``(est, gts)`` pair; m_rec in one lock-step
    batch."""
    return MEASURES[measure]([_row(est, gts) for est, gts in pairs])


def general_match_rate(est, gts) -> float:
    """Mean over ground truths of the per-ground-truth match rate."""
    return match_rates("m_gen", [(est, gts)])[0]


def highest_match_rate(est, gts) -> float:
    """Match rate against the closest single ground truth."""
    return match_rates("m_high", [(est, gts)])[0]


def soft_match_rate(est, gts) -> float:
    """Fraction of notes matching at least one ground truth."""
    return match_rates("m_soft", [(est, gts)])[0]


def recombination_match_rates(pairs, config: RecombinationConfig = DEFAULT_COSTS) -> list:
    """``recombination_match_rate`` of every ``(est, gts)`` pair, in one
    lock-step batch."""
    return _recombine([_row(est, gts) for est, gts in pairs], config, paths=True)


def recombination_match_rate(est, gts, config: RecombinationConfig = DEFAULT_COSTS):
    """Minimum-edit-cost recombined reference; returns (M_rec, E_rec, path).

    The path is the 0-based ground-truth index chosen at each note; exact
    cost ties resolve to the lexicographically smallest path, i.e. the
    smallest ground-truth indices.  If every path costs infinity the path
    is all zeros.  A batch of one ``recombination_match_rates`` call.
    """
    return recombination_match_rates([(est, gts)], config)[0]


def _recombine(rows, config, paths=False) -> list:
    """(M_rec, E_rec, path) of every ``_row``, one lock-step DP per
    ground-truth count G over its rows, longest first; the path is None
    unless ``paths``, as only the path needs the DP's parents."""
    out = [None] * len(rows)
    by_count = {}
    for i, (labels, _) in enumerate(rows):
        by_count.setdefault(len(labels), []).append(i)
    for n_g, group in by_count.items():
        group.sort(key=lambda i: -rows[i][1].shape[1])
        step = _running_sum if n_g == 1 else _lockstep
        for i, e, path in zip(group, *step([rows[i] for i in group], config, paths)):
            n = rows[i][1].shape[1]
            out[i] = ((n - e) / n, e, path)
    return out


def _running_sum(batch, config, paths) -> tuple:
    """E_rec and paths of G = 1 rows: the one path stays on ground truth 0
    and costs the running sum of the substitution costs."""
    e_rec = [float(np.add.accumulate(np.where(agree[0], 0.0, config.c_sub))[-1])
             for _, agree in batch]
    return e_rec, [(0,) * agree.shape[1] if paths else None for _, agree in batch]


def _lockstep(batch, config, paths) -> tuple:
    """E_rec and, if ``paths``, the paths of G >= 2 rows sorted longest
    first, one note of every unfinished row per step.

    ``dp`` holds each row's best prefix cost per ground truth g and
    ``perm[r]`` the g whose best prefix ranks r-th.  A step builds the
    (rows, G, G) candidate costs from the note's (rows, G) columns and
    reads them in rank order, so ``argmin`` over the predecessors takes
    the lowest-ranked of equal-cost ones, and the stable ``argsort`` of the
    chosen parents' positions re-ranks by (parent rank, g).
    """
    lengths = [agree.shape[1] for _, agree in batch]
    n_steps, n_rows, n_g = lengths[0], len(batch), len(batch[0][0])
    # rows still running at each note; they stay a prefix, longest first
    active = np.searchsorted(-np.array(lengths), -np.arange(n_steps))
    # each note's (running rows, G) columns, note after note in one flat array
    starts = np.concatenate([[0], np.cumsum(active)]) * n_g
    codes, miss = np.empty(starts[-1], np.min_scalar_type(n_g)), np.empty(starts[-1], np.int8)
    for j, (labels, agree) in enumerate(batch):
        at = (starts[: lengths[j]] + j * n_g)[:, None] + np.arange(n_g)
        codes[at], miss[at] = _codes(labels).T, ~agree.T
    active, starts = active.tolist(), starts.tolist()

    switch = np.array([config.c_rec_prime, config.c_rec, 0.0])  # by same label + same g
    stay = np.eye(n_g, dtype=np.int8)
    sub = np.array([0.0, config.c_sub])
    offsets = np.arange(n_rows)[:, None] * n_g  # of each row in a flat (rows, G) array
    if paths:  # parent of each ground truth per step; a row that has ended stays put
        parents = np.empty((max(n_steps - 1, 0), n_rows, n_g), codes.dtype)
        parents[:] = np.arange(n_g)
    e_rec, last = np.empty(n_rows), np.empty(n_rows, np.intp)
    dp = sub.take(miss[: starts[1]]).reshape(n_rows, n_g)
    perm, flat = np.tile(np.arange(n_g), (n_rows, 1)), offsets

    def finish(b):
        """Record rows b.. of the running batch, which end here."""
        ranked = dp.take(perm + flat)[b:]
        at = np.arange(len(ranked)), ranked.argmin(axis=1)
        e_rec[b : len(dp)], last[b : len(dp)] = ranked[at], perm[b:][at]

    for pos in range(1, n_steps):
        b, note = active[pos], slice(starts[pos], starts[pos + 1])
        if b < len(dp):
            finish(b)
            dp, perm, flat = dp[:b], perm[:b], flat[:b]
        col = codes[note].reshape(b, n_g)
        same = (col[:, :, None] == col[:, None, :]).view(np.int8)
        cand = dp[:, :, None] + switch.take(same + stay)
        choice = cand.reshape(-1, n_g).take(perm + flat, axis=0).argmin(axis=1)
        dp = np.minimum.reduce(cand, axis=1) + sub.take(miss[note]).reshape(b, n_g)
        if paths:
            parents[pos - 1, :b] = perm.take(choice + flat)
        perm = choice.argsort(axis=1, kind="stable")
    finish(0)
    if not paths:
        return e_rec.tolist(), [None] * n_rows

    tracks = np.empty((n_steps, n_rows), codes.dtype)
    tracks[-1] = last
    for t in range(n_steps - 2, -1, -1):
        tracks[t] = parents[t].take(tracks[t + 1] + offsets[:, 0])
    tracks[:, e_rec == INF] = 0
    return e_rec.tolist(), [tuple(tracks[:n, j].tolist()) for j, n in enumerate(lengths)]


def _reports(rows, config) -> list:
    rates = zip(*(MEASURES[m](rows) for m in ("m_gen", "m_high", "m_soft")))
    return [
        MatchRateReport(*simple, m_rec, e_rec, n_notes=agree.shape[1], n_ground_truths=len(agree))
        for (_, agree), simple, (m_rec, e_rec, _) in zip(rows, rates, _recombine(rows, config))
    ]


def match_rate_report(
    est, gts, config: RecombinationConfig = DEFAULT_COSTS
) -> MatchRateReport:
    """All four measures at once."""
    return _reports([_row(est, gts)], config)[0]


def hand_reports(pieces, config: RecombinationConfig = DEFAULT_COSTS) -> list:
    """Reports for whole pieces and for each of their hands that has notes.

    ``pieces`` holds ``(piece_id, piece, gts, est)`` entries, ``est`` and
    ``gts`` aligned with ``piece.notes``.  Returns (row key, report) pairs
    keyed ``piece_id``, ``piece_id/rh`` and ``piece_id/lh``, piece by
    piece.  With ``est`` None the rows are leave-one-out: each ground
    truth in turn is scored against the others and every row is the mean
    over annotators, with ``n_ground_truths`` counting all of them.  The
    rows of all pieces are scored in one lock-step batch.
    """
    rows, spans = [], []  # spans: (key, first row, end row, leave-one-out)
    for piece_id, piece, gts, est in pieces:
        if est is None and len(gts) < 2:
            raise LengthMismatch("leave-one-out needs at least two ground truths")
        _check(gts[0] if est is None else est, gts)
        labels = np.asarray(gts)
        codes = _codes(labels)
        columns = [(piece_id, slice(None))] + [
            (f"{piece_id}/{hand.name.lower()}", positions)
            for hand, positions in hand_positions(piece).items()
            if positions
        ]
        for key, cols in columns:
            start = len(rows)
            if est is None:
                for i, own in enumerate(codes[:, cols]):
                    others = np.delete(codes, i, axis=0)[:, cols]
                    rows.append((others, others == own))
            else:
                rows.append((codes[:, cols], labels[:, cols] == np.asarray(est)[cols]))
            spans.append((key, start, len(rows), est is None))
    reports = _reports(rows, config)
    out = []
    for key, start, stop, pooled in spans:
        report = reports[start]
        if pooled:
            group = reports[start:stop]
            means = {
                m: sum(getattr(r, m) for r in group) / len(group)
                for m in (*MEASURES, "e_rec")
            }
            report = replace(report, **means, n_ground_truths=len(group))
        out.append((key, report))
    return out


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


def _report_rows(piece_reports: dict, summary: dict) -> list:
    """``(label, notes, gts, match rates in MEASURES order)`` of each piece,
    by piece id, then of the macro and micro averages from ``summarize``."""
    rows = [(str(p), r.n_notes, r.n_ground_truths, [getattr(r, m) for m in MEASURES])
            for p, r in sorted(piece_reports.items())]
    return rows + [(k, summary["n_notes"], summary["n_pieces"],
                    [summary[f"{k}_{m}"] for m in MEASURES]) for k in ("macro", "micro")]


def format_report_text(piece_reports: dict, summary: dict) -> str:
    """Human-readable report: one record per piece plus the corpus
    summary from ``summarize``, match rates as one-decimal percentages."""
    rows = _report_rows(piece_reports, summary)
    width = max(len(label) for label, *_ in rows)  # "macro" is as wide as "piece"
    columns = "  ".join(f"{'M' + m[1:]:>6}" for m in MEASURES)
    lines = [f"{'piece':>{width}}  notes  gts  {columns}"]
    for label, notes, gts, rates in rows:
        cells = "  ".join(f"{100.0 * v:6.1f}" for v in rates)
        lines.append(f"{label:>{width}}  {notes:5d}  {gts:3d}  {cells}")
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
    for label, notes, gts, rates in _report_rows(piece_reports, summary):
        pct = [f"{100.0 * v:.1f}" for v in rates]
        lines.append("\t".join([label, str(notes), str(gts), *pct, *map(repr, rates)]))
    return "".join(line + "\n" for line in lines)
