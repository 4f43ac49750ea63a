"""Note-level hidden Markov models of piano fingering, orders 1 to 3.

Finger digits are the hidden states.  A digit m-gram model with linear
interpolation over lower orders supplies the transition scores, and
transposition-invariant pairwise output factors (one per lag, weighted by
an exponent ``alpha``) score the pitch motion produced by each finger
pair.  Optional time-inversion and left/right reflection symmetries are
imposed by count tying, and a hard constraint can forbid finger crossings
inside chords.  Decoding is exact Viterbi over the last-``m``-digit state
space, in one DP over a list of hand parts (``decode_parts``; up to
LOCKSTEP part-notes each): the parts run in lock step, longest first, so
those still running are a prefix of the batch.  Parts the crossing
constraint leaves no path rerun without it.

Score convention: each pairwise output row is normalised over the clamped
displacement alphabet for its finger pair, and decoding maximises

    sum_n [ log P(f_n | context) + sum_l alpha_l * log F_l(d; f_(n-l), f_n) ]

which is an unnormalised posterior score; only its argmax is meaningful
across configurations.  The oracle ``sequence_log_score`` is the decoder's
preparation ``_part_tables`` plus ``_path_scores``, which adds a batch of
fingerings' cells of the terms and masks ``_steps`` yields, so exhaustive
enumeration prepares once, reads every fingering and compares bitwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._tables import (
    N_DIGITS,
    NEG_INF,
    Counts,
    annotated_parts,
    best_parents,
    best_path,
    check_digits,
    check_fields,
    check_non_negative,
    normalize_rows,
    rerank,
    safe_log,
)
from .errors import EmptyPiece, FingeringError, NoFeasiblePath
from .pig_io import FingerLabel, Hand, Note, Piece, infer_hand, midi_to_pitch
from .pitch_space import (
    MIDI_MAX,
    MIDI_MIN,
    PitchRepresentation,
    alphabet_size,
    index_table,
    key_indices,
    negation_permutation,
    reflection_permutation,
)


class Symmetry(enum.Enum):
    TIME_INVERSION = "time"
    REFLECTION = "reflect"


# Shipped default coefficients per model order (output-factor exponents
# alpha and transition interpolation weights lambda), tuned for the
# standard PIG train/test split.
DEFAULT_ALPHA = {1: (0.964,), 2: (0.556, 0.407), 3: (0.448, 0.292, 0.194)}
DEFAULT_LAMBDA = {1: (), 2: (0.474,), 3: (0.470, 0.504)}


@dataclass(frozen=True)
class NoteHmmConfig:
    """Architecture and coefficients of a note-level fingering HMM.

    ``alpha`` has one exponent per lag (length = order); ``lambda_`` has
    one interpolation weight per lower order (length = order - 1, summing
    to at most 1).  Leaving either as None selects the shipped defaults
    for the chosen order.  ``pitch_representation`` and ``symmetries`` may
    be given by their enum values (``"lattice"``, ``["time"]``).  The
    value rules both model configs share, ``_tables.check_fields``, apply
    first; ``alpha`` follows its float rule.
    """

    order: int = 2
    pitch_representation: PitchRepresentation = PitchRepresentation.LATTICE
    symmetries: frozenset = frozenset()
    delta_p_max: int = 15
    chord_threshold: float = 0.030
    alpha: tuple | None = None
    lambda_: tuple | None = None
    smoothing_epsilon: float = 0.5
    chord_constraint: bool = True

    def __post_init__(self):
        # enum fields may be given by their values, as model files hold them
        object.__setattr__(
            self, "pitch_representation", PitchRepresentation(self.pitch_representation)
        )
        object.__setattr__(self, "symmetries", frozenset(map(Symmetry, self.symmetries)))
        check_fields(self)
        if self.order not in (1, 2, 3):
            raise ValueError(f"order must be 1, 2 or 3, got {self.order}")
        alpha = DEFAULT_ALPHA[self.order] if self.alpha is None else tuple(
            float(a) for a in self.alpha
        )
        lambda_ = DEFAULT_LAMBDA[self.order] if self.lambda_ is None else tuple(
            float(v) for v in self.lambda_
        )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "lambda_", lambda_)
        if len(alpha) != self.order:
            raise ValueError(f"alpha needs {self.order} weights, got {len(alpha)}")
        check_non_negative("alpha", alpha)
        if len(lambda_) != self.order - 1:
            raise ValueError(
                f"lambda needs {self.order - 1} coefficients, got {len(lambda_)}"
            )
        if any(not 0.0 <= v <= 1.0 for v in lambda_):
            raise ValueError("lambda coefficients must lie in [0, 1]")
        if sum(lambda_) > 1.0 + 1e-12:
            raise ValueError("lambda coefficients must sum to at most 1")


@dataclass
class NoteHmmModel:
    """Trained note HMM.  All tables are stored as log probabilities.

    log_initial[k] is the (5**k, 5) conditional distribution of the
    (k+1)-th digit of a piece given the first k; log_transition is the
    (5**order, 5) interpolated digit transition table; log_output[hand]
    holds one (5, 5, alphabet) pairwise factor table per lag, rows
    normalised over the clamped displacement alphabet.
    """

    config: NoteHmmConfig
    log_initial: list
    log_transition: np.ndarray
    log_output: dict


@dataclass(frozen=True)
class DecodeResult:
    fingers: tuple          # digits 1..5, one per note
    log_score: float
    crossing_fallback_used: bool = False
    relaxed_boundaries: tuple = ()  # the chord decoder's relaxations: none here


def _flat_index(digits) -> int:
    idx = 0
    for d in digits:
        idx = idx * N_DIGITS + (d - 1)
    return idx


def _enforce_time_inversion(table: np.ndarray, negperm: np.ndarray) -> np.ndarray:
    """Copy each cell from its canonical partner so that
    F[f', f, d] == F[f, f', -d] holds bitwise."""
    partner = table.transpose(1, 0, 2)[:, :, negperm]
    i = np.arange(N_DIGITS)[:, None, None]
    j = np.arange(N_DIGITS)[None, :, None]
    k = np.arange(table.shape[2])[None, None, :]
    canonical = (i < j) | ((i == j) & (k <= negperm[k]))
    return np.where(canonical, table, partner)


class NoteCounts(Counts):
    """Additive training counts of the note HMM.

    Table keys: ``("initial", k)``, the (k+1)-th digit of a part after
    its first k digits, (5**k, 5); ``("ngram", o)``, the digit after every
    o-digit context, (5**o, 5); ``(hand, lag)``, (digit at note n - lag,
    digit at note n, alphabet cell) in that hand, (5, 5, alphabet).
    """

    SETTINGS = ("order", "pitch_representation", "delta_p_max")


def _window_codes(f: np.ndarray, width: int) -> np.ndarray:
    """Base-5 value of every run of ``width`` consecutive digits (0..4) along
    axis 0: the flat (context, next digit) cell of its (width - 1)-digit context."""
    n = max(0, len(f) - width + 1)
    code = np.zeros((n, *f.shape[1:]), dtype=np.intp)
    for j in range(width):
        code = code * N_DIGITS + f[j : j + n]
    return code


def count(corpus, config: NoteHmmConfig) -> NoteCounts:
    """Training counts of annotated single-hand pieces; empty pieces are
    skipped.  Only the ``NoteCounts.SETTINGS`` fields of the config matter."""
    m = config.order
    cell = index_table(config.pitch_representation, config.delta_p_max)
    size = alphabet_size(config.pitch_representation, config.delta_p_max)
    shapes = {("initial", k): (N_DIGITS**k, N_DIGITS) for k in range(m)}
    shapes.update({("ngram", o): (N_DIGITS**o, N_DIGITS) for o in range(1, m + 1)})
    shapes.update({
        (hand, lag): (N_DIGITS, N_DIGITS, size) for hand in Hand for lag in range(1, m + 1)
    })
    cells = {key: [] for key in shapes}
    parts = annotated_parts(corpus)
    for piece, hand, f in parts:
        keys = key_indices(n.midi for n in piece.notes)
        for width in range(1, m + 2):
            windows = _window_codes(f, width)
            if width <= m:  # the first width - 1 digits, then one more
                cells["initial", width - 1].append(windows[:1])
            if width > 1:
                cells["ngram", width - 1].append(windows)
        for lag in range(1, m + 1):
            pair = f[:-lag] * N_DIGITS + f[lag:]
            cells[hand, lag].append(pair * size + cell[keys[:-lag], keys[lag:]])
    return NoteCounts.collect(config, len(parts), shapes, cells)


def fit(counts: NoteCounts, config: NoteHmmConfig) -> NoteHmmModel:
    """Maximum-likelihood tables from training counts.

    Digit transition and initial tables are pooled over both hands; the
    pairwise output tables are per hand and lag.  Output cells receive
    ``smoothing_epsilon`` additive counts before row normalisation;
    transition tables rely on interpolation instead, with unseen contexts
    falling back to a uniform row so every distribution stays normalised.
    """
    counts.check(config)
    m = config.order
    repr_ = config.pitch_representation
    dpmax = config.delta_p_max
    eps = config.smoothing_epsilon

    tables = counts.tables
    log_initial = [safe_log(normalize_rows(tables["initial", k] + eps)) for k in range(m)]

    # per-order ML digit transitions, then linear interpolation
    ml = [normalize_rows(tables["ngram", o]) for o in range(1, m + 1)]
    weights_full = 1.0 - sum(config.lambda_)
    trans = weights_full * ml[m - 1]
    contexts = np.arange(N_DIGITS**m)
    for order in range(1, m):
        trans = trans + config.lambda_[order - 1] * ml[order - 1][
            contexts % N_DIGITS**order
        ]
    log_transition = safe_log(trans)

    # pairwise output factors per hand and lag
    negperm = negation_permutation(repr_, dpmax)
    reflperm = reflection_permutation(repr_, dpmax)
    tie_time = Symmetry.TIME_INVERSION in config.symmetries
    tie_reflect = Symmetry.REFLECTION in config.symmetries

    def output_table(c: np.ndarray) -> np.ndarray:
        """Smoothed, row-normalised output factors of counts ``c``, tied
        under time inversion when the config asks for it."""
        if tie_time:
            c = c + c.transpose(1, 0, 2)[:, :, negperm]
        table = normalize_rows(c + eps)
        return _enforce_time_inversion(table, negperm) if tie_time else table

    log_output = {Hand.RH: [], Hand.LH: []}
    for lag in range(m):
        if tie_reflect:
            table = output_table(
                tables[Hand.RH, lag + 1] + tables[Hand.LH, lag + 1][:, :, reflperm]
            )
            log_output[Hand.RH].append(safe_log(table))
            log_output[Hand.LH].append(safe_log(table[:, :, reflperm]))
        else:
            for hand in Hand:
                log_output[hand].append(safe_log(output_table(tables[hand, lag + 1])))

    return NoteHmmModel(
        config=config,
        log_initial=log_initial,
        log_transition=log_transition,
        log_output=log_output,
    )


def train(corpus, config: NoteHmmConfig) -> NoteHmmModel:
    """Maximum-likelihood training on annotated single-hand pieces:
    ``fit(count(corpus, config), config)``."""
    return fit(count(corpus, config), config)


def transition_prob(model: NoteHmmModel, context, next_digit: int) -> float:
    """Interpolated probability of the next digit given the last
    ``order`` digits; ValueError for a digit that is not 1 to 5."""
    if len(context) != model.config.order:
        raise ValueError(
            f"context must have {model.config.order} digits, got {len(context)}"
        )
    check_digits([*context, next_digit])
    return float(np.exp(model.log_transition[_flat_index(context), next_digit - 1]))


# --- within-chord crossing constraint ------------------------------------

_DIGIT_DIR = np.sign(np.arange(N_DIGITS)[None, :] - np.arange(N_DIGITS)[:, None])
ALLOWED_ASCENDING_RH = _DIGIT_DIR > 0
ALLOWED_DESCENDING_RH = _DIGIT_DIR < 0


# --- decoding -------------------------------------------------------------

def _step_tables(model: NoteHmmModel, hand: Hand, keys, onsets, use_constraint):
    """Per-piece score tables ``(slabs, allowed)`` of one hand part, built
    once per call of the decoder or its oracle.  ``slabs`` lists ``(lag,
    slab)`` in lag order; note n >= lag is scored by ``slab[n - lag]``, a
    (5, 5) alpha-weighted log factor over (digit at note n - lag, digit
    at note n).  ``allowed[n]`` is None or the (5, 5) allowed matrix over
    (previous digit, digit) of note n."""
    cfg = model.config
    cell = index_table(cfg.pitch_representation, cfg.delta_p_max)
    slabs = []
    for lag in range(1, cfg.order + 1):
        if cfg.alpha[lag - 1] == 0.0:
            continue  # inert factor; also avoids -inf * 0 = nan
        by_cell = np.moveaxis(model.log_output[hand][lag - 1], 2, 0)
        slab = by_cell[cell[keys[:-lag], keys[lag:]]]  # a fresh array
        slab *= cfg.alpha[lag - 1]
        slabs.append((lag, slab))
    allowed = [None] * len(keys)
    if use_constraint:
        step = np.diff(keys)
        chord = (np.abs(np.diff(onsets)) <= cfg.chord_threshold) & (step != 0)
        # ascending digits: upward in the right hand, downward in the left
        ascending = (step > 0) == (hand is Hand.RH)
        for n in np.flatnonzero(chord).tolist():
            allowed[n + 1] = ALLOWED_ASCENDING_RH if ascending[n] else ALLOWED_DESCENDING_RH
    return slabs, allowed


# part-notes whose output terms are added up at once, BLOCK / b rounded up
# of each of b parts: about (BLOCK, 5**order, 5) floats, however many parts
BLOCK = 64


def _output_terms(lags, first: int, stop: int, k: int, b: int):
    """The alpha-weighted output terms of notes first..stop-1 of the first
    b parts, a (b, notes, 5**k, 5) array over (previous state of k digits,
    digit), added in lag order over the lags up to k; None if there is
    none.  ``lags`` lists ``(lag, slabs, starts)``: all parts' slabs of a
    lag in one array, part p's note n in row ``starts[p, 0] + n``; rows
    past a part's end are never read.  Axis k - lag of a state holds its
    digit lag notes back, so a (5, 5) slab broadcasts over the others."""
    shape = (b, stop - first) + (N_DIGITS,) * (k + 1)
    notes, out = np.arange(first, stop) if b > 1 else None, None
    for lag, slabs, starts in lags:
        if lag <= k:
            # part 0 starts at row -lag and, running alone, has all the notes
            rows = (slabs[first - lag : stop - lag] if b == 1
                    else slabs.take(starts[:b] + notes, axis=0, mode="clip"))
            term = rows.reshape(
                shape[:2] + (1,) * (k - lag) + (N_DIGITS,) + (1,) * (lag - 1) + (N_DIGITS,)
            )
            if out is None:
                out = np.broadcast_to(term, shape).copy()
            else:
                out += term
    return None if out is None else out.reshape(b, stop - first, -1, N_DIGITS)


def _steps(model: NoteHmmModel, tables):
    """``(b, transition, terms, allowed)`` of each note n >= 1, in DP order,
    of the parts whose ``_step_tables`` ``tables`` lists longest first, of
    which the first b have note n: the (5**k, 5) table over (previous
    state of k = min(n, order) digits, digit), their terms from
    ``_output_terms`` (None where no lag scores the note), and None or
    their (b, 5, 5) allowed matrices over (previous digit, digit)."""
    m = model.config.order
    lengths = [len(allowed) for _, allowed in tables]
    lags = []
    for per_part in zip(*(slabs for slabs, _ in tables)):  # one lag's (lag, slab) of each part
        slabs = [slab for _, slab in per_part]
        lag = per_part[0][0]
        starts = np.array(list(accumulate((len(slab) for slab in slabs[:-1]), initial=-lag)))
        joined = slabs[0] if len(slabs) == 1 else np.concatenate(slabs)  # no copy of a lone part
        lags.append((lag, joined, starts[:, None]))
    # note -> every part's allowed matrix there, all True for a part with none
    masks, all_allowed = {}, np.ones((len(tables), N_DIGITS, N_DIGITS), dtype=bool)
    for p, (_, allowed) in enumerate(tables):
        for n, allow in enumerate(allowed):
            if allow is not None:
                if n not in masks:
                    masks[n] = all_allowed.copy()
                masks[n][p] = allow
    b, stop = len(tables), 1
    for n in range(1, lengths[0]):
        while lengths[b - 1] <= n:
            b -= 1
        if n == stop:  # a warm-up note, or the next block
            start, stop = n, n + 1 if n < m else min(n - (-BLOCK // b), lengths[0])
            terms = _output_terms(lags, start, stop, min(n, m), b)
        trans = model.log_initial[n] if n < m else model.log_transition
        allow = masks[n][:b] if n in masks else None
        yield b, trans, None if terms is None else terms[:b, n - start], allow


def _run_viterbi(model: NoteHmmModel, tables) -> list:
    """Exact DP over ``_steps`` of all the parts whose ``_step_tables``
    ``tables`` lists longest first, in lock step; per part, in order,
    (digits, log score) or None when every path has score -inf.  The
    parts that have note n are the first b: ``dp``, a row of state scores
    per part, shrinks to them with no mask.  ``rank`` holds their
    prefix keys flat, part p's from p * states, so one gather extends all.
    Exact score ties resolve to the lexicographically smallest digits by
    the tie rule of ``_tables``: extensions of one prefix order by state
    index, so ties cost O(states) per note.  Each score is ``(dp +
    transition) + terms``, masked by ``allowed``: the terms and masks whose
    path cells the oracle reads.  Each part backtracks on its own."""
    if not tables:
        return []
    m = model.config.order
    base = N_DIGITS ** (m - 1)
    # the flat index of part p's state (0, r), r the state's last m - 1 digits
    columns = (np.arange(len(tables))[:, None] * base * N_DIGITS + np.arange(base))[:, :, None]
    dp = model.log_initial[0][0][None].repeat(len(tables), axis=0)
    rank, top = np.arange(dp.size), dp.size - 1
    index = np.arange(len(tables) * base * N_DIGITS)  # each step's state indices: a prefix
    parents, ends = [], [None] * len(tables)

    def end(b):  # parts b.. have no next note: keep their scores, keys and offsets
        size = dp.shape[1]
        for p in range(b, len(dp)):
            ends[p] = dp[p], rank[p * size : (p + 1) * size], p * size
        return dp[:b], rank[: b * size], columns[:b]

    for n, (b, trans, terms, allow) in enumerate(_steps(model, tables), 1):
        if b < len(dp):
            dp, rank, columns = end(b)
        scores = dp[:, :, None] + trans
        if terms is not None:
            scores += terms
        if allow is not None:  # over (the state's last digit, digit)
            scores = np.where(allow[:, None], scores.reshape(b, -1, N_DIGITS, N_DIGITS), NEG_INF)
        if n < m:
            parent = np.repeat(np.arange(dp.size), N_DIGITS)
            dp = scores.reshape(b, -1)
        else:
            # merge: the predecessors of state (r, d) differ in their oldest digit g
            dp, g = best_parents(
                scores.reshape(b, N_DIGITS, base, N_DIGITS).swapaxes(0, 1),
                rank.reshape(b, N_DIGITS, base, 1).swapaxes(0, 1),
            )
            dp, parent = dp.reshape(b, -1), (g * base + columns).reshape(-1)
        parents.append(parent)
        rank, top = rerank(rank, parent, top, index[: parent.size])
    end(0)
    results = []
    for (_, allowed), (final, keys, offset) in zip(tables, ends):
        best, states = best_path(final, keys, parents[: len(allowed) - 1], offset)
        results.append(None if states is None else (
            tuple(int(s) % N_DIGITS + 1 for s in states), float(best)))
    return results


def _part_tables(model: NoteHmmModel, piece: Piece, hand: Hand | None) -> tuple:
    """``_step_tables`` of one hand part under the model's constraint, the
    hand inferred if None; EmptyPiece for a piece of no notes."""
    if len(piece) == 0:
        raise EmptyPiece(f"piece {piece.piece_id!r} has no notes")
    hand = infer_hand(piece) if hand is None else hand
    keys, onsets = key_indices(n.midi for n in piece.notes), [n.onset for n in piece.notes]
    return _step_tables(model, hand, keys, onsets, model.config.chord_constraint)


# part-notes decoded in one lock-step DP, which keeps (notes, 5**order)
# parents and every part's step tables: a larger set runs in several
LOCKSTEP = 4096


def decode_parts(model: NoteHmmModel, parts) -> list:
    """Most probable fingering of each ``(part, hand)`` pair by exact
    Viterbi, the hand inferred if None: per pair, in order, its
    DecodeResult or the FingeringError it raised.  The parts go longest
    first, LOCKSTEP part-notes (or one part) to each ``_run_viterbi``,
    which decodes them in lock step; those the within-chord constraint
    leaves no path (e.g. an unplayable cluster) run again as a second
    batch, on the same tables without the constraint, and are flagged.
    """
    out, chunk, notes = [None] * len(parts), [], 0
    for i in sorted(range(len(parts)), key=lambda i: -len(parts[i][0])):
        if chunk and notes + len(parts[i][0]) > LOCKSTEP:
            _decode_chunk(model, parts, chunk, out)
            chunk, notes = [], 0
        chunk.append(i)
        notes += len(parts[i][0])
    _decode_chunk(model, parts, chunk, out)
    return out


def _decode_chunk(model: NoteHmmModel, parts, chunk: list, out: list) -> None:
    """``decode_parts`` of the parts ``chunk`` indexes, into ``out``."""
    tables = {}
    for i in chunk:
        try:
            tables[i] = _part_tables(model, *parts[i])
        except FingeringError as exc:
            out[i] = exc
    decoded = dict(zip(tables, _run_viterbi(model, list(tables.values()))))
    fallback = [i for i, result in decoded.items()
                if result is None and model.config.chord_constraint]
    if fallback:
        unmasked = [(tables[i][0], [None] * len(tables[i][1])) for i in fallback]
        decoded.update(zip(fallback, _run_viterbi(model, unmasked)))
    for i, result in decoded.items():
        out[i] = NoFeasiblePath(
            f"piece {parts[i][0].piece_id!r}: all fingerings have zero probability"
        ) if result is None else DecodeResult(*result, crossing_fallback_used=i in fallback)


def decode_viterbi(model: NoteHmmModel, piece: Piece, hand: Hand | None = None) -> DecodeResult:
    """``decode_parts`` of one hand part, raising its error."""
    (result,) = decode_parts(model, [(piece, hand)])
    if isinstance(result, FingeringError):
        raise result
    return result


def _path_scores(model: NoteHmmModel, tables, paths) -> np.ndarray:
    """The decoder's score of each row of ``paths``, (paths, notes) digits
    1 to 5, on one part's ``_part_tables``: its cells of what ``_steps``
    yields, in one pass.  A row that crosses where ``allowed`` forbids is
    -inf, unless the constrained pass finds no path, as in the decoder."""
    f, m = np.asarray(paths, dtype=np.intp).T - 1, model.config.order  # (notes, paths)
    acc, crosses = model.log_initial[0][0][f[0]], np.zeros(f.shape[1], dtype=bool)
    # note n's flat (state of its last min(n, m) digits, digit) cell; leading zeros add nothing
    codes = _window_codes(np.pad(f, ((m, 0), (0, 0))), m + 1)
    for n, (_, trans, terms, allow) in enumerate(_steps(model, [tables]), 1):
        acc = acc + trans.take(codes[n])
        if terms is not None:
            acc = acc + terms[0].take(codes[n])
        if allow is not None:  # over (previous digit, digit)
            crosses |= ~allow[0].take(codes[n] % N_DIGITS**2)
    if crosses.any() and _run_viterbi(model, [tables])[0] is not None:
        acc[crosses] = NEG_INF
    return acc


def sequence_log_score(
    model: NoteHmmModel, piece: Piece, fingers, hand: Hand | None = None
) -> float:
    """Log score the decoder assigns to one fingering, its row of ``_path_scores``;
    ValueError for a fingering of another length or a digit that is not 1 to 5."""
    if len(fingers) != len(piece):
        raise ValueError("fingering length does not match the piece")
    check_digits(fingers)
    return float(_path_scores(model, _part_tables(model, piece, hand), [fingers])[0])


def sample_piece(
    model: NoteHmmModel,
    hand: Hand,
    n_notes: int,
    rng: np.random.Generator,
) -> Piece:
    """Draw an annotated monophonic piece from the generative model: its
    notes start half a second apart, the first on middle C.

    Pitches are sampled from the lag-1 output factor only, so this is the
    exact generative process for order 1 and an approximation above.
    Implemented for the integral pitch representation.
    """
    cfg = model.config
    if cfg.pitch_representation is not PitchRepresentation.INTEGRAL:
        raise ValueError("sampling is implemented for the integral representation")
    digits = []
    for n in range(n_notes):
        if n < cfg.order:
            row = np.exp(model.log_initial[n][_flat_index(digits)])
        else:
            row = np.exp(model.log_transition[_flat_index(digits[-cfg.order :])])
        digits.append(int(rng.choice(N_DIGITS, p=row / row.sum())) + 1)
    midis = [60]
    out = np.exp(model.log_output[hand][0])
    for n in range(1, n_notes):
        row = out[digits[n - 1] - 1, digits[n] - 1]
        dx = int(rng.choice(row.shape[0], p=row / row.sum())) - cfg.delta_p_max
        midi = midis[-1] + dx
        if not MIDI_MIN <= midi <= MIDI_MAX:
            midi = midis[-1] - dx
        midis.append(min(MIDI_MAX, max(MIDI_MIN, midi)))
    notes = tuple(
        Note(
            note_id=i,
            onset=round(i * 0.5, 6),
            offset=round(i * 0.5 + 0.45, 6),
            pitch=midi_to_pitch(midi),
            midi=midi,
            onset_velocity=64,
            offset_velocity=64,
            channel=hand.channel,
            finger=FingerLabel(hand, digit),
        )
        for i, (midi, digit) in enumerate(zip(midis, digits))
    )
    return Piece(notes=notes, piece_id="sampled", annotator_id="model")
