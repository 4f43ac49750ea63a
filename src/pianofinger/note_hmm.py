"""Note-level hidden Markov models of piano fingering, orders 1 to 3.

Finger digits are the hidden states.  A digit m-gram model with linear
interpolation over lower orders supplies the transition scores, and
transposition-invariant pairwise output factors (one per lag, weighted by
an exponent ``alpha``) score the pitch motion produced by each finger
pair.  Optional time-inversion and left/right reflection symmetries are
imposed by count tying, and a hard constraint can forbid finger crossings
inside chords.  Decoding is exact Viterbi over the last-``m``-digit state
space, in one DP over a list of hand parts (``decode_parts``; up to
``_tables.LOCKSTEP`` part-notes each) that reads one set of
``_step_tables`` in place: the parts run in lock step, each note one
``_tables.LockStep.step`` of a (b, 5, 5**(m-1), 5) array, or a
(b, 1, w, 5) one while the states grow to m digits.  Parts the crossing
constraint leaves no path rerun on the same tables without it.

Score convention: each pairwise output row is normalised over the clamped
displacement alphabet for its finger pair, and decoding maximises

    sum_n [ log P(f_n | context) + sum_l alpha_l * log F_l(d; f_(n-l), f_n) ]

which is an unnormalised posterior score; only its argmax is meaningful
across configurations.  The oracle ``sequence_log_score`` is the decoder's
preparation of a set of one part, ``_part_tables``, plus ``_path_scores``,
which adds a batch of fingerings' cells of the terms and masks the decoder
adds, so enumeration prepares once and reads every fingering bitwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._tables import (
    N_DIGITS,
    NEG_INF,
    Counts,
    LockStep,
    annotated_parts,
    check_digits,
    check_fields,
    check_non_negative,
    decode_set,
    normalize_rows,
    safe_log,
)
from .errors import EmptyPiece, FingeringError, NoFeasiblePath
from .pig_io import FingerLabel, Hand, Note, Piece, midi_to_pitch, part_hand
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
    return sum((d - 1) * N_DIGITS**i for i, d in enumerate(reversed(digits)))


def _enforce_time_inversion(table: np.ndarray, negperm: np.ndarray) -> np.ndarray:
    """Copy each cell from its canonical partner so that
    F[f', f, d] == F[f, f', -d] holds bitwise."""
    partner = table.transpose(1, 0, 2)[:, :, negperm]
    i, j, k = np.ogrid[:N_DIGITS, :N_DIGITS, : table.shape[2]]
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
        keys = key_indices(piece.midis)
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

@np.errstate(over="ignore")  # log probabilities may scale or add up to -inf
def _step_tables(model: NoteHmmModel, parts) -> tuple:
    """One set of score tables ``(slabs, starts, lengths, masks)`` of the
    ``(hand, keys, onsets)`` parts ``parts`` lists longest first, built once
    per call of the decoder or its oracle: part p is ``lengths[p]`` notes
    of the joined keys from row ``starts[p]``.  ``slabs`` lists ``(lag,
    slab)`` in lag order; part p's note n >= lag is scored by
    ``slab[starts[p] + n - lag]``, a (5, 5) alpha-weighted log factor of
    its hand over (digit at note n - lag, digit at note n); no row that
    spans two parts is read.  ``masks`` maps each note n at which some part
    plays a chord, under the model's constraint, to the parts' (P, 5, 5)
    allowed matrices over (previous digit, digit), all True for the rest."""
    cfg = model.config
    cell = index_table(cfg.pitch_representation, cfg.delta_p_max)
    lengths = np.array([len(keys) for _, keys, _ in parts], dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    part = np.repeat(np.arange(len(parts)), lengths)  # each joined note's part
    side = np.repeat([hand.value for hand, _, _ in parts], lengths)  # and its hand's
    keys = np.concatenate([keys for _, keys, _ in parts])
    slabs = []
    for lag in range(1, cfg.order + 1):
        if cfg.alpha[lag - 1] == 0.0:
            continue  # inert factor; also avoids -inf * 0 = nan
        by_cell = np.moveaxis(np.stack([model.log_output[h][lag - 1] for h in Hand]), 3, 1)
        slab = by_cell[side[lag:], cell[keys[:-lag], keys[lag:]]]  # a fresh array
        slab *= cfg.alpha[lag - 1]
        slabs.append((lag, slab))
    masks = {}
    if cfg.chord_constraint:
        step, onsets = np.diff(keys), np.concatenate([onsets for _, _, onsets in parts])
        chord = (np.abs(np.diff(onsets)) <= cfg.chord_threshold) & (step != 0)
        rows = np.flatnonzero(chord & (part[1:] == part[:-1])) + 1
        # ascending digits: upward in the right hand, downward in the left
        ascending = (step[rows - 1] > 0) == (side[rows] == Hand.RH.value)
        notes, at = np.unique(rows - starts[part[rows]], return_inverse=True)
        allowed = np.ones((len(notes), len(parts), N_DIGITS, N_DIGITS), dtype=bool)
        allowed[at, part[rows]] = np.where(ascending[:, None, None], ALLOWED_ASCENDING_RH,
                                           ALLOWED_DESCENDING_RH)
        masks = dict(zip(notes.tolist(), allowed))
    return slabs, starts, lengths, masks


# part-notes whose output terms are added up at once, BLOCK / b rounded up
# of each of b parts: about (BLOCK, 5**order, 5) floats, however many parts
BLOCK = 64


def _output_terms(slabs, starts, first: int, stop: int, k: int, b: int):
    """The alpha-weighted output terms of notes first..stop-1 of the first
    b parts, a (b, notes, 5**k, 5) array over (previous state of k digits,
    digit), added in lag order over the lags up to k; None if there is
    none.  Each term is one gather of ``_step_tables``' rows of ``slabs``
    from ``starts``; rows past a part's end are never read.  Axis k - lag
    of a state holds its digit lag notes back, so a (5, 5) slab broadcasts
    over the others."""
    shape = (b, stop - first) + (N_DIGITS,) * (k + 1)
    rows, out = starts[:b, None] + np.arange(first, stop), None
    for lag, slab in slabs:
        if lag <= k:
            term = slab.take(rows - lag, axis=0, mode="clip").reshape(
                shape[:2] + (1,) * (k - lag) + (N_DIGITS,) + (1,) * (lag - 1) + (N_DIGITS,)
            )
            if out is None:
                out = np.broadcast_to(term, shape).copy()
            else:
                out += term
    return None if out is None else out.reshape(b, stop - first, -1, N_DIGITS)


def _steps(model: NoteHmmModel, tables):
    """``(b, transition, terms, allowed)`` of each note n >= 1, in DP order,
    of one set of ``_step_tables`` ``tables``, whose first b parts have
    note n: the (5**k, 5) table over (previous state of k = min(n, order)
    digits, digit), their terms from ``_output_terms`` (None where no lag
    scores the note), and None or their (b, 5, 5) rows of ``masks``."""
    slabs, starts, lengths, masks = tables
    m, lengths = model.config.order, lengths.tolist()
    b, stop = len(lengths), 1
    for n in range(1, lengths[0]):
        while lengths[b - 1] <= n:
            b -= 1
        if n == stop:  # a warm-up note, or the next block
            start, stop = n, n + 1 if n < m else min(n - (-BLOCK // b), lengths[0])
            terms = _output_terms(slabs, starts, start, stop, min(n, m), b)
        trans = model.log_initial[n] if n < m else model.log_transition
        allow = masks[n][:b] if n in masks else None
        yield b, trans, None if terms is None else terms[:b, n - start], allow


@np.errstate(over="ignore")
def _run_viterbi(model: NoteHmmModel, tables) -> list:
    """Exact DP over ``_steps`` of one set of ``_step_tables`` ``tables``,
    its parts in lock step on ``_tables.LockStep``; per part, in order,
    (digits, log score) or None when every path has score -inf.  Ties go
    to the lexicographically smallest digits by the tie rule of ``_tables``.
    Each score is ``(dp + transition) + terms``, masked by ``allowed``: the
    terms and masks whose path cells the oracle reads."""
    m = model.config.order
    lock = LockStep(model.log_initial[0][0][None].repeat(len(tables[2]), axis=0))
    for n, (b, trans, terms, allow) in enumerate(_steps(model, tables), 1):
        scores = lock.running(b)[:, :, None] + trans
        if terms is not None:
            scores += terms
        if allow is not None:  # over (the state's last digit, digit)
            scores = np.where(allow[:, None], scores.reshape(b, -1, N_DIGITS, N_DIGITS), NEG_INF)
        # the parents of state (r, d) differ in their oldest digit, or are r alone
        lock.step(scores.reshape(b, N_DIGITS if n >= m else 1, -1, N_DIGITS))
    lock.running(0)
    return [path and (tuple(s % N_DIGITS + 1 for s in path[1]), path[0]) for path in lock.paths]


def _hand_part(piece: Piece, hand: Hand | None) -> tuple:
    """``(hand, keys, onsets)`` of one hand part, its hand by ``part_hand``;
    EmptyPiece for a piece of no notes, OutOfRange off the keys."""
    if len(piece) == 0:
        raise EmptyPiece(f"piece {piece.piece_id!r} has no notes")
    return part_hand(piece, hand), key_indices(piece.midis), piece.onsets


def _part_tables(model: NoteHmmModel, piece: Piece, hand: Hand | None) -> tuple:
    """``_step_tables`` of the set of one hand part, as ``_hand_part`` reads it."""
    return _step_tables(model, [_hand_part(piece, hand)])


def decode_parts(model: NoteHmmModel, parts) -> list:
    """Most probable fingering of each ``(part, hand)`` pair by exact
    Viterbi, the hand inferred if None: per pair, in order, (its digits,
    its DecodeResult) or the FingeringError it raised.  ``_tables.decode_set``
    gives the parts to ``_run_viterbi``, one set of ``_step_tables`` per
    DP; those the within-chord constraint leaves no path (e.g. an
    unplayable cluster) run again as a second batch, on the same tables
    without the constraint, and are flagged.
    """
    def run(batch):
        tables = _step_tables(model, [part for _, part in batch])
        decoded = dict(enumerate(_run_viterbi(model, tables)))
        fallback = [k for k, result in decoded.items()
                    if result is None and model.config.chord_constraint]
        if fallback:
            unmasked = (tables[0], tables[1][fallback], tables[2][fallback], {})
            decoded.update(zip(fallback, _run_viterbi(model, unmasked)))
        return [NoFeasiblePath(f"piece {piece_id!r}: all fingerings have zero probability")
                if result is None
                else (result[0], DecodeResult(*result, crossing_fallback_used=k in fallback))
                for (piece_id, _), (k, result) in zip(batch, decoded.items())]

    return decode_set(parts, lambda piece, hand: (
        len(piece), len(piece), (piece.piece_id, _hand_part(piece, hand))), run)


def decode_viterbi(model: NoteHmmModel, piece: Piece, hand: Hand | None = None) -> DecodeResult:
    """``decode_parts`` of one hand part, raising its error."""
    (result,) = decode_parts(model, [(piece, hand)])
    if isinstance(result, FingeringError):
        raise result
    return result[1]


@np.errstate(over="ignore")
def _path_scores(model: NoteHmmModel, tables, paths) -> np.ndarray:
    """The decoder's score of each row of ``paths``, (paths, notes) digits
    1 to 5, on one part's ``_part_tables``, in the order ``_steps`` adds
    it: per warm-up note, and per BLOCK of notes after, one gather of its
    transition cells and one of its ``_output_terms`` cells, interleaved
    note by note and summed by one ``np.add.accumulate``.  A row that
    crosses where ``masks`` forbid is -inf, unless the constrained pass
    finds no path, as in the decoder."""
    slabs, starts, (length,), masks = tables
    f, m = np.asarray(paths, dtype=np.intp).T - 1, model.config.order  # (notes, paths)
    # note n's flat (state of its last min(n, m) digits, digit) cell; leading zeros add nothing
    codes = _window_codes(np.pad(f, ((m, 0), (0, 0))), m + 1)
    acc = model.log_initial[0][0][f[:1]]
    for first in [*range(1, min(m, length)), *range(m, length, BLOCK)]:
        at = codes[first : first + 1 if first < m else first + BLOCK]
        cells = (model.log_initial[first] if first < m else model.log_transition).take(at)[:, None]
        terms = _output_terms(slabs, starts, first, first + len(at), min(first, m), 1)
        if terms is not None:  # note by note: transition, then terms
            terms = np.take_along_axis(terms[0].reshape(len(at), -1), at, axis=1)
            cells = np.concatenate([cells, terms[:, None]], axis=1)
        acc = np.add.accumulate(np.concatenate([acc, cells.reshape(-1, f.shape[1])]))[-1:]
    acc, crosses = acc[0], np.zeros(f.shape[1], dtype=bool)
    for n, allow in masks.items():  # over (previous digit, digit)
        crosses |= ~allow[0].take(codes[n] % N_DIGITS**2)
    if crosses.any() and _run_viterbi(model, tables)[0] is not None:
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
