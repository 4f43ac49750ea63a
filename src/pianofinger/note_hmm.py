"""Note-level hidden Markov models of piano fingering, orders 1 to 3.

Finger digits are the hidden states.  A digit m-gram model with linear
interpolation over lower orders supplies the transition scores, and
transposition-invariant pairwise output factors (one per lag, weighted by
an exponent ``alpha``) score the pitch motion produced by each finger
pair.  Optional time-inversion and left/right reflection symmetries are
imposed by count tying, and a hard constraint can forbid finger crossings
inside chords.  Decoding is exact Viterbi over the last-``m``-digit state
space.

Score convention: each pairwise output row is normalised over the clamped
displacement alphabet for its finger pair, and decoding maximises

    sum_n [ log P(f_n | context) + sum_l alpha_l * log F_l(d; f_(n-l), f_n) ]

which is an unnormalised posterior score; only its argmax is meaningful
across configurations.  ``sequence_log_score`` adds a fingering's cells
of the terms and masks the decoder's step function ``_steps`` yields, so
exhaustive enumeration can be compared bitwise; whether the decoder
drops the crossing constraint it asks the decoder's recursion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._tables import (
    N_DIGITS,
    NEG_INF,
    Counts,
    annotated_parts,
    best_parents,
    best_path,
    check_fields,
    check_non_negative,
    normalize_rows,
    rerank,
    safe_log,
)
from .errors import EmptyPiece, NoFeasiblePath
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
    """Base-5 value of every run of ``width`` consecutive digits (0..4):
    the flat (context, next digit) cell of its (width - 1)-digit context."""
    n = max(0, len(f) - width + 1)
    code = np.zeros(n, dtype=np.intp)
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


def _check_digits(digits) -> None:
    """ValueError unless every digit is an integer 1 to 5."""
    for d in digits:
        if not (isinstance(d, (int, np.integer)) and 1 <= d <= N_DIGITS):
            raise ValueError(f"finger digit {d!r} is not an integer 1 to 5")


def transition_prob(model: NoteHmmModel, context, next_digit: int) -> float:
    """Interpolated probability of the next digit given the last
    ``order`` digits; ValueError for a digit that is not 1 to 5."""
    if len(context) != model.config.order:
        raise ValueError(
            f"context must have {model.config.order} digits, got {len(context)}"
        )
    _check_digits([*context, next_digit])
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


# notes whose output terms are added up at once: (BLOCK, 5**order, 5) floats
BLOCK = 64


def _output_terms(slabs, first: int, stop: int, k: int):
    """The alpha-weighted output terms of notes first..stop-1 of the DP, a
    (notes, 5**k, 5) array over (previous state of k digits, digit), added
    in lag order over the lags up to k; None if there is none.  Axis
    k - lag of a state holds its digit lag notes back, so each note's
    (5, 5) slab of that lag broadcasts over the state's other digits."""
    shape = (stop - first,) + (N_DIGITS,) * (k + 1)
    out = None
    for lag, slab in slabs:
        if lag <= k:
            term = slab[first - lag : stop - lag].reshape(
                shape[:1] + (1,) * (k - lag) + (N_DIGITS,) + (1,) * (lag - 1) + (N_DIGITS,)
            )
            if out is None:
                out = np.broadcast_to(term, shape).copy()
            else:
                out += term
    return None if out is None else out.reshape(stop - first, -1, N_DIGITS)


def _steps(model: NoteHmmModel, slabs, allowed):
    """``(transition, terms, allowed[n])`` of each note n >= 1, in DP order:
    (5**k, 5) tables over (previous state of k = min(n, order) digits,
    digit), the terms from ``_output_terms`` BLOCK notes at a time (None
    where no lag scores the note)."""
    m = model.config.order
    stop = 1
    for n in range(1, len(allowed)):
        if n == stop:  # a warm-up note, or the next block
            start, stop = n, n + 1 if n < m else min(n + BLOCK, len(allowed))
            terms = _output_terms(slabs, start, stop, min(n, m))
        trans = model.log_initial[n] if n < m else model.log_transition
        yield trans, None if terms is None else terms[n - start], allowed[n]


def _run_viterbi(model: NoteHmmModel, slabs, allowed):
    """Exact DP over ``_steps``; returns (digits, log score) or None when
    every path has score -inf.  Exact score ties resolve to the
    lexicographically smallest digit sequence by the tie rule of
    ``_tables``: extensions of one prefix order by their digit, i.e. by
    state index, so ties cost O(states) per note.  Each score is ``(dp +
    transition) + terms``, masked by ``allowed[n]``: the terms and masks
    whose path cells the oracle reads."""
    m = model.config.order
    base = N_DIGITS ** (m - 1)
    columns = np.arange(base)[:, None]
    dp = model.log_initial[0][0].copy()
    parents = []
    rank = np.arange(N_DIGITS)
    for n, (trans, terms, allow) in enumerate(_steps(model, slabs, allowed), 1):
        scores = dp[:, None] + trans
        if terms is not None:
            scores += terms
        if allow is not None:  # over (the state's last digit, digit)
            scores = np.where(allow, scores.reshape(-1, N_DIGITS, N_DIGITS), NEG_INF)
        if n < m:
            parent = np.repeat(np.arange(dp.size), N_DIGITS)
            dp = scores.reshape(-1)
        else:
            # merge: the predecessors of state (r, d) differ in their oldest digit g
            dp, g = best_parents(
                scores.reshape(N_DIGITS, base, N_DIGITS), rank.reshape(N_DIGITS, base, 1)
            )
            dp, parent = dp.reshape(-1), (g * base + columns).reshape(-1)
        parents.append(parent)
        rank = rerank(rank, parent)
    best, states = best_path(dp, rank, parents)
    if states is None:
        return None
    return tuple(int(s) % N_DIGITS + 1 for s in states), float(best)


def _part_tables(model: NoteHmmModel, piece: Piece, hand: Hand | None) -> tuple:
    """``_step_tables`` of one hand part under the model's constraint, the
    hand inferred if None; EmptyPiece for a piece of no notes."""
    if len(piece) == 0:
        raise EmptyPiece(f"piece {piece.piece_id!r} has no notes")
    hand = infer_hand(piece) if hand is None else hand
    keys, onsets = key_indices(n.midi for n in piece.notes), [n.onset for n in piece.notes]
    return _step_tables(model, hand, keys, onsets, model.config.chord_constraint)


def decode_viterbi(model: NoteHmmModel, piece: Piece, hand: Hand | None = None) -> DecodeResult:
    """Most probable fingering of one hand part by exact Viterbi.

    When the within-chord constraint leaves no feasible path (e.g. an
    unplayable cluster), decoding is retried on the same tables without
    the constraint and the result is flagged.
    """
    slabs, allowed = _part_tables(model, piece, hand)
    result = _run_viterbi(model, slabs, allowed)
    fallback = result is None and bool(model.config.chord_constraint)
    if fallback:
        result = _run_viterbi(model, slabs, [None] * len(allowed))
    if result is None:
        raise NoFeasiblePath(f"piece {piece.piece_id!r}: all fingerings have zero probability")
    return DecodeResult(*result, crossing_fallback_used=fallback)


def sequence_log_score(
    model: NoteHmmModel, piece: Piece, fingers, hand: Hand | None = None
) -> float:
    """Log score the decoder assigns to one specific fingering; ValueError
    for a fingering of another length or a digit that is not 1 to 5.

    Adds its cells of the decoder's own ``_steps``, crossing fallback
    included, so for short pieces exhaustive enumeration over this
    function is a bitwise oracle for ``decode_viterbi``.
    """
    if len(fingers) != len(piece):
        raise ValueError("fingering length does not match the piece")
    _check_digits(fingers)
    slabs, allowed = _part_tables(model, piece, hand)
    f = [d - 1 for d in fingers]
    crosses = any(a is not None and not a[f[n - 1], f[n]] for n, a in enumerate(allowed))
    # the decoder drops the constraint only where its constrained pass finds no path
    if crosses and _run_viterbi(model, slabs, allowed) is not None:
        return NEG_INF
    acc, state = float(model.log_initial[0][0][f[0]]), 0
    for n, (trans, terms, _) in enumerate(_steps(model, slabs, allowed), 1):
        state = (state * N_DIGITS + f[n - 1]) % len(trans)  # keeps its last k digits
        acc = acc + trans[state, f[n]]
        if terms is not None:
            acc = acc + terms[state, f[n]]
    return float(acc)


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
