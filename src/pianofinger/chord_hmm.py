"""Chord-level fingering HMM.

Notes whose onsets fall within a small threshold of each other are
clustered into chords, and a note that is still sounding when a later
chord starts joins that chord as a *sustained* component; a note sounds
until its offset or the next strike of its pitch.  Clustering,
``cluster_chords``, builds columns (``Chords``), the one form of a hand's
chords that training, the decoder and its oracle read; indexing them gives
``Chord`` views, which no CLI path builds.  Notes are keyed by position.
The hidden state of a chord is a crossing-free assignment of distinct
digits to its (pitch-ascending) components: digits ascend with pitch in
the right hand and descend in the left, giving exactly C(5, K) states
for K pitches.

Scores are built from four pairwise factor tables: digit transitions and
pitch-output factors, each in an across-chord and a within-chord variant,
raised to the exponents beta1/beta2 (transitions) and gamma1/gamma2
(outputs).  Every factor pair inside or between chords contributes, and
each chord's whole log contribution is multiplied by K**-zeta to damp the
quadratic pair count of large chords.  Output factors are transposition
invariant and always use the lattice pitch representation.  Sustained
notes must keep their digit across every chord that contains them;
decoding is exact Viterbi over the per-chord state lists.

One edge kernel scores every chord: it builds the (previous states,
current states) score matrix of each boundary from the scaled tables in
one fixed term order, all boundaries of one (previous size, size) shape
at once; a zero exponent times a -inf factor (NaN) scores as -inf.  A set
of hand parts decodes in one DP, ``_run_viterbi``, in lock step, each
boundary one ``_tables.LockStep.step`` of a (b, previous width, width)
block, as the note decoder steps.  It masks each matrix with the sustain
filter before adding it, except where the mask leaves no finite
transition: there it lifts the constraint at that boundary alone.  The
oracle ``chord_path_log_score`` reads a path's cells of what the DP
of its one part added.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, groupby, islice, permutations, product

import numpy as np

from ._tables import (
    N_DIGITS,
    NEG_INF,
    Counts,
    LockStep,
    annotated_parts,
    check_digits,
    check_fields,
    decode_set,
    normalize_rows,
    safe_log,
)
from .errors import (
    EmptyInput,
    FingeringError,
    HandOverflow,
    NoFeasiblePath,
    NonMonotoneOnsets,
)
from .pig_io import Hand, Piece, infer_hand, part_hand
from .pitch_space import PitchRepresentation, alphabet_size, index_table, key_indices


@dataclass(frozen=True)
class ChordComponent:
    """One pitch of a chord and the source note(s) sounding it."""

    midi: int
    note_ids: tuple
    sustained: bool


@dataclass(frozen=True)
class Chord:
    onset: float
    components: tuple  # ascending midi

    @property
    def size(self) -> int:
        return len(self.components)

    @property
    def midis(self) -> tuple:
        return tuple(c.midi for c in self.components)


@dataclass(frozen=True)
class ChordHmmParams:
    """Exponents and clustering settings of the chord HMM.

    ``truncate_overlaps`` optionally clips each note's offset at the next
    onset in its hand before clustering, a guard for synthetic input with
    unphysically long durations.  Its values follow the rules both model
    configs share, ``_tables.check_fields``.
    """

    beta1: float = 0.94
    beta2: float = 4.70
    gamma1: float = 7.53
    gamma2: float = 5.29
    zeta: float = 0.10
    delta: float = 0.030
    delta_p_max: int = 15
    smoothing_epsilon: float = 0.5
    truncate_overlaps: bool = False

    def __post_init__(self):
        check_fields(self)


@dataclass
class ChordHmmModel:
    """Trained chord HMM; tables are log probabilities.

    Digit tables are pooled over both hands; the lattice output tables
    are per hand.  Rows of the (5, 5) digit tables are conditioned on the
    first index; output rows are normalised over the displacement
    alphabet per digit pair.
    """

    params: ChordHmmParams
    log_initial_digit: np.ndarray   # (5,)
    log_trans_across: np.ndarray    # (5, 5)
    log_trans_within: np.ndarray    # (5, 5)
    log_out_across: dict            # hand -> (5, 5, alphabet)
    log_out_within: dict


@dataclass(frozen=True)
class ChordDecodeResult:
    states: tuple               # chosen digit assignment per chord
    log_score: float
    relaxed_boundaries: tuple   # chord indices where the sustain filter was lifted
    crossing_fallback_used: bool = False  # the note decoder's relaxation: states never cross


@dataclass(frozen=True, eq=False)
class Chords:
    """A hand's chords as columns, the one form every reader takes: per
    chord its onset and size (Python floats, ``intp``); per component,
    chord by chord in ascending pitch, its MIDI number and sustained flag;
    the ``(component, note position)`` pairs, by component and then
    position; the part's note id column, one id per position; and
    ``held``, boundary ci -> the ``(previous component, component)`` index
    pairs, within each chord, of the notes chord ci shares with chord
    ci - 1 where it holds a sustained copy, which the sustain filter
    ``_keeps`` reads.  ``len`` and indexing give one ``Chord`` view per
    chord, the views built on first read."""

    onsets: list
    sizes: np.ndarray
    midis: np.ndarray
    sustained: np.ndarray
    pairs: tuple
    ids: np.ndarray
    held: dict

    def __len__(self) -> int:
        return len(self.onsets)

    def __getitem__(self, ci):
        return self._views[ci]

    @cached_property
    def _views(self) -> list:
        ids = self.ids.tolist()
        note_ids = [tuple(ids[p] for _, p in pairs) for _, pairs in
                    groupby(zip(*(column.tolist() for column in self.pairs)), lambda pair: pair[0])]
        components = iter(map(ChordComponent, self.midis.tolist(), note_ids,
                              self.sustained.tolist()))
        return [Chord(onset, tuple(islice(components, size)))
                for onset, size in zip(self.onsets, self.sizes.tolist())]


def cluster_chords(piece: Piece, delta: float, truncate_overlaps: bool = False) -> Chords:
    """Greedy onset clustering of one hand part, plus sustained membership.

    A note joins the current chord when its onset is within ``delta`` of
    the previous note's.  It sounds until the earliest of its offset, the
    next onset of its pitch and, with ``truncate_overlaps``, the next
    onset, and joins every later chord that starts before then as
    sustained: a key struck again holds its earlier note no longer, a
    struck note displaces its pitch's held copy, and a unison is held from
    its later note.  Chords key notes by position, so two notes may share
    an id.  A NaN or infinite onset or offset raises FingeringError, and a
    part whose onsets go down NonMonotoneOnsets, as the parser refuses
    both; then the first chord of more than five pitches raises
    HandOverflow.
    """
    if len(piece):
        infer_hand(piece)
    onsets, midis, n = piece.onsets, piece.midis, len(piece)
    finite = np.isfinite(onsets) & np.isfinite(piece.offsets)
    if not finite.all():  # checked first: a NaN onset passes the order check
        i = finite.argmin()
        name, time = (("onset", onsets[i]) if not np.isfinite(onsets[i])
                      else ("offset", piece.offsets[i]))
        raise FingeringError(f"piece {piece.piece_id!r}: note {piece.ids[i]} has {name} {time}, "
                             "not a finite time")
    gaps = onsets[1:] - onsets[:-1]
    if (gaps < 0).any():
        i = (gaps < 0).argmax() + 1
        raise NonMonotoneOnsets(f"piece {piece.piece_id!r}: onset {onsets[i]} of note "
                                f"{piece.ids[i]} precedes {onsets[i - 1]}")
    opens = np.concatenate([[True], ~(gaps <= delta)])[:n]  # starts a chord
    group = opens.cumsum() - 1
    chord_onsets = onsets[opens]

    # a note's entries run in a row: struck in its chord, then held in each
    # later one that starts before the end of its sound
    by_pitch = midis.argsort(kind="stable")
    again = midis[by_pitch[1:]] == midis[by_pitch[:-1]]
    k, later = by_pitch[:-1][again], by_pitch[1:][again]  # a note, the next of its pitch
    end = piece.offsets.copy()
    end[k] = np.minimum(end[k], onsets[later])
    if truncate_overlaps:
        end = np.minimum(end, np.append(onsets, np.inf)[onsets.searchsorted(onsets, "right")])
    runs = np.maximum(chord_onsets.searchsorted(end) - group, 1)  # chords a note is in
    note = np.arange(n).repeat(runs)
    nth = np.arange(note.size) - (runs.cumsum() - runs).repeat(runs)  # 0: struck
    at = group[note] + nth  # each entry's chord
    order = np.lexsort((note, nth > 0, midis[note], at))
    chord, midi, sustained = at[order], midis[note[order]], nth[order] > 0
    step = (chord[1:] != chord[:-1]) | (midi[1:] != midi[:-1])
    first = np.concatenate([[True], step])[: chord.size]  # an entry that opens a component
    keep = first | ~sustained  # a struck note displaces its pitch's sustained copy
    kept = order[keep]
    sizes = np.bincount(chord[first], minlength=len(chord_onsets))
    over = np.flatnonzero(sizes > N_DIGITS).tolist()
    if over:
        raise HandOverflow(f"piece {piece.piece_id!r}: chord at {chord_onsets[over[0]]:.6f}s "
                           f"needs {sizes[over[0]].item()} pitches in one hand")
    comp = np.full(chord.size, -1)  # each entry's component; -1: displaced
    comp[kept] = np.cumsum(first[keep]) - 1
    start, copy = np.cumsum(sizes) - sizes, nth.nonzero()[0]  # entry copy - 1: the chord before
    ci, i, j = at[copy], comp[copy - 1], comp[copy]
    shared = (i >= 0) & (j >= 0)
    held = {}
    for c, a, b in zip(*(x[shared].tolist() for x in (ci, i - start[ci - 1], j - start[ci]))):
        held.setdefault(c, []).append((a, b))
    return Chords(chord_onsets.tolist(), sizes, midi[first], sustained[first],
                  (comp[kept], note[kept]), piece.ids, held)



@lru_cache(maxsize=None)
def _states(size: int, hand: Hand) -> tuple:
    """All crossing-free digit tuples of ``size`` pitches, ascending."""
    combos = combinations(range(1, N_DIGITS + 1), size)
    return tuple(sorted(c if hand is Hand.RH else c[::-1] for c in combos))


def enumerate_states(chord: Chord, hand: Hand) -> list:
    """All crossing-free digit assignments of a chord, in ascending
    lexicographic order; digits align with the pitch-ascending components.

    Which of them may follow the previous chord's state is decided by
    the one sustain filter, ``_keeps``, in the decoder's DP
    ``_run_viterbi``, whose blocks the path scorer reads.
    """
    return list(_states(chord.size, hand))


class ChordCounts(Counts):
    """Additive training counts of the chord HMM; ``skipped`` holds the
    piece ids of the parts left out for a hand overflow, in counting order.

    Table keys: ``"initial"``, the digits of each part's first chord,
    (5,); ``"trans_across"`` and ``"trans_within"``, digit pairs pooled
    over both hands, (5, 5); ``("out_across", hand)`` and ``("out_within",
    hand)``, (digit, digit, lattice cell) in that hand, (5, 5, alphabet).
    Within-chord events are the ordered component pairs of each chord,
    across-chord events all pairs between consecutive chords, previous
    component first.
    """

    SETTINGS = ("delta", "truncate_overlaps", "delta_p_max")


def _pairs(first_a, size_a, first_b, size_b) -> tuple:
    """Flat indices ``(first_a[g] + i, first_b[g] + j)`` of every pair
    ``i < size_a[g]``, ``j < size_b[g]`` of every group g."""
    n = size_a * size_b
    group = np.repeat(np.arange(n.size), n)
    t = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    return first_a[group] + t // size_b[group], first_b[group] + t % size_b[group]


def count(corpus, params: ChordHmmParams) -> ChordCounts:
    """Training counts of annotated single-hand pieces.  Empty pieces are
    skipped, and so are pieces with a hand overflow, whose ids are
    recorded.  Only the ``ChordCounts.SETTINGS`` fields matter here.  The
    events are read from the columns of every part at once."""
    size = alphabet_size(PitchRepresentation.LATTICE, params.delta_p_max)
    cell = index_table(PitchRepresentation.LATTICE, params.delta_p_max)
    shapes = {
        "initial": (N_DIGITS,),
        "trans_across": (N_DIGITS, N_DIGITS),
        "trans_within": (N_DIGITS, N_DIGITS),
    }
    for name in ("out_across", "out_within"):
        shapes.update({(name, hand): (N_DIGITS, N_DIGITS, size) for hand in Hand})
    cells = {key: [] for key in shapes}
    parts = annotated_parts(corpus)
    skipped, joined = [], [(np.zeros(0, dtype=np.intp),) * 5]  # a part of no chords: none may join
    for piece, hand, note_digits in parts:
        try:
            chords = cluster_chords(piece, params.delta, params.truncate_overlaps)
        except HandOverflow:
            skipped.append(piece.piece_id)
            continue
        comp, pos = chords.pairs
        first = pos[np.diff(comp, prepend=-1) != 0]  # each component's first note
        # per chord: its size and part; per component: its pitch, digit and hand
        joined.append((chords.sizes, np.full(chords.sizes.size, len(joined)), chords.midis,
                       note_digits[first], np.full(first.size, hand.value)))
    sizes, part, midis, digits, hands = map(np.concatenate, zip(*joined))
    keys, first = key_indices(midis), np.cumsum(sizes) - sizes
    cells["initial"].append(digits[np.repeat(np.diff(part, prepend=-1) != 0, sizes)])
    inner = part[1:] == part[:-1]  # the boundaries inside a part
    i, j = _pairs(first, sizes, first, sizes)
    for (a, b), name in (
        (_pairs(first[:-1][inner], sizes[:-1][inner], first[1:][inner], sizes[1:][inner]),
         "across"),
        ((i[i != j], j[i != j]), "within"),
    ):
        pair = digits[a] * N_DIGITS + digits[b]
        cells["trans_" + name].append(pair)
        out = pair * size + cell[keys[a], keys[b]]
        for hand in Hand:
            cells["out_" + name, hand].append(out[hands[a] == hand.value])
    return ChordCounts.collect(params, len(parts), shapes, cells, skipped)


def fit(counts: ChordCounts, params: ChordHmmParams) -> ChordHmmModel:
    """Maximum-likelihood factor tables from training counts.

    Every table gets ``smoothing_epsilon`` additive counts per cell
    before normalisation.  Warns once about the pieces with parts
    excluded for a hand overflow, each id once, in counting order.
    """
    counts.check(params)
    skipped = list(dict.fromkeys(counts.skipped))  # both hands of a piece can overflow
    if skipped:
        warnings.warn(f"hand overflow, excluded from chord training: {skipped}")
    eps = params.smoothing_epsilon

    def log_table(key):
        return safe_log(normalize_rows(counts.tables[key] + eps))

    return ChordHmmModel(
        params=params,
        log_initial_digit=log_table("initial"),
        log_trans_across=log_table("trans_across"),
        log_trans_within=log_table("trans_within"),
        log_out_across={h: log_table(("out_across", h)) for h in Hand},
        log_out_within={h: log_table(("out_within", h)) for h in Hand},
    )


def train_chord(corpus, params: ChordHmmParams) -> ChordHmmModel:
    """Maximum-likelihood training on annotated single-hand pieces:
    ``fit(count(corpus, params), params)``.  Pieces with a hand overflow
    are excluded with a warning."""
    return fit(count(corpus, params), params)


@lru_cache(maxsize=256)
def _layout(k_prev: int, k: int, hand: Hand, size: int) -> tuple:
    """Where the terms of one chord's score lie in ``_EdgeKernel.flat``, in
    summation order, for a chord of ``k`` pitches after one of ``k_prev``
    pitches (0: the first chord).

    Returns ``(base, a, b, has_cell)``: term t of the score of current
    state c after previous state r sits at ``base[t, r, c]``, plus, where
    ``has_cell[t]``, the alphabet cell of the step from pitch ``a[t]`` to
    pitch ``b[t]``, counted over the previous pitches and then the
    current ones.  Term 0 is the 0.0 the sum starts from.
    """
    t_across = 1 + N_DIGITS  # after the 0.0 and the initial digits
    o_across = t_across + N_DIGITS**2
    t_within = o_across + N_DIGITS**2 * size
    o_within = t_within + N_DIGITS**2
    prev = _states_array(k_prev, hand)[:, :, None]  # one empty state if k_prev = 0
    cur = _states_array(k, hand)[:, None, :]
    across = list(product(range(k_prev), range(k)))
    within = list(permutations(range(k), 2))
    terms = [(0, 0, 0, 0)]  # (base, a, b, has_cell)
    if k_prev == 0:
        terms += [(1 + cur[i], 0, 0, 0) for i in range(k)]
    terms += [(t_across + N_DIGITS * prev[i] + cur[j], 0, 0, 0) for i, j in across]
    terms += [
        (o_across + size * (N_DIGITS * prev[i] + cur[j]), i, k_prev + j, 1)
        for i, j in across
    ]
    terms += [(t_within + N_DIGITS * cur[i] + cur[j], 0, 0, 0) for i, j in within]
    terms += [
        (o_within + size * (N_DIGITS * cur[i] + cur[j]), k_prev + i, k_prev + j, 1)
        for i, j in within
    ]
    base, a, b, has_cell = zip(*terms)
    shape = (prev.shape[1], cur.shape[2])
    layout = (
        np.stack([np.broadcast_to(t, shape) for t in base]),
        np.array(a, dtype=np.intp),
        np.array(b, dtype=np.intp),
        np.array(has_cell, dtype=np.intp),
    )
    for array in layout:
        array.flags.writeable = False
    return layout


@lru_cache(maxsize=None)
def _states_array(size: int, hand: Hand) -> np.ndarray:
    """``_states`` as a (size, states) array of digit indices 0..4."""
    return np.array(_states(size, hand), dtype=np.intp).T - 1


class _EdgeKernel:
    """Log scores of chord states under one model and hand, from the
    factor tables raised to their exponents.

    A chord's score given its predecessor sums, from 0.0 and in this
    order: the across transitions of every (previous, current) component
    pair, previous component outer; the across outputs in the same order;
    the within transitions of every ordered component pair, row-major;
    the within outputs likewise.  The sum is multiplied by K**-zeta.  The
    first chord has its components' initial digits in place of the across
    terms.  A NaN score (a zero exponent times a -inf factor) is -inf.
    ``write`` gives every boundary's scores to the decoder and the path
    scorer alike.
    """

    def __init__(self, model: ChordHmmModel, hand: Hand):
        p = model.params
        with np.errstate(invalid="ignore", over="ignore"):
            # the layout _layout indexes
            self.flat = np.concatenate([
                [0.0],
                model.log_initial_digit,
                (p.beta1 * model.log_trans_across).ravel(),
                (p.gamma1 * model.log_out_across[hand]).ravel(),
                (p.beta2 * model.log_trans_within).ravel(),
                (p.gamma2 * model.log_out_within[hand]).ravel(),
            ])
        self.hand = hand
        self.size = alphabet_size(PitchRepresentation.LATTICE, p.delta_p_max)
        self.cell = index_table(PitchRepresentation.LATTICE, p.delta_p_max)
        self.zeta = p.zeta

    def write(self, out: np.ndarray, rows: list, chords: list) -> None:
        """Write the (previous states, current states) score matrix of
        boundary ci of each ``chords[p]`` into the top left of
        ``out[rows[p][ci]]``, the first chord's as a 1-row matrix.

        The boundaries of one (previous size, size) shape are one batch:
        its cells come through the shape's ``_layout`` from one key index
        per component, and its terms are added one at a time, in term
        order, into a (boundaries, rows, columns) total, cell for cell the
        float sequence of ``np.add.accumulate`` over the terms.
        """
        sizes = np.concatenate([c.sizes for c in chords])
        prev = np.concatenate([np.concatenate([[0], c.sizes[:-1]]) for c in chords])
        keys, rows = key_indices(np.concatenate([c.midis for c in chords])), np.concatenate(rows)
        # a boundary's pitches run on from its previous chord's first one
        start, shape = np.cumsum(sizes) - sizes - prev, prev * (N_DIGITS + 1) + sizes
        for code in np.unique(shape).tolist():
            members = np.flatnonzero(shape == code)
            k = code % (N_DIGITS + 1)
            base, a, b, has_cell = _layout(code // (N_DIGITS + 1), k, self.hand, self.size)
            at = start[members, None]
            cells = (has_cell * self.cell[keys[at + a], keys[at + b]])[:, :, None, None]
            total = np.zeros((members.size, *base.shape[1:]))
            for t in range(1, len(base)):  # term 0 is the 0.0 the sum starts from
                total += self.flat[base[t] + cells[:, t]]
            total *= k ** -self.zeta
            out[rows[members], : base.shape[1], : base.shape[2]] = np.fmax(total, NEG_INF, total)


def _keeps(chords: Chords, ci: int, hand: Hand):
    """Which (previous states, states) pairs of boundary ``ci`` keep the
    digit of every note the two chords share, or None if they share none:
    the component pairs ``held`` lists for it."""
    if ci not in chords.held:
        return None
    (i, j), size = map(list, zip(*chords.held[ci])), chords.sizes[ci - 1 : ci + 1].tolist()
    prev_states, states = _states_array(size[0], hand), _states_array(size[1], hand)
    return (prev_states[i][:, :, None] == states[j][:, None, :]).all(axis=0)


def _edges(model: ChordHmmModel, parts) -> list:
    """Per boundary ci of the DP over ``parts``, ``(chords, hand)`` pairs
    longest first, a (b, previous width, width) block: the score matrices
    of boundary ci of the first b parts, which have one, the first chord's
    as one row, padded with -inf after their states to the most states of
    a chord of theirs there."""
    lengths = [chords.sizes.size for chords, _ in parts]
    running = np.searchsorted(-np.array(lengths), -np.arange(lengths[0]))  # b per boundary
    first = np.cumsum(running) - running  # each boundary's first row
    rows = [first[:n] + p for p, n in enumerate(lengths)]
    states = np.zeros(sum(lengths), dtype=np.intp)  # C(5, size) per row
    states[np.concatenate(rows)] = np.array([1, 5, 10, 10, 5, 1])[
        np.concatenate([chords.sizes for chords, _ in parts])]
    width = np.maximum.reduceat(states, first).tolist()
    out = np.full((states.size, max(width), max(width)), NEG_INF)
    for hand in dict.fromkeys(hand for _, hand in parts):
        mine = [p for p, (_, h) in enumerate(parts) if h is hand]
        _EdgeKernel(model, hand).write(out, [rows[p] for p in mine], [parts[p][0] for p in mine])
    return [out[i : i + b, :w_prev, :w] for i, b, w_prev, w
            in zip(first.tolist(), running.tolist(), [1, *width], width)]


@np.errstate(over="ignore")  # a sum of log probabilities may overflow to -inf
def _run_viterbi(model: ChordHmmModel, parts) -> tuple:
    """Exact DP over the ``_edges`` of ``parts``, ``(chords, hand)`` pairs
    longest first, in lock step on ``_tables.LockStep``: its ``paths``,
    per part its relaxed boundaries, and the blocks as added.  A part's
    matrix is masked by ``_keeps`` before it is added, unless that leaves
    no finite score while its previous chord has one: then that boundary
    is relaxed, the matrix added unmasked."""
    edges, relaxed = _edges(model, parts), [[] for _ in parts]
    lock = LockStep(edges[0][:, 0])
    for ci, edge in enumerate(edges[1:], 1):
        dp = lock.running(len(edge))
        for p, (chords, hand) in enumerate(parts[: len(edge)]):
            keep = _keeps(chords, ci, hand)
            if keep is not None:
                matrix = edge[p, : keep.shape[0], : keep.shape[1]]
                masked = np.where(keep, matrix, NEG_INF)
                cand = dp[p, : keep.shape[0], None] + masked
                if cand.max() == NEG_INF and dp[p].max() > NEG_INF:
                    relaxed[p].append(ci)
                else:
                    matrix[...] = masked
        lock.step(dp[:, :, None] + edge)
    lock.running(0)
    return lock.paths, relaxed, edges


@np.errstate(over="ignore")
def _path_scores(edges: list, cells) -> np.ndarray:
    """The score of each row of ``cells``, a (paths, chords) array of state
    indices: its cells of the blocks a ``_run_viterbi`` of one part added,
    boundary by boundary."""
    score = edges[0][0, 0, cells[:, 0]]
    for ci in range(1, len(edges)):
        score = score + edges[ci][0, cells[:, ci - 1], cells[:, ci]]
    return score


def _check_sizes(chords: Chords, what: str) -> None:
    """Refuse chords no hand can play, before anything reads them:
    EmptyInput for none or one of no pitches, HandOverflow for more than five."""
    if not chords.onsets:
        raise EmptyInput(f"no chords to {what}")
    for ci, (onset, size) in enumerate(zip(chords.onsets, chords.sizes.tolist())):
        if not 0 < size <= N_DIGITS:
            error = HandOverflow if size else EmptyInput
            raise error(f"chord {ci} at {onset:.6f}s has {size} pitches, not 1 to 5")


def _check_hand(hand) -> None:
    """ValueError naming ``hand`` unless it is a Hand: chords have no
    channels to infer one from."""
    if not isinstance(hand, Hand):
        raise ValueError(f"hand must be a Hand, got {hand!r}")


def chord_path_log_score(model: ChordHmmModel, chords: Chords, hand: Hand, path) -> float:
    """Score of one complete state path, bitwise identical to the value
    the decoder assigns to it: ``_check_hand`` and ``_check_sizes`` first,
    then ValueError for a path of another length, a state its chord does
    not have, or a digit that is not an integer (True and 1.0 equal 1).

    Its row of ``_path_scores``: each chord's term is the path's
    ``[previous, current]`` cell of the matrix ``_run_viterbi`` added there:
    -inf where the path changes the digit of a sustained note, unless
    the decoder relaxed that boundary.
    """
    _check_hand(hand)
    path = [tuple(state) for state in path]
    _check_sizes(chords, "score")
    if len(path) != len(chords.onsets):
        raise ValueError("state path length does not match the chords")
    states = [_states(size, hand) for size in chords.sizes.tolist()]
    for ci, (options, state) in enumerate(zip(states, path)):
        if state not in options:
            raise ValueError(f"state {state} of chord {ci} is not a crossing-free assignment")
        check_digits(state)
    cells = [options.index(state) for options, state in zip(states, path)]
    return float(_path_scores(_run_viterbi(model, [(chords, hand)])[-1], np.array([cells]))[0])


def _decode_set(model: ChordHmmModel, parts, columns) -> list:
    """``_tables.decode_set`` of ``(part, hand)`` pairs whose chords are
    ``columns(part)``: per pair, (the digit of each note position, an
    ``int64`` array, and the decode result), or the FingeringError raised."""
    def prepare(part, hand):
        chords = columns(part)
        _check_sizes(chords, "decode")
        return chords.sizes.size, len(chords.ids), (chords, part_hand(part, hand))

    def result(chords, hand, decoded, relaxed):
        if decoded is None:
            return NoFeasiblePath("all chord state paths have zero probability")
        path = tuple(_states(size, hand)[i] for size, i in zip(chords.sizes.tolist(), decoded[1]))
        comp, pos = chords.pairs
        struck = ~chords.sustained[comp]
        by_position = np.zeros(len(chords.ids), dtype=np.int64)
        by_position[pos[struck]] = np.array([d for state in path for d in state])[comp[struck]]
        return by_position, ChordDecodeResult(
            states=path,
            log_score=decoded[0],
            relaxed_boundaries=tuple(relaxed),
        )

    return decode_set(parts, prepare, lambda batch: [
        result(*part, *out) for part, *out in zip(batch, *_run_viterbi(model, batch)[:2])])


def decode_chords(model: ChordHmmModel, chords: Chords, hand: Hand) -> ChordDecodeResult:
    """Exact Viterbi over chord states: ``decode_parts``' DP of one part's
    ``Chords``, raising its error.  Ties resolve to the lexicographically
    smallest state path, states in the order ``enumerate_states`` lists
    them, by the tie rule of ``_tables``.  A boundary where the sustain
    constraint leaves no feasible transition is relaxed and recorded; a
    decode whose score is still -inf raises NoFeasiblePath.
    ``_check_sizes`` refuses chords no hand can play first, after
    ``_check_hand``."""
    _check_hand(hand)
    (result,) = _decode_set(model, [(chords, hand)], lambda chords: chords)
    if isinstance(result, FingeringError):
        raise result
    return result[1]


def decode_parts(model: ChordHmmModel, parts) -> list:
    """Per ``(part, hand)`` of ``parts``, the hand inferred if None, in order:
    (the digit of each of its notes, the decode result), or the FingeringError
    that clustering or decoding it raised.  Each part is clustered once, and
    the parts are decoded in lock step, LOCKSTEP part-notes (or one part) to a DP."""
    p = model.params
    return _decode_set(model, parts,
                       lambda part: cluster_chords(part, p.delta, p.truncate_overlaps))
