"""Chord-level fingering HMM.

Notes whose onsets fall within a small threshold of each other are
clustered into chords, and a note that is still sounding when a later
chord starts joins that chord as a *sustained* component.  The hidden
state of a chord is a crossing-free assignment of distinct digits to its
(pitch-ascending) components: digits ascend with pitch in the right hand
and descend in the left, giving exactly C(5, K) states for K pitches.

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
current states) score matrix of each boundary of a chord list from the
scaled tables in one fixed term order, all boundaries of one (previous
size, size) shape at once.  A zero exponent times a -inf factor (NaN)
scores as -inf.  The decoder's recursion masks each matrix with the
sustain filter before adding it, except where the mask leaves no finite
transition: there it lifts the constraint at that boundary alone.  That
recursion, ``_forward``, is the one preparation: the decoder backtracks it,
and the oracle ``chord_path_log_score`` reads a path's cells of what it added.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product

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
    normalize_rows,
    rerank,
    safe_log,
)
from .errors import EmptyInput, HandOverflow, NoFeasiblePath, RepeatedNoteId
from .pig_io import Hand, Piece, infer_hand
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
    fingers_by_note: dict       # note id -> digit
    states: tuple               # chosen digit assignment per chord
    log_score: float
    relaxed_boundaries: tuple   # chord indices where the sustain filter was lifted
    crossing_fallback_used: bool = False  # the note decoder's relaxation: states never cross


def cluster_chords(piece: Piece, delta: float, truncate_overlaps: bool = False) -> list:
    """Greedy onset clustering of one hand part, plus sustained membership.

    A note joins the current chord when its onset is within ``delta`` of
    the chord's latest member onset; afterwards every note whose offset
    exceeds a later chord's onset is added there as sustained.  A pitch
    that is re-struck displaces its sustained copy.  Chords identify
    notes by ``note_id``, so a repeated id raises RepeatedNoteId.
    """
    if len(piece) == 0:
        return []
    infer_hand(piece)
    notes = list(piece.notes)
    seen = set()
    for note in notes:
        if note.note_id in seen:
            raise RepeatedNoteId(
                f"piece {piece.piece_id!r}: note id {note.note_id} occurs twice"
            )
        seen.add(note.note_id)
    next_onset = {}
    if truncate_overlaps:
        onsets = sorted({n.onset for n in notes})
        for i, t in enumerate(onsets[:-1]):
            next_onset[t] = onsets[i + 1]

    groups: list = []
    for note in notes:
        if groups and note.onset - groups[-1][-1].onset <= delta:
            groups[-1].append(note)
        else:
            groups.append([note])
    chord_onsets = [g[0].onset for g in groups]

    members: list = [{} for _ in groups]  # midi -> [ids, sustained]
    # midi -> the last chord an earlier note of that pitch already sustains
    # into; chord onsets never descend, so each walk may start after it,
    # and the walks of one pitch visit each chord at most once
    reach: dict = {}
    for gi, group in enumerate(groups):
        for note in group:
            entry = members[gi].get(note.midi)
            if entry is None or entry[1]:
                members[gi][note.midi] = [[note.note_id], False]
            else:
                entry[0].append(note.note_id)
            offset = note.offset
            if truncate_overlaps and note.onset in next_onset:
                offset = min(offset, next_onset[note.onset])
            gj = max(gi, reach.get(note.midi, gi)) + 1
            while gj < len(groups) and chord_onsets[gj] < offset:
                members[gj][note.midi] = [[note.note_id], True]
                gj += 1
            reach[note.midi] = gj - 1

    chords = []
    for gi, table in enumerate(members):
        if len(table) > N_DIGITS:
            raise HandOverflow(
                f"piece {piece.piece_id!r}: chord at {chord_onsets[gi]:.6f}s "
                f"needs {len(table)} pitches in one hand"
            )
        components = tuple(
            ChordComponent(midi=midi, note_ids=tuple(ids), sustained=sustained)
            for midi, (ids, sustained) in sorted(table.items())
        )
        chords.append(Chord(onset=chord_onsets[gi], components=components))
    return chords


@lru_cache(maxsize=None)
def _states(size: int, hand: Hand) -> tuple:
    """All crossing-free digit tuples of ``size`` pitches, ascending."""
    combos = combinations(range(1, N_DIGITS + 1), size)
    return tuple(sorted(c if hand is Hand.RH else c[::-1] for c in combos))


def enumerate_states(chord: Chord, hand: Hand) -> list:
    """All crossing-free digit assignments of a chord, in ascending
    lexicographic order; digits align with the pitch-ascending components.

    Which of them may follow the previous chord's state is decided by
    the one sustain filter, ``_keeps``, in the decoder's recursion
    ``_forward``, whose matrices the path scorer reads.
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
    recorded.  Only the ``ChordCounts.SETTINGS`` fields matter here."""
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
    skipped = []
    for piece, hand, note_digits in parts:
        try:
            chords = cluster_chords(piece, params.delta, params.truncate_overlaps)
        except HandOverflow:
            skipped.append(piece.piece_id)
            continue
        # every component of every chord, flat: its key index and digit
        flat = [c for chord in chords for c in chord.components]
        position = {note.note_id: i for i, note in enumerate(piece.notes)}
        keys = key_indices(c.midi for c in flat)
        digits = note_digits[[position[c.note_ids[0]] for c in flat]]
        sizes = np.array([chord.size for chord in chords])
        first = np.cumsum(sizes) - sizes
        cells["initial"].append(digits[: sizes[0]])
        i, j = _pairs(first, sizes, first, sizes)
        for (a, b), name in (
            (_pairs(first[:-1], sizes[:-1], first[1:], sizes[1:]), "across"),
            ((i[i != j], j[i != j]), "within"),
        ):
            pair = digits[a] * N_DIGITS + digits[b]
            cells["trans_" + name].append(pair)
            cells["out_" + name, hand].append(pair * size + cell[keys[a], keys[b]])
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
    ``matrices`` gives every boundary's scores to the decoder and the
    path scorer alike.
    """

    def __init__(self, model: ChordHmmModel, hand: Hand):
        p = model.params
        with np.errstate(invalid="ignore"):
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

    def matrices(self, chords: list) -> list:
        """The (previous states, current states) score matrix of every
        boundary of ``chords``, the first chord's as a 1-row matrix.

        The boundaries of one (previous size, size) shape are one batch:
        its cells come through the shape's ``_layout`` from one key index
        per component, and its terms are added one at a time, in term
        order, into a (boundaries, rows, columns) total, cell for cell the
        float sequence of ``np.add.accumulate`` over the terms.
        """
        sizes = [chord.size for chord in chords]
        keys = key_indices(c.midi for chord in chords for c in chord.components)
        # a boundary's pitches run on from its previous chord's first one
        start = np.cumsum([0, 0, *sizes[:-2]])
        batches = {}
        for ci, shape in enumerate(zip([0, *sizes[:-1]], sizes)):
            batches.setdefault(shape, []).append(ci)
        out = [None] * len(chords)
        for (k_prev, k), members in batches.items():
            base, a, b, has_cell = _layout(k_prev, k, self.hand, self.size)
            at = start[members, None]
            cells = (has_cell * self.cell[keys[at + a], keys[at + b]])[:, :, None, None]
            total = np.zeros((len(members), *base.shape[1:]))
            for t in range(1, len(base)):  # term 0 is the 0.0 the sum starts from
                total += self.flat[base[t] + cells[:, t]]
            for ci, matrix in zip(members, np.fmax(k ** -self.zeta * total, NEG_INF)):
                out[ci] = matrix
        return out


def _keeps(prev: Chord, chord: Chord, hand: Hand):
    """Which (previous states, states) pairs keep the digit of every note
    the two chords share, or None if they share none; only a sustained
    copy repeats a note of the previous chord."""
    if not any(c.sustained for c in chord.components):
        return None
    where = {nid: i for i, c in enumerate(prev.components) for nid in c.note_ids}
    prev_states, states = _states_array(prev.size, hand), _states_array(chord.size, hand)
    keep = True
    for j, c in enumerate(chord.components):
        for nid in c.note_ids:
            if nid in where:
                keep = keep & (prev_states[where[nid]][:, None] == states[j])
    return None if keep is True else keep


def _forward(model: ChordHmmModel, chords: list, hand: Hand) -> tuple:
    """The Viterbi recursion over the ``_EdgeKernel.matrices`` of ``chords``:
    (final scores, final prefix keys, parents, relaxed boundaries, the
    matrices added).  Each is masked by ``_keeps`` before it is added,
    unless that leaves no finite score while the previous chord has one:
    then that boundary is relaxed, added unmasked."""
    edges = _EdgeKernel(model, hand).matrices(chords)
    dp = edges[0][0]
    rank, top = np.arange(dp.size), dp.size - 1
    parents, relaxed = [], []
    for ci in range(1, len(chords)):
        edge = edges[ci]
        keep = _keeps(chords[ci - 1], chords[ci], hand)
        if keep is not None:
            edges[ci] = np.where(keep, edge, NEG_INF)
        cand = dp[:, None] + edges[ci]
        if keep is not None and cand.max() == NEG_INF and dp.max() > NEG_INF:
            edges[ci] = edge
            cand = dp[:, None] + edge
            relaxed.append(ci)
        dp, parent = best_parents(cand, rank[:, None])
        parents.append(parent)
        rank, top = rerank(rank, parent, top)
    return dp, rank, parents, relaxed, edges


def _path_scores(edges: list, cells) -> np.ndarray:
    """The score of each row of ``cells``, a (paths, chords) array of state
    indices: its cells of the matrices ``_forward`` added, boundary by boundary."""
    score = edges[0][0, cells[:, 0]]
    for ci in range(1, len(edges)):
        score = score + edges[ci][cells[:, ci - 1], cells[:, ci]]
    return score


def _check_sizes(chords: list, what: str) -> None:
    """Refuse chords no hand can play, before anything reads them:
    EmptyInput for none or one of no pitches, HandOverflow for more than five."""
    if not chords:
        raise EmptyInput(f"no chords to {what}")
    for ci, chord in enumerate(chords):
        if not 0 < chord.size <= N_DIGITS:
            error = HandOverflow if chord.size else EmptyInput
            raise error(f"chord {ci} at {chord.onset:.6f}s has {chord.size} pitches, not 1 to 5")


def chord_path_log_score(model: ChordHmmModel, chords, hand: Hand, path) -> float:
    """Score of one complete state path, bitwise identical to the value
    the decoder assigns to it: the refusals of ``_check_sizes`` first,
    then ValueError for a path of another length, a state its chord does
    not have, or a digit that is not an integer (True and 1.0 equal 1).

    Its row of ``_path_scores``: each chord's term is the path's
    ``[previous, current]`` cell of the matrix ``_forward`` added there:
    -inf where the path changes the digit of a sustained note, unless
    the decoder relaxed that boundary.
    """
    chords, path = list(chords), [tuple(state) for state in path]
    _check_sizes(chords, "score")
    if len(path) != len(chords):
        raise ValueError("state path length does not match the chords")
    for ci, (chord, state) in enumerate(zip(chords, path)):
        if state not in _states(chord.size, hand):
            raise ValueError(f"state {state} of chord {ci} is not a crossing-free assignment")
        check_digits(state)
    cells = [_states(chord.size, hand).index(state) for chord, state in zip(chords, path)]
    return float(_path_scores(_forward(model, chords, hand)[-1], np.array([cells]))[0])


def decode_chords(model: ChordHmmModel, chords, hand: Hand) -> ChordDecodeResult:
    """Exact Viterbi over chord states.

    Each boundary is one (previous states, current states) score matrix
    from ``_EdgeKernel.matrices``, masked where a sustained note would
    change digit.  Ties resolve to the lexicographically smallest state path by
    the tie rule of ``_tables``; since ``enumerate_states`` lists states in
    ascending order, each boundary extends the prefix keys by the state
    index, ``key[parent] * states + index``, so ties cost O(states) per
    chord and no boundary sorts.  If the sustain constraint leaves no
    feasible transition at some boundary, that boundary alone is relaxed
    and recorded; a decode whose score is still -inf raises NoFeasiblePath.
    ``_check_sizes`` refuses chords no hand can play first.
    """
    chords = list(chords)
    _check_sizes(chords, "decode")
    dp, rank, parents, relaxed, _ = _forward(model, chords, hand)
    best, indices = best_path(dp, rank, parents)
    if indices is None:
        raise NoFeasiblePath("all chord state paths have zero probability")
    path = tuple(_states(chord.size, hand)[i] for chord, i in zip(chords, indices))

    fingers_by_note = {}
    for chord, state in zip(chords, path):
        for component, digit in zip(chord.components, state):
            if not component.sustained:
                for nid in component.note_ids:
                    fingers_by_note[nid] = digit
    return ChordDecodeResult(
        fingers_by_note=fingers_by_note,
        states=path,
        log_score=float(best),
        relaxed_boundaries=tuple(relaxed),
    )
