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

One edge kernel scores every chord: at each boundary it gathers the
(previous states, current states) score matrix from the scaled tables
in one fixed term order, and ``chord_path_log_score`` scores a single
path through the same kernel, cell by cell, so the two agree bitwise.
A zero exponent times a -inf factor (NaN) scores as -inf.  Where the
sustain constraint leaves no finite transition, the decoder lifts it at
that boundary alone; the path scorer finds such boundaries itself.
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


def enumerate_states(chord: Chord, hand: Hand, carried: dict | None = None) -> list:
    """All crossing-free digit assignments of a chord, in ascending
    lexicographic order.

    Digits align with the pitch-ascending components; ``carried`` pins
    note id -> digit for sustained components and filters accordingly.
    """
    states = _states(chord.size, hand)
    if carried is None:
        return list(states)
    return [s for s in states if _matches_carried(chord, s, carried)]


def _matches_carried(chord: Chord, digits, carried: dict) -> bool:
    for component, digit in zip(chord.components, digits):
        for nid in component.note_ids:
            if nid in carried and carried[nid] != digit:
                return False
    return True


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
    terms.  Each score is one elementwise float sequence, so a full
    (previous states, current states) matrix and a single path cell agree
    bitwise.  A NaN score (a zero exponent times a -inf factor) is -inf.
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

    def scores(self, prev_midis: tuple, midis: tuple, rows=slice(None), cols=slice(None)):
        """The (previous states, current states) scores of a chord with
        pitches ``midis`` after one with ``prev_midis`` (empty for the
        first chord, which has one row), restricted to the slices
        ``rows`` and ``cols`` of the state lists."""
        base, a, b, has_cell = _layout(len(prev_midis), len(midis), self.hand, self.size)
        keys = key_indices(prev_midis + midis)
        terms = base[:, rows, cols] + (has_cell * self.cell[keys[a], keys[b]])[:, None, None]
        total = np.add.accumulate(self.flat[terms])[-1]  # strictly in term order
        return np.fmax(len(midis) ** -self.zeta * total, NEG_INF)


def _shared(prev: Chord, chord: Chord) -> list:
    """(previous, current) component index pairs that hold one note."""
    where = {nid: i for i, c in enumerate(prev.components) for nid in c.note_ids}
    return sorted({
        (where[nid], j)
        for j, c in enumerate(chord.components)
        for nid in c.note_ids
        if nid in where
    })


def _keeps(shared: list, prev_states: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Which (previous, current) state pairs keep every shared note's digit,
    for (K, states) digit arrays."""
    keep = True
    for i, j in shared:
        keep = keep & (prev_states[i][:, None] == states[j])
    return keep


def _forward(kernel: _EdgeKernel, chords: list, hand: Hand) -> tuple:
    """The Viterbi recursion: (final scores, final ranks, parents, relaxed
    boundaries).  At each boundary the sustain mask applies unless it
    leaves no finite score while the previous chord has one; then that
    boundary alone is scored unmasked and recorded as relaxed."""
    pitches = [chord.midis for chord in chords]
    states = [_states_array(len(m), hand) for m in pitches]
    dp = kernel.scores((), pitches[0])[0]
    rank = np.arange(dp.size)
    parents, relaxed = [], []
    for ci in range(1, len(chords)):
        cand = dp[:, None] + kernel.scores(pitches[ci - 1], pitches[ci])
        shared = _shared(chords[ci - 1], chords[ci])
        if shared:
            kept = np.where(_keeps(shared, states[ci - 1], states[ci]), cand, NEG_INF)
            if kept.max() > NEG_INF or dp.max() == NEG_INF:
                cand = kept
            else:
                relaxed.append(ci)
        dp, parent = best_parents(cand, rank[:, None])
        parents.append(parent)
        rank = rerank(rank, parent)
    return dp, rank, parents, relaxed


def chord_path_log_score(model: ChordHmmModel, chords, hand: Hand, path) -> float:
    """Score of one complete state path, bitwise identical to the value
    the decoder assigns to it.

    Each chord's cell comes from the decoder's edge kernel, restricted to
    the path's states.  Where the path changes the digit of a sustained
    note, the edge is -inf unless the decoder relaxes that boundary.
    Finding that out needs the decoder's recursion, run at most once,
    only when no sustain-keeping edge from the path's previous state is
    finite: otherwise the boundary is not relaxed, or the path's prefix
    already scores -inf.
    """
    chords = list(chords)
    kernel = _EdgeKernel(model, hand)
    pitches = [chord.midis for chord in chords]
    states = [_states_array(len(m), hand) for m in pitches]
    cells = [
        slice(i, i + 1)
        for i in (_states(len(m), hand).index(tuple(s)) for m, s in zip(pitches, path))
    ]
    relaxed = None  # the decoder's relaxed boundaries, found when first needed
    score = kernel.scores((), pitches[0], cols=cells[0])[0, 0]
    for ci in range(1, len(chords)):
        prev, cur = cells[ci - 1], cells[ci]
        edge = kernel.scores(pitches[ci - 1], pitches[ci], prev, cur)[0, 0]
        shared = _shared(chords[ci - 1], chords[ci])
        if shared and not _keeps(shared, states[ci - 1][:, prev], states[ci][:, cur]).all():
            # a sustained note changes digit: -inf unless the decoder relaxes here
            row = np.where(
                _keeps(shared, states[ci - 1][:, prev], states[ci]),
                kernel.scores(pitches[ci - 1], pitches[ci], prev),
                NEG_INF,
            )
            if row.max() > NEG_INF:
                edge = NEG_INF
            else:
                if relaxed is None:
                    relaxed = _forward(kernel, chords, hand)[3]
                if ci not in relaxed:
                    edge = NEG_INF
        score = score + edge
    return float(score)


def decode_chords(model: ChordHmmModel, chords, hand: Hand) -> ChordDecodeResult:
    """Exact Viterbi over chord states.

    Each boundary is one (previous states, current states) score matrix
    from the edge kernel, masked where a sustained note would change
    digit.  Ties resolve to the lexicographically smallest state path by
    the tie rule of ``_tables``; since ``enumerate_states`` lists states in
    ascending order, prefixes re-rank by (parent rank, own index), so ties
    cost O(states) per chord.  If the
    sustain constraint leaves no feasible transition at some boundary,
    that boundary alone is relaxed and recorded; a decode whose score is
    still -inf raises NoFeasiblePath.
    """
    chords = list(chords)
    if not chords:
        raise EmptyInput("no chords to decode")
    dp, rank, parents, relaxed = _forward(_EdgeKernel(model, hand), chords, hand)
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
