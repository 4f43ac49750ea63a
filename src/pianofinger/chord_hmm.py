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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from ._tables import backtrack, normalize_rows, prefix_ranks, safe_log
from .errors import (
    EmptyCorpus,
    EmptyInput,
    HandOverflow,
    MissingFinger,
    NoFeasiblePath,
)
from .pig_io import Hand, Piece, infer_hand
from .pitch_space import (
    PitchRepresentation,
    alphabet_size,
    displacement,
    displacement_index,
)

N_DIGITS = 5
NEG_INF = float("-inf")
_LATTICE = PitchRepresentation.LATTICE


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
    unphysically long durations.
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
        for name in ("beta1", "beta2", "gamma1", "gamma2", "zeta", "delta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.delta_p_max < 1:
            raise ValueError("delta_p_max must be positive")
        if self.smoothing_epsilon < 0:
            raise ValueError("smoothing_epsilon must be non-negative")


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


@lru_cache(maxsize=65536)
def _cached_didx(delta_p_max: int, from_midi: int, to_midi: int) -> int:
    d = displacement(_LATTICE, from_midi, to_midi, delta_p_max)
    return displacement_index(_LATTICE, delta_p_max, d)


def _didx(params: ChordHmmParams, from_midi: int, to_midi: int) -> int:
    return _cached_didx(params.delta_p_max, from_midi, to_midi)


def cluster_chords(piece: Piece, delta: float, truncate_overlaps: bool = False) -> list:
    """Greedy onset clustering of one hand part, plus sustained membership.

    A note joins the current chord when its onset is within ``delta`` of
    the chord's latest member onset; afterwards every note whose offset
    exceeds a later chord's onset is added there as sustained.  A pitch
    that is re-struck displaces its sustained copy.
    """
    if len(piece) == 0:
        return []
    infer_hand(piece)
    notes = list(piece.notes)
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
            for gj in range(gi + 1, len(groups)):
                if chord_onsets[gj] >= offset:
                    break
                if note.midi not in members[gj]:
                    members[gj][note.midi] = [[note.note_id], True]

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


def enumerate_states(chord: Chord, hand: Hand, carried: dict | None = None) -> list:
    """All crossing-free digit assignments of a chord, in ascending
    lexicographic order.

    Digits align with the pitch-ascending components; ``carried`` pins
    note id -> digit for sustained components and filters accordingly.
    """
    states = []
    for combo in combinations(range(1, N_DIGITS + 1), chord.size):
        digits = combo if hand is Hand.RH else tuple(reversed(combo))
        if carried is not None and not _matches_carried(chord, digits, carried):
            continue
        states.append(digits)
    states.sort()
    return states


def _matches_carried(chord: Chord, digits, carried: dict) -> bool:
    for component, digit in zip(chord.components, digits):
        for nid in component.note_ids:
            if nid in carried and carried[nid] != digit:
                return False
    return True


def train_chord(corpus, params: ChordHmmParams) -> ChordHmmModel:
    """Maximum-likelihood training of the pairwise factor tables.

    Within-chord counts take all ordered component pairs of each chord;
    across-chord counts take all ordered pairs between consecutive
    chords.  Every table gets ``smoothing_epsilon`` additive counts per
    cell before normalisation.  Pieces with a hand overflow are excluded
    with a warning.
    """
    pieces = [p for p in corpus if len(p) > 0]
    if not pieces:
        raise EmptyCorpus("training corpus is empty")
    size = alphabet_size(_LATTICE, params.delta_p_max)
    init = np.zeros(N_DIGITS)
    t_across = np.zeros((N_DIGITS, N_DIGITS))
    t_within = np.zeros((N_DIGITS, N_DIGITS))
    o_across = {h: np.zeros((N_DIGITS, N_DIGITS, size)) for h in Hand}
    o_within = {h: np.zeros((N_DIGITS, N_DIGITS, size)) for h in Hand}

    skipped = []
    for piece in pieces:
        hand = infer_hand(piece)
        digit_of = {}
        for note in piece.notes:
            if note.finger is None:
                raise MissingFinger(
                    f"note {note.note_id} of {piece.piece_id!r} has no finger"
                )
            digit_of[note.note_id] = note.finger.digit
        try:
            chords = cluster_chords(piece, params.delta, params.truncate_overlaps)
        except HandOverflow:
            skipped.append(piece.piece_id)
            continue
        prev_digits = prev_midis = None
        for ci, chord in enumerate(chords):
            digits = [digit_of[c.note_ids[0]] for c in chord.components]
            midis = list(chord.midis)
            if ci == 0:
                for d in digits:
                    init[d - 1] += 1.0
            for i in range(len(digits)):
                for j in range(len(digits)):
                    if i == j:
                        continue
                    t_within[digits[i] - 1, digits[j] - 1] += 1.0
                    o_within[hand][
                        digits[i] - 1, digits[j] - 1, _didx(params, midis[i], midis[j])
                    ] += 1.0
            if ci > 0:
                for i in range(len(prev_digits)):
                    for j in range(len(digits)):
                        t_across[prev_digits[i] - 1, digits[j] - 1] += 1.0
                        o_across[hand][
                            prev_digits[i] - 1,
                            digits[j] - 1,
                            _didx(params, prev_midis[i], midis[j]),
                        ] += 1.0
            prev_digits, prev_midis = digits, midis
    if skipped:
        warnings.warn(f"hand overflow, excluded from chord training: {skipped}")

    eps = params.smoothing_epsilon
    return ChordHmmModel(
        params=params,
        log_initial_digit=safe_log(normalize_rows(init + eps)),
        log_trans_across=safe_log(normalize_rows(t_across + eps)),
        log_trans_within=safe_log(normalize_rows(t_within + eps)),
        log_out_across={h: safe_log(normalize_rows(o_across[h] + eps)) for h in Hand},
        log_out_within={h: safe_log(normalize_rows(o_within[h] + eps)) for h in Hand},
    )


def _edge_score(
    model: ChordHmmModel,
    hand: Hand,
    prev_chord: Chord | None,
    prev_state,
    chord: Chord,
    state,
    check_sustain: bool = True,
) -> float:
    """Log contribution of one chord given its predecessor, scaled by
    K**-zeta; -inf when a sustained note would change digit."""
    p = model.params
    if prev_chord is not None and check_sustain:
        carried = {
            nid: d
            for component, d in zip(prev_chord.components, prev_state)
            for nid in component.note_ids
        }
        if not _matches_carried(chord, state, carried):
            return NEG_INF
    total = 0.0
    midis = chord.midis
    if prev_chord is None:
        for d in state:
            total += model.log_initial_digit[d - 1]
    else:
        pmidis = prev_chord.midis
        for pd in prev_state:
            for d in state:
                total += p.beta1 * model.log_trans_across[pd - 1, d - 1]
        for i, pd in enumerate(prev_state):
            for j, d in enumerate(state):
                total += p.gamma1 * model.log_out_across[hand][
                    pd - 1, d - 1, _didx(p, pmidis[i], midis[j])
                ]
    k = chord.size
    for i in range(k):
        for j in range(k):
            if i != j:
                total += p.beta2 * model.log_trans_within[state[i] - 1, state[j] - 1]
    for i in range(k):
        for j in range(k):
            if i != j:
                total += p.gamma2 * model.log_out_within[hand][
                    state[i] - 1, state[j] - 1, _didx(p, midis[i], midis[j])
                ]
    return k ** (-p.zeta) * total


def chord_path_log_score(
    model: ChordHmmModel, chords, hand: Hand, path, *, relaxed=()
) -> float:
    """Score of one complete state path, bitwise identical to the value
    the decoder assigns to it.

    ``relaxed`` holds the chord indices whose incoming edge is scored
    without the sustain filter: pass the decode's ``relaxed_boundaries``.
    """
    acc = _edge_score(model, hand, None, None, chords[0], path[0])
    for ci in range(1, len(chords)):
        acc = acc + _edge_score(
            model, hand, chords[ci - 1], path[ci - 1], chords[ci], path[ci],
            ci not in relaxed,
        )
    return acc


def decode_chords(model: ChordHmmModel, chords, hand: Hand) -> ChordDecodeResult:
    """Exact Viterbi over chord states.

    Ties resolve to the lexicographically smallest state path: ``rank[i]``
    places state i's best prefix among all best prefixes, a tie goes to
    the lower-ranked predecessor, and since ``enumerate_states`` lists
    states in ascending order, prefixes re-rank by (parent rank, own
    index), so ties cost O(states) per chord.  If the sustain constraint
    leaves no feasible transition at some boundary, that boundary alone
    is relaxed and recorded; a decode whose score is still -inf raises
    NoFeasiblePath.
    """
    chords = list(chords)
    if not chords:
        raise EmptyInput("no chords to decode")
    states_per = [enumerate_states(ch, hand) for ch in chords]
    dp = [_edge_score(model, hand, None, None, chords[0], s) for s in states_per[0]]
    rank = list(range(len(dp)))
    parents = []
    relaxed = []
    for ci in range(1, len(chords)):
        prev_chord, chord = chords[ci - 1], chords[ci]
        prev_states, cur_states = states_per[ci - 1], states_per[ci]

        def advance(check_sustain):
            new_dp, new_parents = [], []
            for state in cur_states:
                best, best_pi = NEG_INF, 0
                for pi, prev_state in enumerate(prev_states):
                    if dp[pi] == NEG_INF:
                        continue
                    cand = dp[pi] + _edge_score(
                        model, hand, prev_chord, prev_state, chord, state,
                        check_sustain,
                    )
                    if cand > best:
                        best, best_pi = cand, pi
                    elif cand == best > NEG_INF and rank[pi] < rank[best_pi]:
                        best_pi = pi
                new_dp.append(best)
                new_parents.append(best_pi)
            return new_dp, new_parents

        new_dp, new_parents = advance(True)
        if all(v == NEG_INF for v in new_dp) and any(v > NEG_INF for v in dp):
            new_dp, new_parents = advance(False)
            relaxed.append(ci)
        dp = new_dp
        parents.append(new_parents)
        rank = prefix_ranks(rank, new_parents)

    best = max(dp)
    if best == NEG_INF:
        raise NoFeasiblePath("all chord state paths have zero probability")
    last = min((i for i, v in enumerate(dp) if v == best), key=rank.__getitem__)
    path = tuple(states[i] for states, i in zip(states_per, backtrack(parents, last)))

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
