"""Plain references the tests check the library's fast paths against.

The dense tie rule: after every DP step the best prefixes are ranked
0..states-1 by one stable argsort, and ``best_parents`` takes the
lowest-ranked of the tied best candidates; ``dense_step`` is
``LockStep.step`` by that rule.  ``pianofinger._tables`` extends integer
keys instead, in both decoders and the recombination DP, and reads each
parent off its winning key; both must choose the same parents.

The per-boundary chord edge kernel: each boundary's score matrix is
gathered on its own and summed by ``np.add.accumulate`` over the terms.
``pianofinger.chord_hmm._EdgeKernel.write`` scores every boundary of
one shape at once; both must give the same bytes, and ``write_edges``
writes the per-boundary matrices where the kernel writes its own.

The scalar forms of vectorised rules: one note's output score
(``output_score``), the within-chord crossing rule
(``chord_crossing_allowed``), one displacement's alphabet cell
(``displacement_index``) and its negation (``negate``).  The
recombination DP by enumeration (``brute_force_recombination``) and as
the per-note loop the lock-step batch replaced
(``reference_recombination``), which stays the dense-rank reference for
its tie rule, ``cluster_chords`` as a quadratic walk
(``reference_cluster_chords``), and the chord decoder's sustain filter
``_keeps`` by enumeration of (previous state, state) pairs (``keeps``).
Chord clustering and the chord HMM's training counts as one ``Chord``
per chord, read back one attribute at a time (``reference_chord_objects``,
the same keyed by note position, ``reference_chord_positions``, and
``reference_chord_count``), the earlier clustering walk, whose
sustain ran past a re-strike (``offset_walk_chords``), and a ``Chord``
list as the ``Chords`` columns the decoder reads, for chords no piece
clusters into (``chord_columns``).  The
fingering-file parser as the per-line loop the column-at-a-time parser
replaced (``reference_parse_fingering_file``),
and the per-note readers that the piece's columns replaced: the per-hand
view, the writer, the alignment check and the ground-truth set
(``reference_hand_positions``, ``reference_split_hands``,
``reference_serialize_fingering_file``, ``reference_check_alignment``,
``reference_from_pieces``).
The note decoder's step tables of one hand part at a time, as they were
before one set of tables joined every part of a batch
(``reference_step_tables``), and its oracle's read as the per-note loop
(``path_scores``).  The chord decoder as the per-part recursion that the
lock-step DP replaced (``chord_viterbi``).
"""

import math
from dataclasses import replace
from itertools import product
from operator import attrgetter

import numpy as np

from pianofinger._tables import N_DIGITS, NEG_INF, annotated_parts
from pianofinger.chord_hmm import (
    Chord,
    ChordComponent,
    ChordCounts,
    ChordHmmParams,
    Chords,
    _EdgeKernel,
    _keeps,
    _layout,
    _pairs,
    _states,
    enumerate_states,
)
from pianofinger.errors import (
    AlignmentMismatch,
    HandOverflow,
    InvalidFinger,
    InvalidPitchToken,
    LengthMismatch,
    MalformedLine,
    MissingFinger,
    NonMonotoneOnsets,
)
from pianofinger.note_hmm import (
    ALLOWED_ASCENDING_RH,
    ALLOWED_DESCENDING_RH,
    NoteHmmModel,
    _run_viterbi,
    _steps,
    _window_codes,
)
from pianofinger.pig_io import (
    TIME_DECIMALS,
    GroundTruthSet,
    Hand,
    Note,
    Piece,
    infer_hand,
    pitch_to_midi,
    resolve_substitution,
)
from pianofinger.pitch_space import (
    Displacement,
    PitchRepresentation,
    alphabet_size,
    index_table,
    key_indices,
)

INF = math.inf


def best_parents(scores: np.ndarray, rank: np.ndarray) -> tuple:
    """``(best, parent)`` of one DP step: the best of ``scores`` over axis
    0, the candidate parents, and the lowest-ranked candidate that reaches
    it; ``rank`` ranks the candidates, shaped to broadcast to ``scores``."""
    best = scores.max(axis=0)
    return best, np.where(scores == best, rank, rank.size).argmin(axis=0)


def rerank(rank: np.ndarray, parent: np.ndarray) -> tuple:
    """``(ranks, top)``: the lexicographic ranks after one DP step in which
    state i extends the best prefix of state ``parent[i]``, by (parent
    rank, own index), as the sort is stable, and the largest of them."""
    order = np.argsort(rank[parent], kind="stable")
    new_rank = np.empty_like(order)
    new_rank[order] = np.arange(order.size)
    return new_rank, order.size - 1


def dense_step(lock, scores: np.ndarray, after: np.ndarray | None = None) -> np.ndarray:
    """``LockStep.step`` of ``lock`` by the dense tie rule, as it was before
    each key named its parent: ``best_parents`` picks each new state's
    candidate g, its flat parent is ``g * r + column`` (the part's offset
    plus the state's r), and ``rerank`` gives the dense ranks of the new
    prefixes.  ``lock.n`` is not kept: no keyed step follows a dense one."""
    b, k, r = scores.shape[0], scores.shape[1], math.prod(scores.shape[2:-1])
    ranks = lock.rank.reshape(scores.shape[:-1] + (1,))
    best, g = best_parents(scores.swapaxes(0, 1), ranks.swapaxes(0, 1))
    columns = np.arange(b * k * r).reshape(ranks.shape)[:, 0]
    parent = (g * r + columns).reshape(-1)
    if after is not None:
        best += after
    lock.dp = best.reshape(b, -1)
    lock.parents.append(parent)
    lock.widths.append(lock.dp.shape[1])
    lock.rank, lock.top = rerank(lock.rank, parent)
    return lock.dp


def edge_scores(kernel, prev_midis: tuple, midis: tuple, rows=slice(None), cols=slice(None)):
    """The (previous states, current states) scores of a chord with
    pitches ``midis`` after one with ``prev_midis`` (empty for the
    first chord, which has one row), restricted to the slices
    ``rows`` and ``cols`` of the state lists."""
    base, a, b, has_cell = _layout(len(prev_midis), len(midis), kernel.hand, kernel.size)
    keys = key_indices(prev_midis + midis)
    terms = base[:, rows, cols] + (has_cell * kernel.cell[keys[a], keys[b]])[:, None, None]
    total = np.add.accumulate(kernel.flat[terms])[-1]  # strictly in term order
    return np.fmax(len(midis) ** -kernel.zeta * total, NEG_INF)


def edge_matrices(kernel, chords) -> list:
    """The score matrix of every boundary of ``chords``, the columns the
    kernel reads, one ``edge_scores`` call each."""
    ends = np.cumsum(chords.sizes).tolist()
    pitches = [tuple(chords.midis[end - size:end].tolist())
               for size, end in zip(chords.sizes.tolist(), ends)]
    return [edge_scores(kernel, prev, cur) for prev, cur in zip([(), *pitches[:-1]], pitches)]


def write_edges(kernel, out, rows, chords) -> None:
    """``_EdgeKernel.write`` by ``edge_matrices``, one part at a time."""
    for at, columns in zip(rows, chords):
        for row, matrix in zip(at, edge_matrices(kernel, columns)):
            out[row, : matrix.shape[0], : matrix.shape[1]] = matrix


def chord_viterbi(model, chords, hand: Hand):
    """The chord decoder of one part as the per-part recursion the
    lock-step DP replaced, on ``edge_matrices`` and the dense tie rule:
    (states, log score, relaxed boundaries), or None when every path
    scores -inf."""
    edges = edge_matrices(_EdgeKernel(model, hand), chords)
    dp, rank, parents, relaxed = edges[0][0], np.arange(edges[0].shape[1]), [], []
    for ci in range(1, len(edges)):
        keep = _keeps(chords, ci, hand)
        with np.errstate(over="ignore"):
            cand = dp[:, None] + edges[ci]
            masked = None if keep is None else dp[:, None] + np.where(keep, edges[ci], NEG_INF)
        if masked is not None and masked.max() == NEG_INF and dp.max() > NEG_INF:
            relaxed.append(ci)
        elif masked is not None:
            cand = masked
        dp, parent = best_parents(cand, rank[:, None])
        parents.append(parent)
        rank, _ = rerank(rank, parent)
    best = dp.max()
    if not best > NEG_INF:
        return None
    path = [int(np.flatnonzero(dp == best)[rank[dp == best].argmin()])]
    for parent in reversed(parents):
        path.append(int(parent[path[-1]]))
    states = [_states(size, hand)[i] for size, i in zip(chords.sizes.tolist(), path[::-1])]
    return tuple(states), float(best), tuple(relaxed)


def path_scores(model: NoteHmmModel, tables, paths) -> np.ndarray:
    """``note_hmm._path_scores`` as the per-note loop over ``_steps`` that
    one gather per block of notes replaced: two ``take`` calls and two
    additions per note, in the same order."""
    f, m = np.asarray(paths, dtype=np.intp).T - 1, model.config.order
    acc, crosses = model.log_initial[0][0][f[0]], np.zeros(f.shape[1], dtype=bool)
    codes = _window_codes(np.pad(f, ((m, 0), (0, 0))), m + 1)
    with np.errstate(over="ignore"):
        for n, (_, trans, terms, allow) in enumerate(_steps(model, tables), 1):
            acc = acc + trans.take(codes[n])
            if terms is not None:
                acc = acc + terms[0].take(codes[n])
            if allow is not None:
                crosses |= ~allow[0].take(codes[n] % N_DIGITS**2)
    if crosses.any() and _run_viterbi(model, tables)[0] is not None:
        acc[crosses] = NEG_INF
    return acc


def output_score(model: NoteHmmModel, pitches, fingers, hand: Hand = Hand.RH) -> float:
    """Alpha-weighted product of the pairwise output factors for the most
    recent note given up to ``order`` predecessors.

    ``pitches`` are MIDI numbers and ``fingers`` digits, oldest first, with
    the current note last; both must have equal length between 2 and
    order + 1.
    """
    if len(pitches) != len(fingers):
        raise ValueError("pitches and fingers must have equal length")
    lags = len(pitches) - 1
    if not 1 <= lags <= model.config.order:
        raise ValueError(f"got {lags} lags for an order-{model.config.order} model")
    cfg = model.config
    cell = index_table(cfg.pitch_representation, cfg.delta_p_max)
    keys = key_indices(pitches)
    score = 1.0
    for lag in range(1, lags + 1):
        idx = cell[keys[-1 - lag], keys[-1]]
        factor = float(
            np.exp(model.log_output[hand][lag - 1][fingers[-1 - lag] - 1, fingers[-1] - 1, idx])
        )
        score *= factor ** cfg.alpha[lag - 1]
    return score


def chord_crossing_allowed(prev, cur, hand: Hand, delta: float) -> bool:
    """Whether a consecutive note pair respects the within-chord rule.

    ``prev`` and ``cur`` are (midi, onset, digit) triples.  Outside a
    chord (onsets more than ``delta`` apart) everything is allowed.
    Inside one, finger order must strictly follow pitch order: ascending
    pitch takes ascending digits in the right hand and descending digits
    in the left, so crossings and repeated digits on distinct pitches are
    both forbidden.
    """
    (p1, t1, f1), (p2, t2, f2) = prev, cur
    if abs(t2 - t1) > delta:
        return True
    if p1 == p2:
        return True
    f1, f2 = int(f1), int(f2)
    pitch_dir = 1 if p2 > p1 else -1
    digit_dir = (f2 > f1) - (f2 < f1)
    required = pitch_dir if hand is Hand.RH else -pitch_dir
    return digit_dir == required


def displacement_index(
    representation: PitchRepresentation, delta_p_max: int, d: Displacement
) -> int:
    if representation is PitchRepresentation.INTEGRAL:
        return d.dx + delta_p_max
    return (d.dx + 2 * delta_p_max) * 3 + (d.dy + 1)


def negate(d: Displacement) -> Displacement:
    """Reverse a displacement in all of its components."""
    return Displacement(dx=-d.dx, dy=None if d.dy is None else -d.dy)


def brute_force_recombination(est, gts, config):
    n, n_g = len(est), len(gts)
    best_cost, best_path = None, None
    for path in product(range(n_g), repeat=n):
        cost = 0.0 if gts[path[0]][0] == est[0] else config.c_sub
        for pos in range(1, n):
            g_prev, g = path[pos - 1], path[pos]
            if g_prev == g:
                step = 0.0
            elif gts[g][pos] == gts[g_prev][pos]:
                step = config.c_rec
            else:
                step = config.c_rec_prime
            cost = cost + step
            cost = cost + (0.0 if gts[g][pos] == est[pos] else config.c_sub)
        if best_cost is None or cost < best_cost:
            best_cost, best_path = cost, path
    return best_cost, best_path


def reference_recombination(est, gts, config):
    """The plain per-note loop the lock-step batch replaced: ``rank[g]``
    places the best prefix ending in g among all best prefixes, a tie goes
    to the lower-ranked predecessor, and prefixes re-rank by (parent rank,
    g) after each note."""
    n, n_g = len(est), len(gts)

    def sub(pos, g):
        return 0.0 if gts[g][pos] == est[pos] else config.c_sub

    def switch(pos, g_prev, g):
        if g_prev == g:
            return 0.0
        return config.c_rec if gts[g][pos] == gts[g_prev][pos] else config.c_rec_prime

    dp = [sub(0, g) for g in range(n_g)]
    rank = list(range(n_g))
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
        order = sorted(range(n_g), key=lambda g: rank[new_parents[g]])
        rank = sorted(range(n_g), key=order.__getitem__)
    e_rec = min(dp)
    path = [0] * n
    if e_rec < INF:
        path[-1] = min((g for g, v in enumerate(dp) if v == e_rec), key=rank.__getitem__)
        for pos in range(n - 1, 0, -1):
            path[pos - 1] = parents[pos - 1][path[pos]]
    return (n - e_rec) / n, e_rec, tuple(path)


def reference_cluster_chords(piece, delta, truncate_overlaps=False):
    """``cluster_chords`` as a plain loop in which every note walks each
    later chord until it stops sounding: at its offset, at the next onset
    of its pitch or, with ``truncate_overlaps``, at the next onset, the
    earliest of them.  Quadratic, and the reference.  A part whose onsets
    go down is refused as the parser refuses a file."""
    if len(piece) == 0:
        return []
    notes = list(piece.notes)
    for before, note in zip(notes, notes[1:]):
        if note.onset < before.onset:
            raise NonMonotoneOnsets(f"piece {piece.piece_id!r}: onset {note.onset} of note "
                                    f"{note.note_id} precedes {before.onset}")
    ends = []
    for k, note in enumerate(notes):
        end = note.offset
        for later in notes[k + 1 :]:
            if later.midi == note.midi:
                end = min(end, later.onset)
                break
        if truncate_overlaps:
            end = min([end] + [later.onset for later in notes if later.onset > note.onset])
        ends.append(end)
    groups = []
    for k, note in enumerate(notes):
        if groups and note.onset - notes[k - 1].onset <= delta:
            groups[-1].append(k)
        else:
            groups.append([k])
    chord_onsets = [notes[g[0]].onset for g in groups]
    members = [{} for _ in groups]
    for gi, group in enumerate(groups):
        for k in group:
            note = notes[k]
            entry = members[gi].get(note.midi)
            if entry is None or entry[1]:
                members[gi][note.midi] = [[note.note_id], False]
            else:
                entry[0].append(note.note_id)
            for gj in range(gi + 1, len(groups)):
                if chord_onsets[gj] >= ends[k]:
                    break
                if note.midi not in members[gj]:
                    members[gj][note.midi] = [[note.note_id], True]
    chords = []
    for gi, table in enumerate(members):
        if len(table) > 5:
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


def reference_chord_objects(piece: Piece, delta: float, truncate_overlaps: bool = False) -> list:
    """``cluster_chords`` with the check of the one-``Chord``-per-chord
    code it replaced: the hand is inferred, and then
    ``reference_cluster_chords`` clusters."""
    if len(piece) == 0:
        return []
    infer_hand(piece)
    return reference_cluster_chords(piece, delta, truncate_overlaps)


def reference_chord_positions(piece: Piece, delta: float, truncate_overlaps=False) -> list:
    """``reference_chord_objects`` whose note ids are note positions, as the
    library keys notes: its refusals name the part's own ids, and then the
    part with its ids renumbered is clustered."""
    reference_chord_objects(piece, delta, truncate_overlaps)
    return reference_chord_objects(replace(piece, ids=range(len(piece))), delta,
                                   truncate_overlaps)


def offset_walk_chords(piece: Piece, delta: float, truncate_overlaps: bool = False) -> list:
    """Clustering by the earlier walk, in which a note's sustain ran to its
    offset even past a re-strike of its pitch.

    A note joins the current chord when its onset is within ``delta`` of
    the previous note's; afterwards every note whose offset exceeds a
    later chord's onset is added there as sustained, its walk starting
    past the last chord an earlier note of its pitch reached.  A pitch
    that is re-struck displaces its sustained copy only in the chord that
    re-strikes it, and of a unison the earlier note is held.  On a part
    with neither a pitch struck again while it sounds nor a unison, this
    is ``cluster_chords``.
    """
    if len(piece) == 0:
        return []
    infer_hand(piece)
    ids, onsets, offsets, midis = (
        column.tolist() for column in (piece.ids, piece.onsets, piece.offsets, piece.midis))
    next_onset = {}
    if truncate_overlaps:
        distinct = sorted(set(onsets))
        next_onset = dict(zip(distinct, distinct[1:]))

    groups: list = []  # each chord's note indices
    for k, onset in enumerate(onsets):
        if groups and onset - onsets[k - 1] <= delta:
            groups[-1].append(k)
        else:
            groups.append([k])
    chord_onsets = [onsets[g[0]] for g in groups]

    members: list = [{} for _ in groups]  # midi -> [ids, sustained]
    # midi -> the last chord an earlier note of that pitch already sustains
    # into; chord onsets never descend, so each walk may start after it,
    # and the walks of one pitch visit each chord at most once
    reach: dict = {}
    for gi, group in enumerate(groups):
        for k in group:
            midi, note_id = midis[k], ids[k]
            entry = members[gi].get(midi)
            if entry is None or entry[1]:
                members[gi][midi] = [[note_id], False]
            else:
                entry[0].append(note_id)
            offset = offsets[k]
            if truncate_overlaps and onsets[k] in next_onset:
                offset = min(offset, next_onset[onsets[k]])
            gj = max(gi, reach.get(midi, gi)) + 1
            while gj < len(groups) and chord_onsets[gj] < offset:
                members[gj][midi] = [[note_id], True]
                gj += 1
            reach[midi] = gj - 1

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


def reference_chord_count(corpus, params: ChordHmmParams) -> ChordCounts:
    """``chord_hmm.count`` as it read ``reference_chord_positions`` part by
    part.  Training counts of annotated single-hand pieces.  Empty pieces are
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
            chords = reference_chord_positions(piece, params.delta, params.truncate_overlaps)
        except HandOverflow:
            skipped.append(piece.piece_id)
            continue
        # every component of every chord, flat: its key index and digit
        flat = [c for chord in chords for c in chord.components]
        keys = key_indices(c.midi for c in flat)
        digits = note_digits[[c.note_ids[0] for c in flat]]
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


def keeps(prev: Chord, chord: Chord, hand: Hand):
    """Which (previous state, state) pairs keep the digit of every note
    that ``chord`` holds as a sustained copy of a note of ``prev``, by
    enumeration; None when it holds none."""
    held = {nid for c in chord.components if c.sustained for nid in c.note_ids}
    held &= {nid for c in prev.components for nid in c.note_ids}
    if not held:
        return None

    def digits(ch, state):
        return {nid: d for c, d in zip(ch.components, state) for nid in c.note_ids}

    return np.array([
        [all(digits(prev, p)[nid] == digits(chord, s)[nid] for nid in held)
         for s in enumerate_states(chord, hand)]
        for p in enumerate_states(prev, hand)
    ])


def chord_columns(chords) -> Chords:
    """A ``Chord`` list as the ``Chords`` columns of ``cluster_chords``, for
    chords no piece clusters into: a note's position is where its id first
    occurs, and a note in two components of the previous chord is held
    from the later one."""
    chords = list(chords)
    components = [c for chord in chords for c in chord.components]
    position, held = {}, {}
    pairs = [(ci, position.setdefault(nid, len(position)))
             for ci, c in enumerate(components) for nid in c.note_ids]
    for ci, (prev, chord) in enumerate(zip(chords, chords[1:]), 1):
        where = {nid: i for i, c in enumerate(prev.components) for nid in c.note_ids}
        shared = [(where[nid], j) for j, c in enumerate(chord.components)
                  for nid in c.note_ids if nid in where]
        if shared and any(c.sustained for c in chord.components):
            held[ci] = shared
    return Chords([chord.onset for chord in chords],
                  np.array([chord.size for chord in chords], dtype=np.intp),
                  np.array([c.midi for c in components]),
                  np.array([bool(c.sustained) for c in components], dtype=bool),
                  tuple(np.array(pairs, dtype=np.intp).reshape(-1, 2).T),
                  np.fromiter(position, object, len(position)), held)


def reference_step_tables(model: NoteHmmModel, hand: Hand, keys, onsets, use_constraint):
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


def _parse_line(line_no: int, fields: list[str]) -> Note:
    if len(fields) not in (7, 8):
        raise MalformedLine(line_no, f"expected 8 fields, got {len(fields)}")
    try:
        note_id = int(fields[0])
        onset = round(float(fields[1]), TIME_DECIMALS)
        offset = round(float(fields[2]), TIME_DECIMALS)
        onset_velocity = int(fields[4])
        offset_velocity = int(fields[5])
        channel = int(fields[6])
    except ValueError as exc:
        raise MalformedLine(line_no, str(exc)) from None
    if note_id < 0:
        raise MalformedLine(line_no, f"negative note id {note_id}")
    if not (math.isfinite(onset) and math.isfinite(offset)):
        raise MalformedLine(line_no, f"non-finite time in {fields[1]} {fields[2]}")
    if onset < 0:
        raise MalformedLine(line_no, f"negative onset {onset}")
    if offset < onset:
        raise MalformedLine(line_no, f"offset {offset} before onset {onset}")
    for v in (onset_velocity, offset_velocity):
        if not 0 <= v <= 127:
            raise MalformedLine(line_no, f"velocity {v} outside 0..127")
    if channel not in (0, 1):
        raise MalformedLine(line_no, f"channel {channel} is not 0 or 1")
    try:
        midi = pitch_to_midi(fields[3])
        finger = resolve_substitution(fields[7]) if len(fields) == 8 else None
    except (InvalidPitchToken, InvalidFinger) as exc:
        exc.args = (f"line {line_no}: {exc}",)
        raise
    return Note(note_id, onset, offset, fields[3], midi, onset_velocity,
                offset_velocity, channel, finger)


def reference_parse_fingering_file(
    text: str, piece_id: str = "", annotator_id: str = ""
) -> Piece:
    """``pig_io.parse_fingering_file`` as a loop over lines: each line is
    checked rule by rule, so the first malformed line raises its first
    broken rule."""
    notes: list[Note] = []
    prev = None
    backwards = None  # the first adjacent pair whose onset decreases, and its line
    in_order = True   # already in (onset, midi) order: the sort is a no-op
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("//"):
            continue
        note = _parse_line(line_no, fields)
        if prev is not None:
            if note.onset < prev.onset:
                backwards = backwards or (prev, note, line_no)
            elif note.onset == prev.onset and note.midi < prev.midi:
                in_order = False
        notes.append(note)
        prev = note
    # Raised only after every line parsed, so a malformed line anywhere wins.
    if backwards is not None:
        prev, cur, line_no = backwards
        raise NonMonotoneOnsets(
            f"line {line_no}: onset {cur.onset} of note {cur.note_id} precedes {prev.onset}"
        )
    if not in_order:
        notes.sort(key=lambda n: (n.onset, n.midi))  # stable: ties by pitch only
    return Piece(notes=tuple(notes), piece_id=piece_id, annotator_id=annotator_id)


def reference_serialize_fingering_file(piece: Piece) -> str:
    """Render a fully annotated piece back to file text.

    Times get exactly six decimals and fields are tab-separated; an empty
    piece yields an empty document.
    """
    lines = []
    for n in piece.notes:
        if n.finger is None:
            raise MissingFinger(f"note {n.note_id} has no finger label")
        lines.append(
            f"{n.note_id}\t{n.onset:.6f}\t{n.offset:.6f}\t{n.pitch}\t"
            f"{n.onset_velocity}\t{n.offset_velocity}\t{n.channel}\t{n.finger.signed}"
        )
    return "".join(line + "\n" for line in lines)


def reference_hand_positions(piece: Piece) -> dict:
    """Hand -> indices into ``piece.notes`` of that hand's notes, in piece
    order; the right hand comes first."""
    positions = {}
    for hand in Hand:
        channel = hand.channel  # read once: an enum property costs per note
        positions[hand] = [i for i, n in enumerate(piece.notes) if n.channel == channel]
    return positions


def reference_split_hands(piece: Piece) -> tuple[Piece, Piece]:
    """Stable partition of a piece into its right- and left-hand parts."""
    return tuple(
        replace(piece, notes=tuple(piece.notes[i] for i in positions))
        for positions in reference_hand_positions(piece).values()
    )


def reference_check_alignment(piece: Piece, reference: Piece, name: str) -> None:
    """Raise unless ``piece`` holds the notes of ``reference``: the same
    number of notes and the same (onset, MIDI pitch) at every position.
    ``name`` labels ``piece`` in the message."""
    if len(piece) != len(reference):
        raise LengthMismatch(f"{name}: {len(piece)} notes, expected {len(reference)}")
    key = attrgetter("onset", "midi")
    keys, reference_keys = list(map(key, piece.notes)), list(map(key, reference.notes))
    if keys != reference_keys:
        i = next(i for i, pair in enumerate(zip(keys, reference_keys)) if pair[0] != pair[1])
        a, b = piece.notes[i], reference.notes[i]
        raise AlignmentMismatch(
            f"{name}: note content differs at position {i} "
            f"({a.pitch}@{a.onset} vs {b.pitch}@{b.onset})"
        )


def reference_from_pieces(pieces: list) -> GroundTruthSet:
    """``GroundTruthSet.from_pieces`` reading every finger note by note."""
    if not pieces:
        raise LengthMismatch("a ground-truth set needs at least one fingering")
    reference = pieces[0]
    fingerings = []
    for p in pieces:
        name = f"{p.piece_id}/{p.annotator_id}"
        if p is not reference:
            reference_check_alignment(p, reference, name)
        fingers = p.fingers
        if any(f is None for f in fingers):
            raise MissingFinger(f"{name} is unannotated")
        fingerings.append(tuple(f.signed for f in fingers))
    return GroundTruthSet(piece=reference, signed_fingerings=tuple(fingerings))
