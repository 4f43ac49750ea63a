"""Shared builders for synthetic pieces and randomly parameterised models."""

from dataclasses import replace

import numpy as np
import pytest

from pianofinger import note_hmm
from pianofinger.chord_hmm import Chord, ChordComponent
from pianofinger.note_hmm import NoteHmmConfig, NoteHmmModel
from pianofinger.pig_io import FingerLabel, Hand, Note, Piece, midi_to_pitch
from pianofinger.pitch_space import PitchRepresentation, alphabet_size


def make_piece(
    midis,
    onsets=None,
    hand=Hand.RH,
    digits=None,
    offsets=None,
    piece_id="piece",
    annotator_id="1",
):
    """Canonically ordered single-hand piece from parallel field lists."""
    n = len(midis)
    if onsets is None:
        onsets = [0.5 * i for i in range(n)]
    if offsets is None:
        offsets = [t + 0.4 for t in onsets]
    if digits is None:
        digits = [None] * n
    rows = sorted(zip(onsets, midis, offsets, digits), key=lambda r: (r[0], r[1]))
    notes = tuple(
        Note(
            note_id=i,
            onset=round(float(t), 6),
            offset=round(float(off), 6),
            pitch=midi_to_pitch(m),
            midi=int(m),
            onset_velocity=64,
            offset_velocity=64,
            channel=hand.channel,
            finger=None if d is None else FingerLabel(hand, int(d)),
        )
        for i, (t, m, off, d) in enumerate(rows)
    )
    return Piece(notes=notes, piece_id=piece_id, annotator_id=annotator_id)


def random_rows(rng, shape):
    """Random strictly positive distributions along the last axis."""
    x = rng.random(shape) + 0.05
    return x / x.sum(axis=-1, keepdims=True)


def random_note_model(
    rng,
    order=2,
    representation=PitchRepresentation.INTEGRAL,
    delta_p_max=3,
    chord_constraint=True,
    alpha=None,
    lambda_=None,
):
    """Note HMM with random positive tables (ties have probability zero)."""
    if alpha is None:
        alpha = tuple(float(a) for a in rng.uniform(0.1, 1.5, order))
    if lambda_ is None and order > 1:
        raw = rng.uniform(0.0, 1.0, order - 1)
        lambda_ = tuple(float(v) for v in raw / max(1.0, raw.sum() * 1.25))
    config = NoteHmmConfig(
        order=order,
        pitch_representation=representation,
        delta_p_max=delta_p_max,
        alpha=alpha,
        lambda_=lambda_,
        chord_constraint=chord_constraint,
    )
    size = alphabet_size(representation, delta_p_max)
    return NoteHmmModel(
        config=config,
        log_initial=[
            np.log(random_rows(rng, (5**k, 5))) for k in range(order)
        ],
        log_transition=np.log(random_rows(rng, (5**order, 5))),
        log_output={
            hand: [np.log(random_rows(rng, (5, 5, size))) for _ in range(order)]
            for hand in Hand
        },
    )


def random_piece(rng, n_max=6, midi_lo=50, midi_hi=80, hand=None, allow_chords=True):
    """Random short piece; chords are groups of distinct pitches at one onset."""
    if hand is None:
        hand = Hand.RH if rng.random() < 0.5 else Hand.LH
    n = int(rng.integers(1, n_max + 1))
    midis, onsets = [], []
    t = 0.0
    remaining = n
    while remaining:
        size = 1
        if allow_chords and remaining >= 2 and rng.random() < 0.4:
            size = int(rng.integers(2, min(4, remaining) + 1))
        group = rng.choice(np.arange(midi_lo, midi_hi + 1), size=size, replace=False)
        for m in group:
            midis.append(int(m))
            onsets.append(t)
        t += 0.2
        remaining -= size
    return make_piece(midis, onsets, hand=hand)


def tie_heavy_chord_part(rng, n_events: int):
    """One- and two-note events, some held into the next; every 50th
    event is a five-note chord whose long note a three-note chord cannot
    keep, so that boundary is relaxed."""
    midis, onsets, offsets = [], [], []
    for ei in range(n_events):
        if ei % 50 == 0:
            group, lengths = [60, 62, 64, 65, 67], [1.4, 0.3, 0.3, 0.3, 0.3]
        elif ei % 50 == 1:
            group, lengths = [57, 59, 69], [0.3] * 3
        else:
            group = [int(m) for m in rng.choice(np.arange(55, 76), int(rng.integers(1, 3)),
                                                replace=False)]
            # nothing is held into the five-note chord
            lengths = [float(rng.choice([0.3, 0.8 - 0.5 * (ei % 50 == 49)])) for _ in group]
        midis += group
        onsets += [0.5 * ei] * len(group)
        offsets += [0.5 * ei + length for length in lengths]
    return make_piece(midis, onsets=onsets, offsets=offsets)


def random_chord_pair(rng):
    """Two consecutive chords as ``cluster_chords`` forms them: the second
    holds some pitches of the first as sustained copies of their notes,
    strikes new ones, and may hold a note from further back that the
    first chord re-struck away.  A component may sound several notes."""
    midis = [int(m) for m in rng.choice(np.arange(40, 90), 10, replace=False)]
    k_prev = int(rng.integers(1, 6))
    prev = [
        ChordComponent(midi=m, note_ids=(i, 20 + i) if rng.random() < 0.2 else (i,),
                       sustained=bool(rng.random() < 0.5))
        for i, m in enumerate(midis[:k_prev])
    ]
    held = [replace(c, sustained=True) for c in prev if rng.random() < 0.5]
    k = int(rng.integers(max(1, len(held)), 6))
    struck = [
        ChordComponent(midi=m, note_ids=(10 + i,), sustained=bool(rng.random() < 0.2))
        for i, m in enumerate(midis[k_prev : k_prev + k - len(held)])
    ]
    return tuple(
        Chord(onset=t, components=tuple(sorted(c, key=lambda c: c.midi)))
        for t, c in ((0.0, prev), (0.5, held + struck))
    )


def count_calls(monkeypatch, module, name) -> list:
    """A list that gains one item per call of ``module.name`` from here on."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def lockstep_batches(monkeypatch) -> list:
    """A list that gains, per lock-step note DP from here on, its number of parts."""
    batches, run = [], note_hmm._run_viterbi

    def counted(model, tables):
        batches.append(len(tables[2]))
        return run(model, tables)

    monkeypatch.setattr(note_hmm, "_run_viterbi", counted)
    return batches


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
