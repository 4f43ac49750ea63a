"""Model file round-trips and deterministic serialisation."""

import copy
import json

import numpy as np
import pytest

from conftest import random_piece
from pianofinger.chord_hmm import ChordHmmParams, train_chord
from pianofinger.errors import MalformedModel
from pianofinger.model_io import dumps_model, load_model, loads_model, save_model
from pianofinger.note_hmm import NoteHmmConfig, Symmetry, decode_viterbi, train
from pianofinger.pig_io import FingerLabel, Hand
from pianofinger.pitch_space import PitchRepresentation


def _training_corpus(rng, n_pieces=5):
    corpus = []
    for i in range(n_pieces):
        hand = Hand.RH if i % 2 == 0 else Hand.LH
        piece = random_piece(rng, n_max=9, midi_lo=45, midi_hi=95, hand=hand)
        corpus.append(
            piece.with_fingers(
                [FingerLabel(hand, int(d)) for d in rng.integers(1, 6, size=len(piece))]
            )
        )
    return corpus


def test_note_model_round_trip(rng):
    corpus = _training_corpus(rng)
    config = NoteHmmConfig(
        order=2,
        pitch_representation=PitchRepresentation.LATTICE,
        symmetries={Symmetry.REFLECTION},
        delta_p_max=7,
        alpha=(0.5, 0.4),
        lambda_=(0.3,),
    )
    model = train(corpus, config)
    text = dumps_model(model)
    loaded = loads_model(text)
    assert loaded.config == model.config
    assert (loaded.log_transition == model.log_transition).all()
    for k in range(config.order):
        assert (loaded.log_initial[k] == model.log_initial[k]).all()
    for hand in Hand:
        for lag in range(config.order):
            assert (loaded.log_output[hand][lag] == model.log_output[hand][lag]).all()


def test_note_model_round_trip_preserves_zero_cells(rng):
    corpus = _training_corpus(rng, n_pieces=2)
    config = NoteHmmConfig(order=1, smoothing_epsilon=0.0, alpha=(1.0,))
    model = train(corpus, config)
    assert np.isneginf(model.log_output[Hand.RH][0]).any()
    loaded = loads_model(dumps_model(model))
    assert (
        np.isneginf(loaded.log_output[Hand.RH][0])
        == np.isneginf(model.log_output[Hand.RH][0])
    ).all()


def test_reloaded_model_decodes_identically(rng, tmp_path):
    corpus = _training_corpus(rng)
    model = train(corpus, NoteHmmConfig(order=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for _ in range(5):
        piece = random_piece(rng, n_max=10)
        hand = Hand(piece.notes[0].channel)
        a = decode_viterbi(model, piece, hand=hand)
        b = decode_viterbi(loaded, piece, hand=hand)
        assert a.fingers == b.fingers
        assert a.log_score == b.log_score


def test_chord_model_round_trip(rng):
    corpus = _training_corpus(rng)
    params = ChordHmmParams(delta_p_max=9, zeta=0.25)
    model = train_chord(corpus, params)
    loaded = loads_model(dumps_model(model))
    assert loaded.params == params
    assert (loaded.log_initial_digit == model.log_initial_digit).all()
    assert (loaded.log_trans_across == model.log_trans_across).all()
    assert (loaded.log_trans_within == model.log_trans_within).all()
    for hand in Hand:
        assert (loaded.log_out_across[hand] == model.log_out_across[hand]).all()
        assert (loaded.log_out_within[hand] == model.log_out_within[hand]).all()


def test_serialisation_is_deterministic(rng):
    corpus = _training_corpus(rng)
    model = train(corpus, NoteHmmConfig(order=1))
    text = dumps_model(model)
    assert text == dumps_model(model)
    assert text == dumps_model(loads_model(text))


def test_rejects_foreign_documents():
    with pytest.raises(ValueError):
        loads_model("{}")
    with pytest.raises(ValueError):
        loads_model(
            '{"format": "piano-fingering-model", "version": 99, "kind": "note-hmm"}'
        )
    with pytest.raises(ValueError):
        loads_model(
            '{"format": "piano-fingering-model", "version": 1, '
            '"kind": "mystery", "tables": {}}'
        )


def test_malformed_model_documents_raise_malformed_model(rng):
    corpus = _training_corpus(rng)
    note_doc = json.loads(dumps_model(train(corpus, NoteHmmConfig(order=1))))
    chord_doc = json.loads(dumps_model(train_chord(corpus, ChordHmmParams())))
    assert chord_doc["config"]["order"] == 1

    def edited(doc, edit):
        doc = copy.deepcopy(doc)
        edit(doc)
        return json.dumps(doc)

    bad = [
        edited(note_doc, lambda d: d.pop("tables")),
        edited(note_doc, lambda d: d.pop("config")),
        edited(note_doc, lambda d: d["config"].pop("alpha")),
        edited(note_doc, lambda d: d["config"].update(symmetries=3)),
        edited(note_doc, lambda d: d["config"].update(order="1")),
        edited(note_doc, lambda d: d["tables"]["transition"]["1"].update({"2": "x"})),
        edited(note_doc, lambda d: d["tables"].update(output=[])),
        edited(chord_doc, lambda d: d["config"].update(order=2)),
        edited(chord_doc, lambda d: d["config"].update(beta1="high")),
        edited(chord_doc, lambda d: d["tables"]["initial_digit"].update({"3": "x"})),
        edited(chord_doc, lambda d: d["tables"].pop("output_within")),
    ]
    for text in bad:
        with pytest.raises(MalformedModel):
            loads_model(text)
