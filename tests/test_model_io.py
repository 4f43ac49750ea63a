"""Model file round-trips and deterministic serialisation."""

import copy
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_piece
from pianofinger.chord_hmm import (
    ChordHmmParams,
    chord_path_log_score,
    cluster_chords,
    decode_chords,
    train_chord,
)
from pianofinger.cli import main
from pianofinger.dataset import load_piece
from pianofinger.errors import MalformedModel
from pianofinger.model_io import (
    KINDS,
    _digit_rows,
    _disp_keys,
    dumps_model,
    load_model,
    loads_model,
    model_kind,
)
from pianofinger.note_hmm import (
    NoteHmmConfig,
    NoteHmmModel,
    Symmetry,
    decode_viterbi,
    sequence_log_score,
    train,
)
from pianofinger.pig_io import FingerLabel, Hand, infer_hand, split_hands
from pianofinger.pitch_space import PitchRepresentation

DATA = Path(__file__).resolve().parents[1] / "data"
MODEL_V1 = DATA / "model_v1"

# the `train` options each v1 fixture was written with, from data/sample_corpus
V1_TRAIN_FLAGS = {
    "note_o2_integral.json": [
        "--order", "2", "--pitch", "integral", "--delta-p-max", "2",
        "--symmetry", "time+reflect",
    ],
    "chord.json": ["--model-kind", "chord-hmm", "--delta-p-max", "1"],
    "note_o3_lattice.json": ["--order", "3"],
}


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


_CORPUS = _training_corpus(np.random.default_rng(5))


def _json_reference(model, text: str) -> str:
    """``json.dumps(doc, sort_keys=True, indent=1)``, the v1 writer's
    reference, for ``model``'s document: the tables are built here from
    the model's arrays, the header and config are read back from ``text``."""

    def table(values, rows, cols):
        cells = np.asarray(values).reshape(-1, len(cols)).tolist()
        if rows is None:
            return dict(zip(cols, cells[0]))
        return {row: dict(zip(cols, line)) for row, line in zip(rows, cells)}

    digits, pairs = _digit_rows(1), _digit_rows(2)
    doc = json.loads(text)
    if isinstance(model, NoteHmmModel):
        cfg = model.config
        disps = _disp_keys(cfg.pitch_representation, cfg.delta_p_max)
        doc["tables"] = {
            "initial": [
                table(model.log_initial[k], _digit_rows(k), digits)
                for k in range(cfg.order)
            ],
            "transition": table(model.log_transition, _digit_rows(cfg.order), digits),
            "output": {
                hand.name.lower(): {
                    str(lag + 1): table(t, pairs, disps)
                    for lag, t in enumerate(model.log_output[hand])
                }
                for hand in Hand
            },
        }
    else:
        disps = _disp_keys(PitchRepresentation.LATTICE, model.params.delta_p_max)
        doc["tables"] = {
            "initial_digit": table(model.log_initial_digit, None, digits),
            "transition_across": table(model.log_trans_across, digits, digits),
            "transition_within": table(model.log_trans_within, digits, digits),
            "output_across": {
                h.name.lower(): table(model.log_out_across[h], pairs, disps) for h in Hand
            },
            "output_within": {
                h.name.lower(): table(model.log_out_within[h], pairs, disps) for h in Hand
            },
        }
    return json.dumps(doc, sort_keys=True, indent=1)


@st.composite
def note_configs(draw):
    order = draw(st.integers(1, 3))
    weights = st.floats(0.0, 1.0 / max(order - 1, 1))
    return NoteHmmConfig(
        order=order,
        pitch_representation=draw(st.sampled_from(PitchRepresentation)),
        symmetries=draw(st.frozensets(st.sampled_from(Symmetry))),
        delta_p_max=draw(st.integers(1, 15)),
        alpha=tuple(draw(st.lists(st.floats(0.0, 2.0), min_size=order, max_size=order))),
        lambda_=tuple(draw(st.lists(weights, min_size=order - 1, max_size=order - 1))),
        smoothing_epsilon=draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0)),
    )


@settings(max_examples=30, deadline=None)
@given(note_configs())
def test_note_model_round_trip(config):
    model = train(_CORPUS, config)
    text = dumps_model(model)
    assert text == _json_reference(model, text)
    loaded = loads_model(text)
    assert loaded.config == model.config
    assert dumps_model(loaded) == text

    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    assert same(loaded.log_transition, model.log_transition)
    for k in range(config.order):
        assert same(loaded.log_initial[k], model.log_initial[k])
    for hand in Hand:
        for lag in range(config.order):
            assert same(loaded.log_output[hand][lag], model.log_output[hand][lag])


@pytest.mark.parametrize(
    "name", ["note_o2_integral.json", "chord.json", "note_o3_lattice.json"]
)
def test_v1_model_files_write_back_unchanged(name):
    text = (MODEL_V1 / name).read_text(encoding="utf-8")
    assert dumps_model(loads_model(text)) == text


@pytest.mark.parametrize("name", sorted(V1_TRAIN_FLAGS))
def test_v1_model_files_retrain_byte_identical(tmp_path, name):
    out = tmp_path / name
    args = ["train", str(DATA / "sample_corpus"), "--out", str(out), *V1_TRAIN_FLAGS[name]]
    assert main(args) == 0
    assert out.read_bytes() == (MODEL_V1 / name).read_bytes()


def test_edited_leaves_write_back_as_the_json_module_writes_them():
    doc = json.loads((MODEL_V1 / "note_o2_integral.json").read_text(encoding="utf-8"))
    row = doc["tables"]["output"]["rh"]["1"]["2,3"]
    row.update({"-2": -0.0, "-1": -5e-324, "0": -1e16, "1": 0})
    text = json.dumps(doc, sort_keys=True, indent=1)
    assert '"1": 0,' in text and '"0": -1e+16' in text
    model = loads_model(text)
    written = dumps_model(model)
    assert written == _json_reference(model, written)
    assert written == text.replace('"1": 0,', '"1": 0.0,')
    assert (MODEL_V1 / "note_o2_integral.json").read_text(encoding="utf-8") != text


def test_v1_model_file_leaves_land_in_their_cells():
    path = MODEL_V1 / "note_o2_integral.json"
    tables = json.loads(path.read_text(encoding="utf-8"))["tables"]
    model = load_model(path)
    assert model.config.pitch_representation is PitchRepresentation.INTEGRAL
    assert model.config.delta_p_max == 2
    output = tables["output"]
    assert output["lh"]["2"]["3,1"]["-1"] == model.log_output[Hand.LH][1][2, 0, 1]
    assert output["rh"]["1"]["5,4"]["2"] == model.log_output[Hand.RH][0][4, 3, 4]
    assert tables["transition"]["4,5"]["1"] == model.log_transition[3 * 5 + 4, 0]
    assert tables["initial"][1]["2"]["3"] == model.log_initial[1][1, 2]
    assert tables["initial"][0][""]["4"] == model.log_initial[0][0, 3]

    path = MODEL_V1 / "chord.json"
    tables = json.loads(path.read_text(encoding="utf-8"))["tables"]
    model = load_model(path)
    # lattice cell of "dx,dy" at delta_p_max 1: (dx + 2) * 3 + dy + 1
    within, across = tables["output_within"], tables["output_across"]
    assert within["rh"]["4,2"]["-1,1"] == model.log_out_within[Hand.RH][3, 1, 5]
    assert across["lh"]["1,5"]["2,-1"] == model.log_out_across[Hand.LH][0, 4, 12]
    assert tables["transition_across"]["2"]["5"] == model.log_trans_across[1, 4]
    assert tables["initial_digit"]["3"] == model.log_initial_digit[2]


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
    path.write_text(dumps_model(model), encoding="utf-8")
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
    for params in (
        ChordHmmParams(delta_p_max=9, zeta=0.25),
        ChordHmmParams(smoothing_epsilon=0.0),  # -Infinity cells
    ):
        model = train_chord(corpus, params)
        text = dumps_model(model)
        assert text == _json_reference(model, text)
        assert ("-Infinity" in text) == (params.smoothing_epsilon == 0.0)
        loaded = loads_model(text)
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


@pytest.mark.parametrize("version", [True, 1.0, "1", 2])
def test_a_version_other_than_the_integer_one_is_refused(tmp_path, capsys, version):
    doc = json.loads((MODEL_V1 / "chord.json").read_text())
    doc["version"] = version
    with pytest.raises(ValueError, match=rf"^unsupported model version {version!r}$"):
        loads_model(json.dumps(doc))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    source = str(DATA / "sample_corpus" / "101-1_fingering.txt")
    assert main(["estimate", source, "--model", str(model), "--out", str(tmp_path / "e")]) == 1
    assert capsys.readouterr().err == f"error: unsupported model version {version!r}\n"


@pytest.mark.parametrize("name", ["note_o2_integral.json", "note_o3_lattice.json", "chord.json"])
@pytest.mark.parametrize("edit", [
    lambda d: d["config"].pop(sorted(d["config"])[0]),
    lambda d: d["config"].pop("order"),
    lambda d: d["config"].update(bogus=1),
    lambda d: d.update(bogus=1),
    lambda d: d.pop("tables"),
], ids=["config-missing", "config-missing-order", "config-extra", "document-extra",
        "document-missing"])
def test_v1_documents_hold_exactly_their_keys(name, edit):
    doc = json.loads((MODEL_V1 / name).read_text())
    edit(doc)
    with pytest.raises(MalformedModel, match="keys differ"):
        loads_model(json.dumps(doc))


@pytest.mark.parametrize("name, key, value", [
    ("note_o3_lattice.json", "alpha", "123"),
    ("note_o2_integral.json", "lambda", ["0.4"]),
    ("note_o2_integral.json", "chord_constraint", "no"),
    ("note_o2_integral.json", "smoothing_epsilon", True),
    ("note_o2_integral.json", "order", 2.0),
    ("note_o3_lattice.json", "delta_p_max", 15.0),
    ("note_o3_lattice.json", "chord_threshold", False),
    ("chord.json", "truncate_overlaps", "yes"),
    ("chord.json", "beta1", True),
    ("chord.json", "delta_p_max", True),
    ("chord.json", "order", True),
    ("chord.json", "order", 1.0),
])
def test_v1_config_values_of_the_wrong_type_are_refused(name, key, value):
    doc = json.loads((MODEL_V1 / name).read_text())
    doc["config"][key] = value
    with pytest.raises(MalformedModel, match=rf"\b{key}_? must be"):
        loads_model(json.dumps(doc))


def test_config_classes_check_value_types():
    assert NoteHmmConfig(pitch_representation="integral", symmetries=["time"]) == (
        NoteHmmConfig(pitch_representation=PitchRepresentation.INTEGRAL,
                      symmetries={Symmetry.TIME_INVERSION})
    )
    for bad in ({"order": 2.0}, {"delta_p_max": True}, {"chord_constraint": 1},
                {"alpha": (True, 0.5)}, {"lambda_": "0"}, {"chord_threshold": "0.03"}):
        with pytest.raises(TypeError):
            NoteHmmConfig(**bad)
    for bad in ({"zeta": False}, {"delta_p_max": 3.0}, {"truncate_overlaps": 0},
                {"delta": None}):
        with pytest.raises(TypeError):
            ChordHmmParams(**bad)


def test_numpy_scalar_config_values_write_as_plain_ones():
    note = NoteHmmConfig(order=np.int64(1), delta_p_max=np.int64(3), alpha=np.array([0.5]),
                         chord_constraint=np.bool_(False), smoothing_epsilon=np.float64(0.25))
    plain = NoteHmmConfig(order=1, delta_p_max=3, alpha=[0.5], chord_constraint=False,
                          smoothing_epsilon=0.25)
    assert dumps_model(train(_CORPUS, note)) == dumps_model(train(_CORPUS, plain))
    chord = ChordHmmParams(delta_p_max=np.int32(2), truncate_overlaps=np.bool_(True),
                           zeta=np.float32(0.5))
    plain = ChordHmmParams(delta_p_max=2, truncate_overlaps=True, zeta=0.5)
    assert dumps_model(train_chord(_CORPUS, chord)) == dumps_model(train_chord(_CORPUS, plain))


@pytest.mark.parametrize("name", ["note_o2_integral.json", "chord.json"])
def test_huge_delta_p_max_is_refused_before_building_keys(name):
    doc = json.loads((MODEL_V1 / name).read_text())
    doc["config"]["delta_p_max"] = 10**9
    start = time.perf_counter()
    with pytest.raises(MalformedModel, match=r"delta_p_max must lie in 1\.\.87, got 1000000000"):
        loads_model(json.dumps(doc))
    assert time.perf_counter() - start < 1.0


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
        # rows and leaves must match what the config implies
        edited(note_doc, lambda d: d["config"].update(delta_p_max=14)),
        edited(chord_doc, lambda d: d["config"].update(delta_p_max=14)),
        edited(note_doc, lambda d: d["tables"]["transition"]["2"].update({"6": -1.0})),
        edited(note_doc, lambda d: d["tables"]["transition"].pop("3")),
        edited(note_doc, lambda d: d["tables"]["transition"].update({"6": {}})),
        edited(chord_doc, lambda d: d["tables"]["initial_digit"].update({"6": -1.0})),
        edited(note_doc, lambda d: d["tables"]["transition"]["2"].update({"3": None})),
        edited(note_doc, lambda d: d["tables"]["output"]["rh"]["1"]["1,2"].update(
            {"0,0": float("nan")})),
        edited(note_doc, lambda d: d["tables"]["initial"][0][""].update(
            {"1": float("inf")})),
        edited(chord_doc, lambda d: d["tables"]["transition_across"]["4"].update(
            {"2": None})),
        edited(chord_doc, lambda d: d["tables"]["output_within"]["lh"]["5,5"].update(
            {"0,0": float("nan")})),
        edited(chord_doc, lambda d: d["tables"].update(
            initial_digit={k: [v] for k, v in d["tables"]["initial_digit"].items()})),
        # true/false among numbers would load as 1.0/0.0
        edited(note_doc, lambda d: d["tables"]["transition"]["2"].update({"3": True})),
        edited(chord_doc, lambda d: d["tables"]["output_across"]["rh"]["1,2"].update(
            {"0,0": False})),
        # tables the config does not imply
        edited(note_doc, lambda d: d["tables"]["output"]["lh"].update(
            {"2": d["tables"]["output"]["lh"]["1"]})),
        edited(note_doc, lambda d: d["tables"]["initial"].append(
            d["tables"]["initial"][0])),
        edited(chord_doc, lambda d: d["tables"].update(
            output_extra=d["tables"]["output_within"])),
        # nested past the JSON parser's recursion limit
        "[" * 200000,
        '{"format": ' * 200000,
    ]
    for text in bad:
        with pytest.raises(MalformedModel):
            loads_model(text)

    # non-finite coefficients and settings in the config
    for doc, key, value in (
        (note_doc, "smoothing_epsilon", float("inf")),
        (note_doc, "chord_threshold", float("nan")),
        (note_doc, "alpha", [float("nan")]),
        (chord_doc, "beta2", float("nan")),
        (chord_doc, "delta", float("inf")),
        (chord_doc, "smoothing_epsilon", float("nan")),
    ):
        with pytest.raises(MalformedModel, match="must be finite and non-negative"):
            loads_model(edited(doc, lambda d: d["config"].update({key: value})))

    # a zero-probability cell is a valid leaf
    text = edited(
        note_doc, lambda d: d["tables"]["transition"]["2"].update({"3": -np.inf})
    )
    assert np.isneginf(loads_model(text).log_transition[1, 2])


@pytest.mark.parametrize("name", ["note_o2_integral.json", "chord.json"])
def test_a_leaf_above_zero_is_no_log_probability(name):
    # a huge one would overflow a decode to +inf; 0.0 is probability 1
    doc = json.loads((MODEL_V1 / name).read_text())
    table, key = doc, "tables"
    while isinstance(table[key], (dict, list)):  # down to the first leaf
        table = table[key]
        key = next(iter(table)) if isinstance(table, dict) else 0
    for value, loads in ((0.0, True), (5e-324, False), (0.5, False), (1e308, False)):
        table[key] = value
        if loads:
            loads_model(json.dumps(doc))
        else:
            with pytest.raises(MalformedModel, match="above 0"):
                loads_model(json.dumps(doc))


@pytest.mark.parametrize("name", ["note_o3_lattice.json", "chord.json"])
def test_both_kinds_decode_a_part_of_no_hand_as_its_inferred_hand(name):
    model = load_model(MODEL_V1 / name)
    decode_parts = KINDS[model_kind(model)].decode_parts
    piece = load_piece(DATA / "sample_corpus" / "101-1_fingering.txt")
    parts = split_hands(piece)
    assert [infer_hand(part) for part in parts] == [Hand.RH, Hand.LH]
    for part in parts:
        inferred, given = decode_parts(model, [(part, None), (part, infer_hand(part))])
        assert np.asarray(inferred[0]).tolist() == np.asarray(given[0]).tolist()
        assert repr(inferred[1]) == repr(given[1])
    with pytest.raises(ValueError) as info:
        decode_parts(model, [(piece, None)])
    assert str(info.value) == "expected a single-hand part, channels [0, 1]"


@pytest.mark.parametrize("name, hand", [
    *[(name, hand) for name in ("note_o2_integral.json", "chord.json") for hand in ("rh", 0)],
    ("chord.json", None),
])
def test_both_kinds_refuse_a_hand_that_is_no_hand_by_name(name, hand):
    # a part has channels to infer a None hand from; a chord list has none
    model = load_model(MODEL_V1 / name)
    rh = split_hands(load_piece(DATA / "sample_corpus" / "101-1_fingering.txt"))[0]
    if name == "chord.json":
        chords = cluster_chords(rh, model.params.delta)
        path = decode_chords(model, chords, Hand.RH).states
        calls = [lambda: decode_chords(model, chords, hand),
                 lambda: chord_path_log_score(model, chords, hand, path)]
        expected = f"hand must be a Hand, got {hand!r}"
    else:
        fingers = decode_viterbi(model, rh, Hand.RH).fingers
        calls = [lambda: decode_viterbi(model, rh, hand),
                 lambda: sequence_log_score(model, rh, fingers, hand)]
        expected = f"hand must be None or a Hand, got {hand!r}"
    refusals = [(call, expected) for call in calls]
    if hand is not None:
        refusals.append((lambda: KINDS[model_kind(model)].decode_parts(model, [(rh, hand)]),
                         f"hand must be None or a Hand, got {hand!r}"))
    for call, message in refusals:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
