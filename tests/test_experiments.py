"""Coefficient search, scaling experiment and the sqrt-law fit."""

import math
import warnings
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls, lockstep_batches, make_piece, random_note_model, random_piece
from pianofinger import chord_hmm, experiments, note_hmm
from pianofinger._tables import Counts
from pianofinger.model_io import KINDS, load_model
from pianofinger.chord_hmm import ChordHmmParams
from pianofinger.dataset import load_corpus, load_ground_truth_sets, load_piece
from pianofinger.errors import DegenerateFit, EmptyCorpus, HandOverflow
from pianofinger.estimate import estimate_piece
from pianofinger.eval_measures import match_rate_report, match_rates
from pianofinger.experiments import (
    ScalingFit,
    evaluate_model,
    fit_sqrt,
    hand_parts,
    scaling_experiment,
    train_model,
    tune,
)
from pianofinger.note_hmm import NoteHmmConfig, Symmetry, sample_piece
from pianofinger.pig_io import FingerLabel, GroundTruthSet, Hand, Piece, infer_hand, split_hands
from pianofinger.pitch_space import PitchRepresentation, alphabet_size, index_table

INTEGRAL = PitchRepresentation.INTEGRAL
SAMPLE_CORPUS = Path(__file__).resolve().parents[1] / "data" / "sample_corpus"


def test_fit_sqrt_reference_points():
    points = [(100, 0.59), (400, 0.615), (2500, 0.63)]
    a, b = fit_sqrt(points)
    assert abs(a - 0.64) < 1e-9
    assert abs(b - 0.5) < 1e-9


def test_fit_sqrt_fuzz(rng):
    for _ in range(100):
        a_true = float(rng.uniform(0.1, 0.9))
        b_true = float(rng.uniform(0.0, 2.0))
        ns = rng.choice(np.arange(10, 10**6), size=int(rng.integers(2, 8)), replace=False)
        points = [(int(n), a_true - b_true / math.sqrt(n)) for n in ns]
        a, b = fit_sqrt(points)
        assert abs(a - a_true) < 1e-9
        assert abs(b - b_true) < 1e-9


def test_fit_sqrt_constant_points():
    a, b = fit_sqrt([(100, 0.6), (200, 0.6), (400, 0.6)])
    assert abs(b) < 1e-9 and abs(a - 0.6) < 1e-9


def test_fit_sqrt_two_points_exact():
    a, b = fit_sqrt([(100, 0.5), (400, 0.55)])
    assert 0.5 == pytest.approx(a - b / 10.0, abs=1e-12)
    assert 0.55 == pytest.approx(a - b / 20.0, abs=1e-12)


def test_fit_sqrt_degenerate():
    with pytest.raises(DegenerateFit):
        fit_sqrt([(100, 0.5)])
    with pytest.raises(DegenerateFit):
        fit_sqrt([(100, 0.5), (100, 0.6)])
    with pytest.raises(DegenerateFit):
        fit_sqrt([(0, 0.5), (100, 0.6)])


def test_scaling_fit_flags_decreasing_curve():
    fit = ScalingFit.from_points([(100, 0.7), (400, 0.65), (1600, 0.62)])
    assert fit.b_negative
    increasing = ScalingFit.from_points([(100, 0.59), (400, 0.615), (2500, 0.63)])
    assert not increasing.b_negative
    assert increasing.residual_norm < 1e-12


def _synthetic_data(rng, n_train=6, n_valid=3, n_notes=25):
    source = random_note_model(rng, order=1, representation=INTEGRAL, delta_p_max=5)
    train_pieces, valid_sets = [], []
    for i in range(n_train + n_valid):
        piece = sample_piece(source, Hand.RH, n_notes, rng)
        piece = piece.__class__(
            notes=piece.notes, piece_id=f"s{i}", annotator_id="1"
        )
        if i < n_train:
            train_pieces.append(piece)
        else:
            valid_sets.append(GroundTruthSet.from_pieces([piece]))
    return train_pieces, valid_sets


BASE = NoteHmmConfig(
    order=1,
    pitch_representation=INTEGRAL,
    delta_p_max=5,
    alpha=(0.964,),
)


def test_tune_budget_one_returns_warm_start(rng):
    train_pieces, valid_sets = _synthetic_data(rng)
    result = tune(train_pieces, valid_sets, base_config=BASE, budget=1, seed=3)
    assert len(result.trace) == 1
    assert result.best_params == {"alpha1": 0.964}


def test_tune_improves_on_defaults_and_stays_in_bounds(rng):
    train_pieces, valid_sets = _synthetic_data(rng)
    result = tune(train_pieces, valid_sets, base_config=BASE, budget=8, seed=5)
    default_model = train_model("note-hmm", BASE, train_pieces)
    default_objective = evaluate_model(default_model, valid_sets, "m_gen")
    assert result.best_objective >= default_objective
    for _, params, _ in result.trace:
        assert 0.0 <= params["alpha1"] <= 2.0
    assert len(result.trace) <= 8


def test_tune_plateau_keeps_first_candidate(rng, monkeypatch):
    train_pieces, valid_sets = _synthetic_data(rng, n_notes=6)
    monkeypatch.setattr(experiments, "evaluate_model", lambda *_: 0.5)
    result = tune(train_pieces, valid_sets, base_config=BASE, budget=12, seed=0)
    assert len(result.trace) == 12
    assert result.best_index == 0
    assert result.best_params == {"alpha1": 0.964}


def test_tune_rejects_empty(rng):
    with pytest.raises(EmptyCorpus):
        tune([], [], base_config=BASE, budget=2)


def test_tune_refuses_a_budget_below_one(rng):
    train_pieces, valid_sets = _synthetic_data(rng, n_train=2, n_valid=1, n_notes=6)
    with pytest.raises(ValueError, match="^budget must be at least 1$"):
        tune(train_pieces, valid_sets, base_config=BASE, budget=0)


@pytest.mark.parametrize("kind", ["note-hmm", "chord-hmm"])
def test_tune_refuses_an_unknown_objective_before_counting(rng, monkeypatch, kind):
    train_pieces, valid_sets = _synthetic_data(rng, n_train=2, n_valid=1, n_notes=6)
    module = note_hmm if kind == "note-hmm" else chord_hmm
    counted = []
    count = module.count
    monkeypatch.setattr(module, "count", lambda *a: counted.append(a) or count(*a))
    with pytest.raises(ValueError) as info:
        tune(train_pieces, valid_sets, model_kind=kind, objective="bogus", budget=2)
    assert str(info.value) == "unknown measure 'bogus'; known measures: m_gen, m_high, m_soft, m_rec"
    assert counted == []


@pytest.mark.parametrize("kind, config, start", [
    ("note-hmm", NoteHmmConfig(order=1, pitch_representation=INTEGRAL, delta_p_max=5,
                               alpha=(2.5,)), {"alpha1": 2.0}),
    ("note-hmm", NoteHmmConfig(order=2, alpha=(0.5, 3.0), lambda_=(0.25,)),
     {"alpha1": 0.5, "alpha2": 2.0, "lambda1": 0.25}),
    ("note-hmm", NoteHmmConfig(order=3, alpha=(0.5, 0.5, 0.5), lambda_=(0.5, 0.25)),
     {"alpha1": 0.5, "alpha2": 0.5, "alpha3": 0.5, "lambda1": 0.5, "lambda2": 0.25}),
    ("chord-hmm", ChordHmmParams(beta1=12.0, zeta=2.5, delta_p_max=5),
     {"beta1": 10.0, "beta2": ChordHmmParams().beta2, "gamma1": ChordHmmParams().gamma1,
      "gamma2": ChordHmmParams().gamma2, "zeta": 2.0}),
], ids=["note-o1", "note-o2", "note-o3", "chord"])
def test_tune_searches_the_kinds_coefficient_box(rng, monkeypatch, kind, config, start):
    train_pieces, valid_sets = _synthetic_data(rng, n_train=3, n_valid=2, n_notes=12)
    module = note_hmm if kind == "note-hmm" else chord_hmm
    fit, fitted = module.fit, []
    monkeypatch.setattr(module, "fit", lambda counts, c: fitted.append(c) or fit(counts, c))
    table = KINDS[kind].coefficients(config)
    result = tune(train_pieces, valid_sets, model_kind=kind, base_config=config,
                  budget=20, seed=2)
    assert len(result.trace) == len(fitted) == 20
    assert result.trace[0][1] == start
    for (_, params, _), used in zip(result.trace, fitted):
        assert list(params) == list(table)
        for name, (_, (lo, hi)) in table.items():
            assert lo <= params[name] <= hi, name
        if kind == "note-hmm":
            assert used.alpha == tuple(params[f"alpha{i}"] for i in range(1, config.order + 1))
            assert sum(used.lambda_) <= 1.0 + 1e-12
        else:
            assert all(getattr(used, name) == value for name, value in params.items())


def test_set_coefficients_projects_lambda_simplex():
    config = NoteHmmConfig(order=3)
    values = {name: value for name, (value, _) in KINDS["note-hmm"].coefficients(config).items()}
    tuned = KINDS["note-hmm"].set_coefficients(config, {**values, "lambda1": 0.8, "lambda2": 0.6})
    assert sum(tuned.lambda_) <= 1.0 + 1e-12
    assert tuned.lambda_[0] / tuned.lambda_[1] == pytest.approx(0.8 / 0.6)
    assert tuned.alpha == config.alpha


@pytest.mark.parametrize("kind, config", [
    ("note-hmm", NoteHmmConfig(order=1)),
    ("note-hmm", NoteHmmConfig(order=2, alpha=(1, 0), lambda_=(1,))),
    ("note-hmm", NoteHmmConfig(order=3)),
    ("chord-hmm", ChordHmmParams()),
    ("chord-hmm", ChordHmmParams(beta1=1, zeta=0, delta_p_max=4)),
], ids=["note-o1", "note-o2", "note-o3", "chord", "chord-edited"])
def test_coefficient_table_round_trips(kind, config):
    table = KINDS[kind].coefficients(config)
    values = {name: value for name, (value, _) in table.items()}
    assert KINDS[kind].set_coefficients(config, values) == config
    # values are read by name, not by position
    assert KINDS[kind].set_coefficients(config, dict(reversed(values.items()))) == config
    for value, (lo, hi) in table.values():
        assert 0.0 == lo < hi


def test_scaling_reproducible_and_deterministic_at_full_fraction(rng):
    train_pieces, test_sets = _synthetic_data(rng, n_train=6, n_valid=2, n_notes=12)
    kwargs = dict(
        train_pieces=train_pieces,
        test_sets=test_sets,
        fractions=[0.34, 1.0],
        repeats=3,
        config=BASE,
        seed=11,
    )
    first = scaling_experiment(**kwargs)
    second = scaling_experiment(**kwargs)
    assert first == second
    full = [p for p in first if p.fraction == 1.0][0]
    assert full.repeats == 1
    assert full.std_match_rate == 0.0
    assert full.n_pieces == len(train_pieces)
    partial = [p for p in first if p.fraction != 1.0][0]
    assert partial.repeats == 3
    assert 1 <= partial.n_pieces < len(train_pieces)


def test_scaling_refuses_an_empty_fraction_list(rng):
    train_pieces, test_sets = _synthetic_data(rng, n_train=2, n_valid=1, n_notes=6)
    for fractions in ([], iter(())):
        with pytest.raises(ValueError, match="^fractions must hold at least one fraction$"):
            scaling_experiment(train_pieces, test_sets, fractions, 1, config=BASE)
    # checking the fractions must not use up a one-pass iterable
    (point,) = scaling_experiment(train_pieces, test_sets, iter([1.0]), 1, config=BASE)
    assert point.fraction == 1.0


def test_unknown_model_kind_raises_value_error_listing_kinds(rng):
    train_pieces, valid_sets = _synthetic_data(rng, n_train=2, n_valid=1, n_notes=6)
    calls = (
        lambda: train_model("note_hmm", BASE, train_pieces),
        lambda: tune(train_pieces, valid_sets, model_kind="note_hmm", budget=2),
        lambda: tune(train_pieces, valid_sets, model_kind="note_hmm", base_config=BASE,
                     budget=2),
        lambda: scaling_experiment(train_pieces, valid_sets, [1.0], 1, model_kind="note_hmm"),
    )
    for call in calls:
        with pytest.raises(ValueError, match="'note_hmm'; known kinds: note-hmm, chord-hmm"):
            call()


def test_a_config_of_the_other_model_kind_is_refused_before_counting(rng, monkeypatch):
    train_pieces, valid_sets = _synthetic_data(rng, n_train=2, n_valid=1, n_notes=6)
    counted = []
    for module in (note_hmm, chord_hmm):
        count = module.count
        monkeypatch.setattr(module, "count", lambda *a, count=count: counted.append(a) or count(*a))
    note = "a note-hmm model cannot take a chord-hmm config"
    chord = "a chord-hmm model cannot take a note-hmm config"
    calls = (
        (lambda: train_model("note-hmm", ChordHmmParams(), train_pieces), note),
        (lambda: tune(train_pieces, valid_sets, model_kind="chord-hmm", base_config=BASE,
                      budget=2), chord),
        (lambda: scaling_experiment(train_pieces, valid_sets, [1.0], 1, model_kind="note-hmm",
                                    config=ChordHmmParams()), note),
    )
    for call, message in calls:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    assert counted == []


def test_evaluate_model_averages_the_requested_measure(rng):
    train_pieces, valid_sets = _synthetic_data(rng, n_train=4, n_valid=3, n_notes=20)
    model = train_model("note-hmm", BASE, train_pieces)
    # two annotators: one agrees with the estimate up to the middle note,
    # the other from it on, so the four measures differ
    multi = []
    for s in valid_sets:
        est = estimate_piece(model, s.piece)[0]
        middle = len(est) // 2
        multi.append(GroundTruthSet.from_pieces([
            s.piece.with_fingers([
                FingerLabel(Hand.RH, d if keep(i) else d % 5 + 1) for i, d in enumerate(est)
            ])
            for keep in (lambda i: i <= middle, lambda i: i >= middle)
        ]))
    reports = [
        match_rate_report(estimate_piece(model, s.piece)[0], s.signed_fingerings)
        for s in multi
    ]
    values = set()
    for measure in ("m_gen", "m_high", "m_soft", "m_rec"):
        expected = sum(getattr(r, measure) for r in reports) / len(reports)
        assert evaluate_model(model, multi, measure) == expected
        values.add(expected)
    assert len(values) == 4


def test_evaluate_model_decodes_every_validation_part_in_one_lock_step_dp(monkeypatch):
    model = train_model("note-hmm", NoteHmmConfig(order=2), load_corpus(SAMPLE_CORPUS))
    gt_sets = load_ground_truth_sets(SAMPLE_CORPUS)
    # what one piece at a time gives
    rates = match_rates("m_gen", [(estimate_piece(model, s.piece)[0], s.signed_fingerings)
                                  for s in gt_sets])
    batches = lockstep_batches(monkeypatch)
    assert evaluate_model(model, gt_sets) == sum(rates) / len(rates)
    parts = sum(len(part) > 0 for s in gt_sets for part in split_hands(s.piece))
    assert parts > len(gt_sets) and batches == [parts]


def test_evaluate_model_builds_one_set_of_step_tables_for_every_part(monkeypatch):
    model = train_model("note-hmm", NoteHmmConfig(order=2), load_corpus(SAMPLE_CORPUS))
    gt_sets = load_ground_truth_sets(SAMPLE_CORPUS)
    builds = count_calls(monkeypatch, note_hmm, "_step_tables")
    batches = lockstep_batches(monkeypatch)
    evaluate_model(model, gt_sets)
    assert len(builds) == 1 and batches == [16]


def test_evaluate_model_runs_one_chord_dp_for_every_part(monkeypatch):
    model = load_model(SAMPLE_CORPUS.parent / "model_v1" / "chord.json")
    gt_sets = load_ground_truth_sets(SAMPLE_CORPUS)
    # what one piece at a time gives
    rates = match_rates("m_gen", [(estimate_piece(model, s.piece)[0], s.signed_fingerings)
                                  for s in gt_sets])
    dps = count_calls(monkeypatch, chord_hmm, "_run_viterbi")
    clusters = count_calls(monkeypatch, chord_hmm, "cluster_chords")
    assert evaluate_model(model, gt_sets) == sum(rates) / len(rates)
    parts = sum(len(part) > 0 for s in gt_sets for part in split_hands(s.piece))
    assert parts > len(gt_sets) and len(dps) == 1 and len(clusters) == parts


def test_estimate_piece_decodes_both_hands_in_one_lock_step_dp(monkeypatch):
    model = train_model("note-hmm", NoteHmmConfig(order=2), load_corpus(SAMPLE_CORPUS))
    piece = load_piece(SAMPLE_CORPUS / "101-1_fingering.txt")
    batches = lockstep_batches(monkeypatch)
    signed, results = estimate_piece(model, piece)
    assert batches == [2] and set(results) == set(Hand)
    assert 0 not in signed


def test_evaluate_model_excludes_a_piece_a_chord_model_cannot_decode():
    model = train_model("chord-hmm", None, load_corpus(SAMPLE_CORPUS))
    gt_sets = load_ground_truth_sets(SAMPLE_CORPUS)
    cluster = make_piece([60, 62, 64, 65, 67, 69], onsets=[0.0] * 6, digits=[1, 2, 3, 4, 5, 5],
                         piece_id="big")
    with pytest.raises(HandOverflow):
        estimate_piece(model, cluster)
    overflow = GroundTruthSet.from_pieces([cluster])
    assert evaluate_model(model, [overflow, *gt_sets]) == evaluate_model(model, gt_sets)


def test_evaluate_model_refuses_an_unknown_measure(rng):
    train_pieces, valid_sets = _synthetic_data(rng, n_train=2, n_valid=1, n_notes=6)
    model = train_model("note-hmm", BASE, train_pieces)
    with pytest.raises(ValueError, match="'e_rec'; known measures: m_gen, m_high, m_soft, m_rec"):
        evaluate_model(model, valid_sets, "e_rec")


# --- training counts: count once, fit many --------------------------------

def _annotated(piece, rng):
    hand = Hand.RH if piece.notes[0].channel == 0 else Hand.LH
    digits = rng.integers(1, 6, len(piece))
    return piece.with_fingers([FingerLabel(hand, int(d)) for d in digits])


def _training_parts(rng):
    """Annotated single-hand parts with chords and sustained notes (each
    note sounds 0.4 s, onsets step 0.2 s), two chord-HMM hand overflows,
    an empty part and a whole piece whose left hand is empty."""
    parts = []
    for i in range(8):
        hand = Hand.RH if i % 3 else Hand.LH
        piece = random_piece(rng, n_max=14, midi_lo=40, midi_hi=90, hand=hand)
        parts.append(_annotated(Piece(piece.notes, f"p{i}", "1"), rng))
    for i, hand in ((2, Hand.RH), (6, Hand.LH)):
        cluster = make_piece([60, 62, 64, 65, 67, 69, 72], [0.0] * 6 + [0.5],
                             hand=hand, piece_id=f"overflow{i}")
        parts.insert(i, _annotated(cluster, rng))
    parts.insert(4, Piece(notes=(), piece_id="empty"))
    right_only = _annotated(make_piece([60, 64, 67, 72], piece_id="right-only"), rng)
    parts += hand_parts([right_only])
    return parts


def _table_bytes(model) -> list:
    """Every table of a model as (name, shape, bytes)."""
    found = []

    def visit(name, value):
        if isinstance(value, np.ndarray):
            found.append((name, value.shape, value.tobytes()))
        elif isinstance(value, dict):
            for key in sorted(value, key=str):
                visit(f"{name}[{key}]", value[key])
        elif isinstance(value, list):
            for i, item in enumerate(value):
                visit(f"{name}[{i}]", item)

    for name, value in vars(model).items():
        visit(name, value)
    return found


def _with_warnings(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [str(w.message) for w in caught]


@pytest.mark.parametrize("module, train, config", [
    (note_hmm, note_hmm.train, NoteHmmConfig(order=1, pitch_representation=INTEGRAL,
                                             delta_p_max=3)),
    (note_hmm, note_hmm.train, NoteHmmConfig(order=2, symmetries={Symmetry.REFLECTION})),
    (note_hmm, note_hmm.train, NoteHmmConfig(order=3, symmetries=frozenset(Symmetry),
                                             delta_p_max=4)),
    (chord_hmm, chord_hmm.train_chord, ChordHmmParams(delta_p_max=4)),
    (chord_hmm, chord_hmm.train_chord, ChordHmmParams(truncate_overlaps=True)),
])
def test_fit_of_summed_counts_is_training_on_pooled_parts(rng, module, train, config):
    parts = _training_parts(rng)
    pooled, pooled_warnings = _with_warnings(lambda: train(parts, config))
    tables = _table_bytes(pooled)
    for cut in (1, 5, len(parts) // 2, len(parts) - 1):
        a, b = parts[:cut], parts[cut:]
        summed, summed_warnings = _with_warnings(
            lambda: module.fit(Counts.pool([module.count(a, config), module.count(b, config)]),
                               config)
        )
        assert _table_bytes(summed) == tables
        assert summed_warnings == pooled_warnings  # same text, same skipped-id order
        swapped, _ = _with_warnings(
            lambda: module.fit(Counts.pool([module.count(b, config), module.count(a, config)]),
                               config)
        )
        assert _table_bytes(swapped) == tables
    if module is chord_hmm:
        (message,) = pooled_warnings
        assert message.startswith("hand overflow, excluded from chord training: [")
        assert 0 < message.index("'overflow2'") < message.index("'overflow6'")
    else:
        assert pooled_warnings == []


def test_counts_refuse_other_settings(rng):
    parts = _training_parts(rng)
    config = NoteHmmConfig(order=2)
    counts = note_hmm.count(parts, config)
    with pytest.raises(ValueError, match="different"):
        Counts.pool([counts, note_hmm.count(parts, NoteHmmConfig(order=2, delta_p_max=4))])
    with pytest.raises(ValueError, match="different"):
        note_hmm.fit(counts, NoteHmmConfig(order=3))
    # coefficients, symmetries and smoothing act in the fit
    note_hmm.fit(counts, NoteHmmConfig(order=2, alpha=(1.0, 0.0), lambda_=(0.2,),
                                       symmetries=frozenset(Symmetry), smoothing_epsilon=2.0))
    chord_counts = chord_hmm.count(parts, ChordHmmParams())
    with pytest.raises(ValueError, match="different"):
        Counts.pool([counts, chord_counts])
    with pytest.raises(ValueError, match="different"):
        chord_hmm.fit(chord_counts, ChordHmmParams(delta=0.05))
    with pytest.raises(EmptyCorpus):
        note_hmm.fit(note_hmm.count([Piece(notes=())], config), config)
    with pytest.raises(EmptyCorpus):
        chord_hmm.fit(chord_hmm.count([], ChordHmmParams()), ChordHmmParams())


def _left_fold(counts):
    """Pooled counts as pairwise joins, the way ``+`` used to build them."""
    total = counts[0]
    for other in counts[1:]:
        total = type(total)(
            settings=total.settings,
            parts=total.parts + other.parts,
            events={key: (shape, np.concatenate([cells, other.events[key][1]]))
                    for key, (shape, cells) in total.events.items()},
            skipped=total.skipped + other.skipped,
        )
    return total


@pytest.mark.parametrize("module, config", [
    (note_hmm, NoteHmmConfig(order=3, delta_p_max=4)),
    (chord_hmm, ChordHmmParams(delta_p_max=4)),
])
def test_pooled_counts_equal_the_left_fold(rng, module, config):
    parts = _training_parts(rng)
    per_part = [module.count([part], config) for part in parts]
    for chosen in (per_part[:1], per_part, per_part[::-1], per_part[3:8]):
        pooled, expected = Counts.pool(chosen), _left_fold(chosen)
        assert type(pooled) is type(expected)
        assert (pooled.settings, pooled.parts, pooled.skipped) == (
            expected.settings, expected.parts, expected.skipped)
        assert pooled.events.keys() == expected.events.keys()
        for key, (shape, cells) in expected.events.items():
            assert pooled.events[key][0] == shape
            assert pooled.events[key][1].dtype == cells.dtype
            assert pooled.events[key][1].tobytes() == cells.tobytes(), key
    pooled, whole = Counts.pool(per_part), module.count(parts, config)
    assert pooled.skipped == whole.skipped
    for key, table in whole.tables.items():
        assert pooled.tables[key].tobytes() == table.tobytes(), key


def test_fit_names_the_settings_the_counts_differ_in(rng):
    parts = _training_parts(rng)
    counts = note_hmm.count(parts, NoteHmmConfig(order=2))
    with pytest.raises(ValueError, match="^counts were taken under a different delta_p_max$"):
        note_hmm.fit(counts, NoteHmmConfig(order=2, delta_p_max=4))
    with pytest.raises(
        ValueError, match="^counts were taken under a different order and pitch_representation$"
    ):
        note_hmm.fit(counts, NoteHmmConfig(order=3, pitch_representation=INTEGRAL))
    chord_counts = chord_hmm.count(parts, ChordHmmParams())
    with pytest.raises(
        ValueError, match="^counts were taken under a different delta and truncate_overlaps$"
    ):
        chord_hmm.fit(chord_counts, ChordHmmParams(delta=0.05, truncate_overlaps=True))


def _reference_note_tables(parts, config) -> dict:
    """Note counts by per-note loops, the way they were first written."""
    m = config.order
    cell = index_table(config.pitch_representation, config.delta_p_max)
    size = alphabet_size(config.pitch_representation, config.delta_p_max)
    tables = {("initial", k): np.zeros((5**k, 5)) for k in range(m)}
    tables.update({("ngram", o): np.zeros((5**o, 5)) for o in range(1, m + 1)})
    tables.update({(h, lag): np.zeros((5, 5, size)) for h in Hand for lag in range(1, m + 1)})
    for piece in parts:
        if len(piece) == 0:
            continue
        hand = infer_hand(piece)
        d = [n.finger.digit for n in piece.notes]
        key = [n.midi - 21 for n in piece.notes]
        for k in range(min(m, len(d))):
            tables["initial", k][note_hmm._flat_index(d[:k]), d[k] - 1] += 1.0
        for o in range(1, m + 1):
            for n in range(o, len(d)):
                tables["ngram", o][note_hmm._flat_index(d[n - o : n]), d[n] - 1] += 1.0
        for lag in range(1, m + 1):
            for n in range(lag, len(d)):
                x = cell[key[n - lag], key[n]]
                tables[hand, lag][d[n - lag] - 1, d[n] - 1, x] += 1.0
    return tables


def _reference_chord_tables(parts, params) -> dict:
    """Chord counts by loops over component pairs."""
    size = alphabet_size(PitchRepresentation.LATTICE, params.delta_p_max)
    cell = index_table(PitchRepresentation.LATTICE, params.delta_p_max)
    tables = {"initial": np.zeros(5), "trans_across": np.zeros((5, 5)),
              "trans_within": np.zeros((5, 5))}
    tables.update({(name, h): np.zeros((5, 5, size))
                   for name in ("out_across", "out_within") for h in Hand})
    for piece in parts:
        if len(piece) == 0:
            continue
        hand = infer_hand(piece)
        digit_of = {n.note_id: n.finger.digit - 1 for n in piece.notes}
        try:
            chords = chord_hmm.cluster_chords(piece, params.delta, params.truncate_overlaps)
        except HandOverflow:
            continue
        prev = None
        for chord in chords:
            cur = [(digit_of[c.note_ids[0]], c.midi - 21) for c in chord.components]
            if prev is None:
                for d, _ in cur:
                    tables["initial"][d] += 1.0
            for name, pairs in (("across", product(prev or [], cur)),
                                ("within", permutations(cur, 2))):
                for (f1, k1), (f2, k2) in pairs:
                    tables["trans_" + name][f1, f2] += 1.0
                    tables["out_" + name, hand][f1, f2, cell[k1, k2]] += 1.0
            prev = cur
    return tables


@pytest.mark.parametrize("module, reference, config", [
    (note_hmm, _reference_note_tables, NoteHmmConfig(order=1, delta_p_max=2)),
    (note_hmm, _reference_note_tables,
     NoteHmmConfig(order=3, pitch_representation=INTEGRAL, delta_p_max=4)),
    (chord_hmm, _reference_chord_tables, ChordHmmParams(delta_p_max=3)),
    (chord_hmm, _reference_chord_tables, ChordHmmParams(truncate_overlaps=True)),
])
def test_counts_match_the_per_event_loops(rng, module, reference, config):
    parts = _training_parts(rng)
    tables = module.count(parts, config).tables
    expected = reference(parts, config)
    assert tables.keys() == expected.keys()
    for key, table in expected.items():
        assert tables[key].tobytes() == table.tobytes(), key
