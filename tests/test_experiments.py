"""Coefficient search, scaling experiment and the sqrt-law fit."""

import math

import numpy as np
import pytest

from conftest import random_note_model
from pianofinger.errors import DegenerateFit, EmptyCorpus
from pianofinger.experiments import (
    ScalingFit,
    TuningSpec,
    apply_params,
    evaluate_model,
    fit_sqrt,
    scaling_experiment,
    train_model,
    tune,
)
from pianofinger.note_hmm import NoteHmmConfig, sample_piece
from pianofinger.pig_io import GroundTruthSet, Hand
from pianofinger.pitch_space import PitchRepresentation

INTEGRAL = PitchRepresentation.INTEGRAL


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
        piece = sample_piece(source, Hand.RH, n_notes, rng, start_midi=60)
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
    spec = TuningSpec(bounds={"alpha1": (0.0, 2.0)}, budget=1)
    result = tune(spec, train_pieces, valid_sets, base_config=BASE, seed=3)
    assert len(result.trace) == 1
    assert result.best_params == {"alpha1": 0.964}


def test_tune_improves_on_defaults_and_stays_in_bounds(rng):
    train_pieces, valid_sets = _synthetic_data(rng)
    spec = TuningSpec(bounds={"alpha1": (0.0, 2.0)}, budget=8)
    result = tune(spec, train_pieces, valid_sets, base_config=BASE, seed=5)
    default_model = train_model("note-hmm", BASE, train_pieces)
    default_objective = evaluate_model(default_model, valid_sets, "m_gen")
    assert result.best_objective >= default_objective
    for _, params, _ in result.trace:
        assert 0.0 <= params["alpha1"] <= 2.0
    assert len(result.trace) <= spec.budget


def test_tune_plateau_keeps_first_candidate(rng):
    train_pieces, valid_sets = _synthetic_data(rng, n_notes=6)
    # alpha has no effect when every output row is uniform over one cell
    # bucket; instead force a plateau by bounding alpha to a single value
    spec = TuningSpec(bounds={"alpha1": (0.5, 0.5)}, budget=4)
    result = tune(spec, train_pieces, valid_sets, base_config=BASE, seed=0)
    assert result.best_index == 0


def test_tune_rejects_empty(rng):
    spec = TuningSpec(bounds={"alpha1": (0.0, 1.0)}, budget=2)
    with pytest.raises(EmptyCorpus):
        tune(spec, [], [], base_config=BASE)


def test_apply_params_projects_lambda_simplex():
    config = NoteHmmConfig(order=3)
    tuned = apply_params(config, {"lambda1": 0.8, "lambda2": 0.6})
    assert sum(tuned.lambda_) <= 1.0 + 1e-12
    assert tuned.lambda_[0] / tuned.lambda_[1] == pytest.approx(0.8 / 0.6)


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


def test_unknown_model_kind_raises_value_error_listing_kinds(rng):
    train_pieces, valid_sets = _synthetic_data(rng, n_train=2, n_valid=1, n_notes=6)
    spec = TuningSpec(bounds={"alpha1": (0.0, 1.0)}, budget=2)
    calls = (
        lambda: train_model("note_hmm", BASE, train_pieces),
        lambda: tune(spec, train_pieces, valid_sets, model_kind="note_hmm"),
        lambda: tune(spec, train_pieces, valid_sets, model_kind="note_hmm", base_config=BASE),
        lambda: scaling_experiment(train_pieces, valid_sets, [1.0], 1, model_kind="note_hmm"),
    )
    for call in calls:
        with pytest.raises(ValueError, match="'note_hmm'; known kinds: note-hmm, chord-hmm"):
            call()
