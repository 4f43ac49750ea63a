"""Coefficient search and the value of more training data.

The model coefficients (output exponents, interpolation weights) are
tuned by a seeded derivative-free search against a validation match
rate.  Retraining on growing random subsets of the corpus traces a
learning curve that follows a - b/sqrt(N); its intercept a predicts the
match rate with unlimited data.

Everything here runs on data sampled from a known generative model, so
the script is self-contained and finishes in seconds.
"""

import numpy as np

from pianofinger import GroundTruthSet, Hand, NoteHmmConfig, sample_piece
from pianofinger.experiments import ScalingFit, scaling_experiment, tune
from pianofinger.note_hmm import NoteHmmModel
from pianofinger.pitch_space import PitchRepresentation

rng = np.random.default_rng(7)

# A ground-truth generator: random but fixed tables, sharpened so the
# sampled fingerings are actually learnable.
def random_rows(shape):
    x = (rng.random(shape) + 0.02) ** 6
    return x / x.sum(axis=-1, keepdims=True)

config = NoteHmmConfig(
    order=1,
    pitch_representation=PitchRepresentation.INTEGRAL,
    delta_p_max=5,
    alpha=(0.964,),
)
source = NoteHmmModel(
    config=config,
    log_initial=[np.log(random_rows((1, 5)))],
    log_transition=np.log(random_rows((5, 5))),
    log_output={hand: [np.log(random_rows((5, 5, 11)))] for hand in Hand},
)

pieces = [sample_piece(source, Hand.RH, 30, rng) for _ in range(14)]
train_pieces, valid_pieces = pieces[:10], pieces[10:]
valid_sets = [GroundTruthSet.from_pieces([p]) for p in valid_pieces]

# An order-1 note HMM has one tunable coefficient, alpha1, searched in [0, 2].
print("tuning the output exponent alpha1 on the validation match rate...")
result = tune(train_pieces, valid_sets, base_config=config, budget=10, seed=1)
for index, params, objective in result.trace:
    marker = " <- best" if index == result.best_index else ""
    print(f"  eval {index}: alpha1={params['alpha1']:.3f}"
          f"  M_gen={objective:.3f}{marker}")
print(f"best coefficients: {result.best_params}")

print("\nlearning curve over training subsets:")
points = scaling_experiment(
    train_pieces, valid_sets,
    fractions=[0.2, 0.4, 0.7, 1.0], repeats=8, config=config, seed=2,
)
for p in points:
    print(f"  {p.n_pieces:2d} pieces (~{p.mean_notes:5.0f} notes): "
          f"M_gen = {p.mean_match_rate:.3f} +- {p.std_match_rate:.3f}")

fit = ScalingFit.from_points((p.mean_notes, p.mean_match_rate) for p in points)
print(f"\nfit A(N) = a - b/sqrt(N): a={fit.a:.3f}, b={fit.b:.3f}")
print(f"predicted match rate with unlimited data: {fit.a:.3f}")
if fit.b_negative:
    print("(curve was not increasing; the extrapolation is unreliable)")
