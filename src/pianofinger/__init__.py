"""Statistical piano-fingering models over PIG-format fingering files.

The package trains hidden-Markov models of fingering from annotated
performances, decodes fingerings for new pieces by exact dynamic
programming, and evaluates estimates against multiple ground truths with
four match-rate measures and annotator-agreement analyses.
"""

from . import agreement, dataset, experiments
from .chord_hmm import (
    Chord,
    ChordComponent,
    ChordHmmModel,
    ChordHmmParams,
    chord_path_log_score,
    cluster_chords,
    decode_chords,
    enumerate_states,
    train_chord,
)
from .errors import FingeringError
from .estimate import annotate_piece, estimate_piece
from .eval_measures import (
    MatchRateReport,
    RecombinationConfig,
    match_rate_report,
    recombination_match_rate,
    recombination_match_rates,
    summarize,
)
from .model_io import dumps_model, load_model, loads_model
from .note_hmm import (
    DecodeResult,
    NoteHmmConfig,
    NoteHmmModel,
    Symmetry,
    decode_viterbi,
    sample_piece,
    sequence_log_score,
    train,
    transition_prob,
)
from .pig_io import (
    FingerLabel,
    GroundTruthSet,
    Hand,
    Note,
    Piece,
    midi_to_pitch,
    parse_fingering_file,
    pitch_to_midi,
    resolve_substitution,
    serialize_fingering_file,
    split_hands,
)
from .pitch_space import (
    Displacement,
    LatticePoint,
    PitchRepresentation,
    displacement,
    reflect_x,
    to_lattice,
)

__version__ = "0.1.0"
