"""Command-line workflows over directories of fingering files.

Subcommands: ``train``, ``estimate``, ``evaluate``, ``analyze``, ``tune``
and ``scaling``.  Defaults reproduce the best shipped configuration: a
second-order note HMM with the lattice pitch representation, the chord
constraint on, and the shipped coefficient defaults.  With a fixed seed
every command's primary output is byte-reproducible, and outputs are
written only after a command fully succeeds.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import warnings
from pathlib import Path

from . import agreement, dataset, experiments, model_io
from .errors import EmptyPiece, FingeringError, MissingFinger
from .estimate import annotate_piece
from .eval_measures import (
    MEASURES,
    format_report_table,
    format_report_text,
    hand_reports,
    summarize,
)
from .pig_io import GroundTruthSet, check_alignment, serialize_fingering_file


def _csv_floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v != "")


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model-kind", choices=tuple(model_io.KINDS), default="note-hmm")
    parser.add_argument("--delta-ms", type=float, default=30.0,
                        help="chord clustering threshold in milliseconds")
    parser.add_argument("--delta-p-max", type=int, default=15)
    parser.add_argument("--epsilon", type=float, default=0.5,
                        help="additive smoothing count per table cell")
    note = parser.add_argument_group("note-hmm options")
    chord = parser.add_argument_group("chord-hmm options")
    parser.set_defaults(kind_options={
        "note-hmm": [
            note.add_argument("--order", type=int, choices=(1, 2, 3), default=2),
            note.add_argument("--pitch", choices=("lattice", "integral"), default="lattice"),
            note.add_argument("--symmetry", default="none",
                              choices=("none", "reflect", "time", "time+reflect")),
            note.add_argument("--alpha", type=_csv_floats, default=None,
                              help="comma-separated output exponents (one per lag)"),
            note.add_argument("--lambda", dest="lambda_", type=_csv_floats, default=None,
                              help="comma-separated transition interpolation weights"),
            note.add_argument("--no-chord-constraint", action="store_true",
                              help="drop the within-chord crossing constraint"),
        ],
        "chord-hmm": [
            chord.add_argument("--beta", type=_csv_floats, default=None,
                               help="transition exponents: across,within"),
            chord.add_argument("--gamma", type=_csv_floats, default=None,
                               help="output exponents: across,within"),
            chord.add_argument("--zeta", type=float, default=None,
                               help="chord-size damping exponent"),
            chord.add_argument("--truncate-overlaps", action="store_true",
                               help="clip offsets at the next onset"),
        ],
    })


def _model_config(args) -> tuple:
    """The chosen model kind and its config from the command line; an
    option only another kind reads, set away from its default, raises
    ValueError."""
    for name, options in args.kind_options.items():
        for action in options:
            if name != args.model_kind and getattr(args, action.dest) != action.default:
                raise ValueError(f"{action.option_strings[0]} does not apply to "
                                 f"--model-kind {args.model_kind}")
    kind = model_io.KINDS[args.model_kind]
    return kind, kind.from_args(args)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # keep the write's own error
            tmp.unlink(missing_ok=True)
        raise


# --- commands ---------------------------------------------------------------

def cmd_train(args) -> int:
    corpus = dataset.load_corpus(args.data, all_annotators=args.all_annotators)
    _, config = _model_config(args)
    model = experiments.train_model(args.model_kind, config, corpus)
    _write_output(model_io.dumps_model(model), args.out)
    n_notes = sum(len(p) for p in corpus)
    print(
        f"trained {args.model_kind} on {len(corpus)} pieces ({n_notes} notes)",
        file=sys.stderr,
    )
    return 0


def cmd_estimate(args) -> int:
    model = model_io.load_model(args.model)
    piece = dataset.load_piece(args.input)
    if len(piece) == 0:
        raise EmptyPiece(f"{args.input} contains no notes")
    annotated, results = annotate_piece(model, piece)
    for hand, result in results.items():
        if result.crossing_fallback_used:
            print(
                f"warning: {piece.piece_id} {hand.name}: no crossing-free "
                "fingering, constraint relaxed",
                file=sys.stderr,
            )
        if result.relaxed_boundaries:
            print(
                f"warning: {piece.piece_id} {hand.name}: sustain constraint "
                f"relaxed at chords {list(result.relaxed_boundaries)}",
                file=sys.stderr,
            )
    _write_output(serialize_fingering_file(annotated), args.out)
    return 0


def cmd_evaluate(args) -> int:
    if (args.human or Path(args.est).is_dir()) and len(args.gt) > 1:
        raise ValueError("--human and a directory --est take one --gt dataset directory, "
                         f"got {len(args.gt)} paths")
    if args.human:
        gt_sets = dataset.load_ground_truth_sets(
            args.gt[0], min_annotators=2, on_error="skip"
        )
        pieces = [(s.piece_id, s.piece, s.signed_fingerings, None) for s in gt_sets]
    else:
        est_path = Path(args.est)
        if est_path.is_dir():
            gt_sets = {
                s.piece_id: s
                for s in dataset.load_ground_truth_sets(args.gt[0], on_error="skip")
            }
            pairs = []
            for piece_id, entries in dataset.discover(est_path).items():
                if piece_id not in gt_sets:
                    print(f"no ground truth for {piece_id}", file=sys.stderr)
                    continue
                est_piece = dataset.load_piece(next(iter(entries.values())))
                check_alignment(est_piece, gt_sets[piece_id].piece, f"estimate {piece_id}")
                pairs.append((piece_id, est_piece, gt_sets[piece_id]))
        else:
            est_piece = dataset.load_piece(est_path)
            gt_set = GroundTruthSet.from_pieces(
                [dataset.load_piece(p) for p in args.gt]
            )
            check_alignment(est_piece, gt_set.piece, f"estimate {est_piece.piece_id}")
            pairs = [(est_piece.piece_id, est_piece, gt_set)]
        pieces = []
        for piece_id, est_piece, gt_set in pairs:
            if not est_piece.signed_fingers.all():
                raise MissingFinger(f"{piece_id}: the estimate has no finger column")
            pieces.append((piece_id, est_piece, gt_set.signed_fingerings, est_piece.signed_fingers))
    reports = dict(hand_reports(pieces))
    # corpus summary over the combined (whole-piece) rows only
    summary = summarize({k: r for k, r in reports.items() if "/" not in str(k)})
    formatter = format_report_text if args.format == "text" else format_report_table
    _write_output(formatter(reports, summary), args.out)
    return 0


def cmd_analyze(args) -> int:
    gt_sets = dataset.load_ground_truth_sets(
        args.data, min_annotators=2, on_error="skip"
    )
    report = agreement.analyze_sets(gt_sets)
    text = agreement.format_match_rate_table(report)
    text += agreement.format_multiplicity_table(report)
    _write_output(text, args.out)
    return 0


def cmd_tune(args) -> int:
    train_pieces = dataset.load_corpus(args.data, all_annotators=args.all_annotators)
    valid_sets = dataset.load_ground_truth_sets(args.valid, on_error="skip")
    kind, config = _model_config(args)
    result = experiments.tune(
        train_pieces,
        valid_sets,
        model_kind=args.model_kind,
        base_config=config,
        objective=args.objective,
        budget=args.budget,
        seed=args.seed,
    )
    meta = {
        "command": "tune",
        "seed": args.seed,
        "budget": args.budget,
        "objective": args.objective,
        "config": kind.describe(config, args),
    }
    _write_output(experiments.format_tuning_trace(result, meta), args.out)
    return 0


def cmd_scaling(args) -> int:
    train_pieces = dataset.load_corpus(args.data, all_annotators=args.all_annotators)
    test_sets = dataset.load_ground_truth_sets(args.test, on_error="skip")
    kind, config = _model_config(args)
    points = experiments.scaling_experiment(
        train_pieces,
        test_sets,
        fractions=list(args.fractions),
        repeats=args.repeats,
        model_kind=args.model_kind,
        config=config,
        seed=args.seed,
    )
    fit = None
    if len({p.mean_notes for p in points}) >= 2:
        fit = experiments.ScalingFit.from_points(
            (p.mean_notes, p.mean_match_rate) for p in points
        )
    meta = {
        "command": "scaling",
        "seed": args.seed,
        "repeats": args.repeats,
        "config": kind.describe(config, args),
    }
    _write_output(experiments.format_scaling_table(points, fit, meta), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pianofinger",
        description="Train, decode and evaluate statistical piano-fingering models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a directory of fingering files")
    p.add_argument("data", help="directory of annotated fingering files")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--all-annotators", action="store_true",
                   help="train on every annotator's file, not one per piece")
    _add_model_arguments(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("estimate", help="decode fingerings for one piece")
    p.add_argument("input", help="fingering file (finger column optional)")
    p.add_argument("--model", required=True, help="model file from `train`")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="match rates of estimates vs ground truths")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--est", help="estimated fingering file, or a directory of them")
    mode.add_argument("--human", action="store_true",
                      help="leave-one-annotator-out agreement instead of --est")
    p.add_argument("--gt", nargs="+", required=True,
                   help="ground-truth files, or one dataset directory")
    p.add_argument("--format", choices=("text", "table"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="multi-annotator agreement statistics")
    p.add_argument("data", help="dataset directory with multi-annotator pieces")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tune", help="search model coefficients on a validation set")
    p.add_argument("data", help="training dataset directory")
    p.add_argument("--valid", required=True, help="validation dataset directory")
    p.add_argument("--objective", default="m_gen", choices=tuple(MEASURES))
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--all-annotators", action="store_true")
    p.add_argument("--out", default=None)
    _add_model_arguments(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("scaling", help="match rate vs training-set size")
    p.add_argument("data", help="training dataset directory")
    p.add_argument("--test", required=True, help="test dataset directory")
    p.add_argument("--fractions", type=_csv_floats, default=(0.1, 0.2, 0.5, 1.0))
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--all-annotators", action="store_true")
    p.add_argument("--out", default=None)
    _add_model_arguments(p)
    p.set_defaults(func=cmd_scaling)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    shown = set()

    def show_warning(message, *_):
        if str(message) not in shown:  # e.g. raised by every tuning candidate's fit
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = show_warning
        try:
            return args.func(args)
        except (FingeringError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
