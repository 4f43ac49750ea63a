"""The benchmark's workloads: inputs made at set-up and the CLI workflow.

Every workload runs one shared pipeline through ``pianofinger.cli.main``
on its own inputs (``train`` both model kinds, ``estimate`` with each,
``evaluate`` the estimates and the annotators, ``analyze``), so every
end-to-end metric is measured on every workload; they differ in what
dominates the time:

* ``corpus``: a PIG-shaped corpus of short two-hand pieces.  Parsing,
  training counts, model files, short-piece decoding, the match rates
  and the agreement statistics all do real work.
* ``long``: single-hand pieces on a doubling length ladder in a
  tie-heavy and a tie-free texture, decoded with note HMM orders 1-3 and
  the chord HMM trained on ``data/sample_corpus``.  Decoding dominates
  and its cost per note grows with length.
* ``tune``: ``tune`` for both model kinds and ``scaling`` in front of
  the pipeline.  Every candidate and repeat retrains from raw notes and
  decodes short pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

LADDER = (750, 1500, 3000)
ORDERS = (1, 2, 3)

WHY = {
    "corpus": "PIG-shaped corpus of short two-hand pieces: parsing, training counts, "
    "model files, short decodes, match rates and agreement all do real work",
    "long": "0.75k-3k-note single-hand pieces, tie-heavy scales and tie-free walks, "
    "note HMM orders 1-3 and the chord HMM: decode cost per note grows with length",
    "tune": "coefficient search for both model kinds and the training-size "
    "experiment: every candidate and repeat retrains from raw notes",
}


@dataclass(frozen=True)
class Op:
    """One CLI call: the step it belongs to, its argv, its work units and
    how many times a pass makes it (each is one timing sample)."""

    step: str
    argv: tuple
    units: float = 0.0
    repeat: int = 1


@dataclass(frozen=True)
class Estimate:
    """One estimate output and what produced it."""

    kind: str          # "note" or "chord"
    model: Path
    source: Path
    out: Path


@dataclass
class Workload:
    """A workload's generated inputs and the CLI calls of one pass."""

    name: str
    seed: int
    root: Path                                      # checkout root
    ops: list = field(default_factory=list)
    estimates: list = field(default_factory=list)
    reports: list = field(default_factory=list)     # evaluate --format table outputs
    train_dir: Path | None = None
    gt_dir: Path | None = None
    n_inputs: dict = field(default_factory=dict)    # sizes for the run record

    def rng(self):
        return np.random.default_rng([self.seed, sum(map(ord, self.name))])

    def _estimate(self, kind, model, src, out, notes) -> None:
        self.ops.append(Op(
            f"estimate.{kind}",
            ("estimate", str(src), "--model", str(model), "--out", str(out)),
            notes,
        ))
        self.estimates.append(Estimate(kind, model, src, out))

    def pipeline(self, work: Path, train_dir: Path, train_notes: int,
                 gt_dir: Path, gt_pieces: list, note_flags: dict,
                 extra_inputs=()) -> None:
        """train -> estimate -> evaluate -> analyze.

        ``note_flags`` maps a note-model label to its ``train`` flags; the
        first label's estimates are evaluated.  ``extra_inputs`` are
        (piece, path) pairs without ground truth that the note models
        also estimate.
        """
        # a step of one short call gets three timing samples per pass
        for label, flags in note_flags.items():
            self.ops.append(Op(
                "train.note",
                ("train", str(train_dir), "--out", str(work / f"model-{label}.json"), *flags),
                train_notes,
                repeat=3 if len(note_flags) == 1 else 1,
            ))
        self.ops.append(Op(
            "train.chord",
            ("train", str(train_dir), "--model-kind", "chord-hmm",
             "--out", str(work / "model-chord.json")),
            train_notes,
            repeat=3,
        ))
        sources = [(p, gt_dir / f"{p.piece_id}-1_fingering.txt") for p in gt_pieces]
        for label in list(note_flags) + ["chord"]:
            groups = [("est", sources)]
            if label != "chord" and extra_inputs:
                groups.append(("extra", extra_inputs))
            for prefix, pairs in groups:
                out_dir = work / f"{prefix}-{label}"
                out_dir.mkdir(exist_ok=True)
                for piece, src in pairs:
                    self._estimate(
                        "chord" if label == "chord" else "note",
                        work / f"model-{label}.json",
                        src,
                        out_dir / f"{piece.piece_id}-est_fingering.txt",
                        piece.n_notes,
                    )

        note_gt = sum(p.n_notes * len(p.fingerings) for p in gt_pieces)
        for label in (next(iter(note_flags)), "chord"):
            report = work / f"eval-{label}.tsv"
            self.ops.append(Op(
                "evaluate",
                ("evaluate", "--est", str(work / f"est-{label}"), "--gt", str(gt_dir),
                 "--format", "table", "--out", str(report)),
                note_gt,
            ))
            self.reports.append(report)
        report = work / "eval-human.tsv"
        self.ops.append(Op(
            "evaluate",
            ("evaluate", "--human", "--gt", str(gt_dir), "--format", "table",
             "--out", str(report)),
            sum(p.n_notes * len(p.fingerings) * (len(p.fingerings) - 1) for p in gt_pieces),
        ))
        self.reports.append(report)
        self.ops.append(Op(
            "analyze", ("analyze", str(gt_dir), "--out", str(work / "analyze.tsv")), note_gt,
            repeat=3,
        ))
        self.train_dir, self.gt_dir = train_dir, gt_dir


# --- the three workloads -------------------------------------------------

CORPUS_TRAIN, CORPUS_TEST, CORPUS_ANNOTATORS, CORPUS_NOTES = 36, 9, 6, (30, 180)
TUNE_TRAIN, TUNE_VALID, TUNE_ANNOTATORS, TUNE_NOTES = 60, 10, 4, (30, 100)
TUNE_BUDGET = {"note": 4, "chord": 3}
SCALING_FRACTIONS, SCALING_REPEATS = (0.25, 0.5, 1.0), 2


def build_corpus(wl: Workload, work: Path) -> None:
    rng = wl.rng()
    train = gen.mixed_pieces(rng, "t", CORPUS_TRAIN, CORPUS_NOTES, 1)
    test = gen.mixed_pieces(rng, "g", CORPUS_TEST, CORPUS_NOTES, CORPUS_ANNOTATORS)
    train_paths = gen.write_set(work / "train", train)
    gen.write_set(work / "test", test)
    wl.pipeline(
        work, work / "train", sum(p.n_notes for p in train), work / "test", test,
        {"note": ()}, extra_inputs=list(zip(train, train_paths)),
    )
    wl.n_inputs = {
        "train_pieces": len(train), "test_pieces": len(test),
        "annotators": CORPUS_ANNOTATORS,
        "train_notes": sum(p.n_notes for p in train),
        "test_notes": sum(p.n_notes for p in test),
    }


def build_long(wl: Workload, work: Path) -> None:
    pieces = gen.ladder_pieces(wl.rng(), LADDER)
    gen.write_set(work / "ladder", pieces)
    sample = wl.root / "data" / "sample_corpus"
    sample_notes = sum(
        1 for path in sample.glob("*-1_fingering.txt")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("//")
    )
    wl.pipeline(
        work, sample, sample_notes, work / "ladder", pieces,
        {f"o{k}": ("--order", str(k)) for k in (2, 1, 3)},
    )
    wl.n_inputs = {"ladder": list(LADDER), "textures": ["scale", "walk"],
                   "pieces": len(pieces), "notes": sum(p.n_notes for p in pieces)}


def build_tune(wl: Workload, work: Path) -> None:
    rng = wl.rng()
    train = gen.mixed_pieces(rng, "t", TUNE_TRAIN, TUNE_NOTES, 1)
    valid = gen.mixed_pieces(rng, "v", TUNE_VALID, TUNE_NOTES, TUNE_ANNOTATORS)
    gen.write_set(work / "train", train)
    gen.write_set(work / "valid", valid)
    train_dir, valid_dir = work / "train", work / "valid"
    for kind, flag in (("note", "note-hmm"), ("chord", "chord-hmm")):
        wl.ops.append(Op(
            f"tune.{kind}",
            ("tune", str(train_dir), "--valid", str(valid_dir), "--model-kind", flag,
             "--budget", str(TUNE_BUDGET[kind]), "--seed", str(wl.seed),
             "--out", str(work / f"tune-{kind}.tsv")),
            TUNE_BUDGET[kind],
        ))
    repeats = sum(1 if f == 1.0 else SCALING_REPEATS for f in SCALING_FRACTIONS)
    wl.ops.append(Op(
        "scaling",
        ("scaling", str(train_dir), "--test", str(valid_dir),
         "--fractions", ",".join(map(str, SCALING_FRACTIONS)),
         "--repeats", str(SCALING_REPEATS), "--seed", str(wl.seed),
         "--out", str(work / "scaling.tsv")),
        repeats,
    ))
    wl.pipeline(work, train_dir, sum(p.n_notes for p in train), valid_dir, valid,
                {"note": ()})
    wl.n_inputs = {
        "train_pieces": len(train), "valid_pieces": len(valid),
        "annotators": TUNE_ANNOTATORS, "tune_budget": TUNE_BUDGET,
        "scaling_repeats": repeats,
    }


BUILDERS = {"corpus": build_corpus, "long": build_long, "tune": build_tune}


def make(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Generate the workload's inputs under ``work`` and plan one pass."""
    wl = Workload(name=name, seed=seed, root=root)
    BUILDERS[name](wl, work)
    return wl
