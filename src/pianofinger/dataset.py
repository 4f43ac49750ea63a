"""Locating and loading fingering files from dataset directories.

Two layouts are recognised:

* nested: one directory per piece, each containing one file per
  annotator (named by annotator id, e.g. ``1.txt`` or
  ``<piece>-<annot>_fingering.txt``);
* flat: files named ``<piece>-<annotator>_fingering.txt`` in one
  directory, the public PIG dataset convention; any other ``*.txt`` is
  treated as a single-annotator piece named by its stem.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from .errors import EmptyCorpus, FingeringError, MalformedLine
from .pig_io import GroundTruthSet, Piece, parse_fingering_file

_PIG_NAME = re.compile(r"^(?P<piece>.+?)-(?P<annot>[^-_]+)_fingering$")


def discover(directory) -> dict:
    """Map piece id -> {annotator id -> path}, deterministically ordered."""
    root = Path(directory)
    if not root.is_dir():
        raise EmptyCorpus(f"{root} is not a directory")
    found: dict = {}
    subdirs = sorted(d for d in root.iterdir() if d.is_dir())
    files = sorted(root.glob("*.txt"))
    if subdirs and not files:
        for piece_dir in subdirs:
            entries = {}
            for path in sorted(piece_dir.glob("*.txt")):
                m = _PIG_NAME.match(path.stem)
                annot = m.group("annot") if m else path.stem
                entries[annot] = path
            if entries:
                found[piece_dir.name] = entries
    else:
        for path in files:
            m = _PIG_NAME.match(path.stem)
            if m:
                piece, annot = m.group("piece"), m.group("annot")
            else:
                piece, annot = path.stem, "0"
            found.setdefault(piece, {})[annot] = path
    if not found:
        raise EmptyCorpus(f"no fingering files under {root}")
    return {
        piece: dict(sorted(entries.items())) for piece, entries in sorted(found.items())
    }


def load_piece(path, piece_id: str = "", annotator_id: str = "") -> Piece:
    path = Path(path)
    if not piece_id:
        m = _PIG_NAME.match(path.stem)
        piece_id = m.group("piece") if m else path.stem
        annotator_id = annotator_id or (m.group("annot") if m else "0")
    try:
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:  # read_text decodes the whole file in one call
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise MalformedLine(line, "not UTF-8 text") from None
        return parse_fingering_file(text, piece_id=piece_id, annotator_id=annotator_id)
    except FingeringError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_corpus(directory, all_annotators: bool = False) -> list:
    """All pieces under a dataset directory.

    By default one fingering per piece is loaded (the first annotator
    id); ``all_annotators`` loads every file as its own piece.
    """
    pieces = []
    for piece_id, entries in discover(directory).items():
        for annot, path in entries.items():
            pieces.append(load_piece(path, piece_id=piece_id, annotator_id=annot))
            if not all_annotators:
                break
    return pieces


def load_ground_truth_sets(
    directory, min_annotators: int = 1, on_error: str = "raise"
) -> list:
    """Multi-annotator ground-truth sets under a dataset directory.

    ``on_error="skip"`` drops pieces whose files fail to parse or align,
    with a note on stderr.
    """
    sets = []
    for piece_id, entries in discover(directory).items():
        if len(entries) < min_annotators:
            continue
        try:
            pieces = [
                load_piece(path, piece_id=piece_id, annotator_id=annot)
                for annot, path in entries.items()
            ]
            sets.append(GroundTruthSet.from_pieces(pieces))
        except FingeringError as exc:
            if on_error != "skip":
                raise
            print(f"skipping piece {piece_id}: {exc}", file=sys.stderr)
    if not sets:
        raise EmptyCorpus(f"no usable pieces under {directory}")
    return sets
