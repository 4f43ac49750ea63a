"""Whole-piece fingering estimation with a model of either kind."""

from dataclasses import replace

from . import model_io
from .errors import FingeringError
from .pig_io import FingerLabel, Hand, Piece, hand_positions


def estimate_pieces(model, pieces) -> list:
    """Per piece, in order: (signed fingers aligned with piece.notes, {hand:
    decode result}), or the FingeringError its first failing hand raised.
    Every hand part of every piece goes to one ``decode_parts`` call, so a
    note model decodes them in lock step.  A chord model raises
    HandOverflow for a hand of more than five simultaneous pitches;
    callers batching over a corpus exclude that piece."""
    out, hands, parts = [], [], []
    for i, piece in enumerate(pieces):
        out.append(([0] * len(piece), {}))
        for hand, positions in hand_positions(piece).items():
            if positions:
                hands.append((i, hand, positions))
                parts.append((replace(piece, notes=tuple(piece.notes[j] for j in positions)), hand))
    decode_parts = model_io.KINDS[model_io.model_kind(model)].decode_parts
    for (i, hand, positions), decoded in zip(hands, decode_parts(model, parts)):
        if isinstance(out[i], FingeringError):
            continue  # an earlier hand of the piece failed
        if isinstance(decoded, FingeringError):
            out[i] = decoded
            continue
        (signed, results), (digits, results[hand]) = out[i], decoded
        for j, digit in zip(positions, digits):
            signed[j] = digit if hand is Hand.RH else -digit
    return out


def estimate_piece(model, piece: Piece):
    """``estimate_pieces`` of one piece, raising its error: (signed fingers
    aligned with piece.notes, {hand: decode result}), both hands decoded
    in one call."""
    (estimate,) = estimate_pieces(model, [piece])
    if isinstance(estimate, FingeringError):
        raise estimate
    return estimate


def annotate_piece(model, piece: Piece) -> tuple:
    """Piece with estimated finger labels; returns (piece, per-hand results)."""
    signed, results = estimate_piece(model, piece)
    labels = [FingerLabel.from_signed(v) for v in signed]
    return piece.with_fingers(labels), results
