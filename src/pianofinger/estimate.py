"""Whole-piece fingering estimation with a model of either kind."""

from dataclasses import replace

from . import model_io
from .pig_io import FingerLabel, Hand, Piece, hand_positions


def estimate_piece(model, piece: Piece):
    """Decode both hands of a piece.

    Returns (signed fingers aligned with piece.notes, {hand: decode
    result}).  A chord model raises HandOverflow when a hand needs more
    than five simultaneous pitches; callers batching over a corpus should
    catch it and exclude the piece.
    """
    decode_part = model_io.KINDS[model_io.model_kind(model)].decode_part
    signed = [0] * len(piece)
    results = {}
    for hand, positions in hand_positions(piece).items():
        if not positions:
            continue
        part = replace(piece, notes=tuple(piece.notes[i] for i in positions))
        digits, results[hand] = decode_part(model, part, hand)
        for i, digit in zip(positions, digits):
            signed[i] = digit if hand is Hand.RH else -digit
    return signed, results


def annotate_piece(model, piece: Piece) -> tuple:
    """Piece with estimated finger labels; returns (piece, per-hand results)."""
    signed, results = estimate_piece(model, piece)
    labels = [FingerLabel.from_signed(v) for v in signed]
    return piece.with_fingers(labels), results
