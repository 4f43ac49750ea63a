"""Whole-piece fingering estimation with a model of either kind."""

from dataclasses import replace

import numpy as np

from . import model_io
from .errors import FingeringError
from .pig_io import Hand, Piece, hand_positions


def estimate_pieces(model, pieces) -> list:
    """Per piece, in order: (signed fingers, a list aligned with the
    piece's columns, {hand: decode result}), or the FingeringError its
    first failing hand raised.  Every hand part of every piece goes to one
    ``decode_parts`` call, so a model of either kind decodes them in lock
    step.  A chord model raises HandOverflow for a hand of more than five
    simultaneous pitches; callers batching over a corpus exclude that piece."""
    out, hands, parts = [], [], []
    for i, piece in enumerate(pieces):
        out.append((np.zeros(len(piece), dtype=np.int64), {}))
        for hand, positions in hand_positions(piece).items():
            if positions.size:
                hands.append((i, hand, positions))
                parts.append((piece.take(positions), hand))
    decode_parts = model_io.KINDS[model_io.model_kind(model)].decode_parts
    for (i, hand, positions), decoded in zip(hands, decode_parts(model, parts)):
        if isinstance(out[i], FingeringError):
            continue  # an earlier hand of the piece failed
        if isinstance(decoded, FingeringError):
            out[i] = decoded
            continue
        (signed, results), (digits, results[hand]) = out[i], decoded
        signed[positions] = np.multiply(digits, 1 if hand is Hand.RH else -1)
    return [e if isinstance(e, FingeringError) else (e[0].tolist(), e[1]) for e in out]


def estimate_piece(model, piece: Piece):
    """``estimate_pieces`` of one piece, raising its error: (signed fingers
    aligned with the piece's columns, {hand: decode result}), both hands
    decoded in one call."""
    (estimate,) = estimate_pieces(model, [piece])
    if isinstance(estimate, FingeringError):
        raise estimate
    return estimate


def annotate_piece(model, piece: Piece) -> tuple:
    """Piece with the estimated finger column; returns (piece, per-hand results)."""
    signed, results = estimate_piece(model, piece)
    return replace(piece, signed_fingers=signed), results
