"""Exception types raised by the fingering library."""


class FingeringError(Exception):
    """Base class for all library errors."""


# --- fingering-file parsing ---

class MalformedLine(FingeringError):
    """A data line has the wrong field count or an unparsable value."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidPitchToken(FingeringError):
    """Pitch token is not a spelled pitch or MIDI number on the 88-key range."""


class InvalidFinger(FingeringError):
    """Finger field is zero, out of 1..5, or an ill-formed substitution pair."""


class NonMonotoneOnsets(FingeringError):
    """Note onsets decrease somewhere in file order."""


class MissingFinger(FingeringError):
    """An operation that needs finger labels was given an unannotated note."""


# --- corpus / alignment ---

class LengthMismatch(FingeringError):
    """Aligned sequences have different lengths."""


class AlignmentMismatch(FingeringError):
    """Aligned sequences disagree on the underlying note content."""


class InsufficientAnnotators(FingeringError):
    """An agreement statistic needs more annotators than were given."""


class EmptyCorpus(FingeringError):
    """Training or tuning was given no data."""


class RepeatedNoteId(FingeringError):
    """Two notes of one hand part share a note id."""


class EmptyPiece(FingeringError):
    """Decoding was asked for an empty note sequence."""


class EmptyInput(FingeringError):
    """Chord decoding was given no chords."""


# --- models ---

class OutOfRange(FingeringError):
    """MIDI number outside the 88-key range 21..108."""


class NoFeasiblePath(FingeringError):
    """Every candidate fingering has probability zero."""


class HandOverflow(FingeringError):
    """A chord would require more than five simultaneous pitches in one hand."""


class MalformedModel(FingeringError):
    """A model document lacks a required key or holds a value of the wrong type."""


# --- analysis ---

class OutOfDomain(FingeringError):
    """Argument outside the domain of an analytic formula."""


class DegenerateFit(FingeringError):
    """Too few (or collinear) points to determine the fit parameters."""
