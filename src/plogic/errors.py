"""Exception types shared across the package."""


class PlogicError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(PlogicError, ValueError):
    """An argument lies outside the domain the function accepts."""


class AtomOutOfRangeError(PlogicError):
    """A sentence references an atom outside the basic set in use."""


class TooManyAtomsError(PlogicError):
    """An operation that sweeps all valuations was given too many atoms."""


class NotTautologyError(PlogicError):
    """Proof synthesis was asked for a sentence that is not a tautology."""


class NotDerivableError(PlogicError):
    """The sentence is a tautology but lies outside the deductive closure
    of the three axiom schemata under structural modus ponens.

    Attributes carry the abstracted form and a falsifying assignment of its
    opaque-conjunction variables, which together witness underivability.
    """

    def __init__(self, message, abstracted=None, assignment=None):
        super().__init__(message)
        self.abstracted = abstracted
        self.assignment = assignment


class ProofFormatError(PlogicError):
    """A proof text file violates the line-based format."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class FormulaSyntaxError(PlogicError):
    """Formula text failed to parse; ``column`` is 1-based, and so is
    ``line``, the proof line the formula came from (None outside a proof)."""

    def __init__(self, message, column, line=None):
        text = f"{message} (column {column})"
        super().__init__(text if line is None else f"line {line}: {text}")
        self.message = message
        self.column = column
        self.line = line


class ZeroConditionError(PlogicError):
    """Conditioning sentence has probability zero."""


class DistributionError(PlogicError):
    """A distribution file is malformed."""


class NegativeMassError(DistributionError):
    pass


class SumNotOneError(DistributionError):
    pass


class DuplicateMintermError(DistributionError):
    pass


class WidthMismatchError(DistributionError):
    pass


class EmptyRangeError(PlogicError):
    """Derived integer bounds for a run-count range are empty."""


class NotCompleteError(PlogicError):
    """Member list is not a complete set of alternatives."""


class MixedMemberError(PlogicError):
    """A member is neither favorable nor unfavorable for the event."""


class UnsatisfiableMemberError(PlogicError):
    """A member of a complete set is unsatisfiable, which makes the
    equiprobability hypothesis degenerate."""


class ReciprocalOfInfinitesimalOrZeroError(PlogicError):
    """Reciprocal requires a verdict that the operand is bounded away
    from zero; the verdict was No or Unknown."""
