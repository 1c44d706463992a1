"""Exception types shared across the library."""


class FieldMismatchError(ValueError):
    """Two values from incompatible fields were combined."""


class ExtensionOverflowError(ArithmeticError):
    """A computation would require a field extension beyond the allowed tower."""


class DigitLimitError(ValueError):
    """A number is too long for Python's int-to-text digit limit."""


class DegenerateInputError(ValueError):
    """Geometric input is degenerate (coincident points, singular conic, ...)."""


class NotOnConicError(ValueError):
    """A point expected to lie on a conic does not."""


class TheoremViolation(AssertionError):
    """A proved statement failed: a bug canary, not an input error."""
