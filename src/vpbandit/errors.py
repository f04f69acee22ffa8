"""Exception types shared across the library."""


class VPBanditError(Exception):
    """Base class for all library errors."""


class InvalidTargetError(VPBanditError):
    """Cap target outside (0, 1)."""


class NumericPathologyError(VPBanditError):
    """No consistent cap threshold exists (broken precondition or NaN weights)."""


class InvalidPlayCountError(VPBanditError):
    """Requested number of plays outside [1, N-1]."""


class InvalidMarginalsError(VPBanditError):
    """Marginal vector does not sum to the play count (or entries out of [0, 1])."""


class InvalidSpecError(VPBanditError):
    """Scaling spec with inconsistent bounds."""


class InvalidParameterError(VPBanditError):
    """Scalar parameter outside its domain."""


class InvalidConfigError(VPBanditError):
    """Experiment or generator configuration is invalid."""


class SchemaError(VPBanditError):
    """Input file is missing a required column."""


class InputEncodingError(VPBanditError):
    """Input file is not text in the expected encoding."""


class RowParseError(VPBanditError):
    """A data row could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class EmptyInputError(VPBanditError):
    """Input file contained no data rows."""


class ShapeError(VPBanditError):
    """Inconsistent array dimensions."""
