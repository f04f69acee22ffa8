"""Exception types shared across the library: one per failure a caller can act on."""


class VPBanditError(Exception):
    """Base class for all library errors; the CLI's one catch."""


class InvalidConfigError(VPBanditError):
    """A value outside its domain: a config key, argument, spec or array shape."""


class InputFileError(VPBanditError):
    """A file the program reads is wrong: a missing column, not UTF-8, or no data rows."""


class RowParseError(InputFileError):
    """A data row could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class NumericPathologyError(VPBanditError):
    """An internal invariant failed: no consistent cap size, or a draw of too few arms."""
