"""Exception hierarchy shared across the package, and the one reader of
input files, which turns an ``OSError`` into an InputError.

Each class carries the exit code the CLI returns for it (``exit_code``),
which it inherits from the nearest class in this table; the CLI prints
one ``error: `` line to stderr. An ``OSError`` outside these classes exits 1.

    CyberRiskError         2
    InputError             1
    NumericFault           3
    InsufficientDataError  4
"""


class CyberRiskError(Exception):
    """Base class for all package errors."""

    exit_code = 2
    prefix = ""  # printed between "error: " and the message


class DomainError(CyberRiskError, ValueError):
    """A parameter is outside its mathematical domain."""


class ConfigError(CyberRiskError, ValueError):
    """Configuration file or simulation spec is invalid."""


class InputError(CyberRiskError):
    """An input file cannot be read or decoded, or an output file cannot be written."""

    exit_code = 1


class FormatError(CyberRiskError, ValueError):
    """An input file decodes but violates its schema badly (>50% rejects)."""


class InsufficientDataError(CyberRiskError, ValueError):
    """Too few records to fit the requested estimator."""

    exit_code = 4


class NumericFault(CyberRiskError, ArithmeticError):
    """A nonfinite value was produced during simulation.

    Carries the risk level and repetition index where it occurred so the
    run can be reproduced.
    """

    exit_code = 3
    prefix = "numeric fault: "

    def __init__(self, message: str, level: str | None = None, repetition: int | None = None):
        super().__init__(message)
        self.level = level
        self.repetition = repetition


class UndefinedMarginError(DomainError):
    """Risk margin ratio requested against a zero expected loss."""


def read_input(path: str, what: str) -> bytes:
    """The bytes of the file at ``path``. An ``OSError`` becomes an
    InputError reading "cannot read <what> file <path>: ..."."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
