"""Exception hierarchy shared across the package.

Input/configuration problems map to CLI exit code 2, numeric failures to 3.
"""


class UavLocError(Exception):
    """Base class for all package errors."""


# --- input / configuration errors (exit code 2) ---

class InvalidParam(UavLocError):
    """A scenario or config field violates its invariant."""

    def __init__(self, field, message=""):
        self.field, self.reason = field, message
        super().__init__(f"invalid parameter '{field}'" + (f": {message}" if message else ""))


class TerminalUnreachable(UavLocError):
    """Terminal point cannot be reached in N-1 steps of d_max."""


class ParseError(UavLocError):
    """Malformed scenario/config document."""


class UnknownKey(ParseError):
    """Config document contains a key outside the schema."""


class UnitError(ParseError):
    """A unit-bearing field is not a finite number."""


class SchemaError(UavLocError):
    """An input file lacks its format's layout, e.g. a log's header; a bad log row is a RowError."""


class RowError(UavLocError):
    """A log row csv cannot read or convert, or that breaks a MeasurementLog rule."""

    def __init__(self, row, message):
        self.row = row
        super().__init__(f"row {row}: {message}")


# --- numeric / geometric failures (exit code 3) ---

class DegenerateGeometry(UavLocError):
    """UAV and user coincide; delay and gradients are undefined."""


class DelayOutOfWindow(UavLocError):
    """Residual delay does not fit inside the CIR window."""


class EmptyCir(UavLocError):
    """CIR magnitude sequence is empty."""


class SingularSystem(UavLocError):
    """Damped normal equations could not be factorized."""


class SingularFim(UavLocError):
    """Fisher matrix is rank-deficient and no prior regularizer is set."""


class NotConverged(UavLocError):
    """A solve met no stopping test before its iteration budget or its
    damping ran out, where the caller treats that as a failure (`uavloc
    solve`); carries the solve's report. slam.solve_slam itself reports it
    as report.converged False and does not raise."""

    def __init__(self, message, report):
        self.report = report
        super().__init__(message)


INPUT_ERRORS = (InvalidParam, TerminalUnreachable, ParseError, SchemaError, RowError)
NUMERIC_ERRORS = (DegenerateGeometry, DelayOutOfWindow, EmptyCir, SingularSystem, SingularFim,
                  NotConverged)
