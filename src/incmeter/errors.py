"""Exception hierarchy shared by all incmeter modules."""


class IncMeterError(Exception):
    """Base class for all errors raised by this package.

    code names the error in the CLI's JSON output, exit_status the CLI's exit status.
    """

    code = "input"
    exit_status = 1


class InputError(IncMeterError):
    """Bad input: schema, constraints, CSV data, deltas, CLI flags, arguments.

    Carries an optional (line, column) position for parser diagnostics.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            message = f"{where}: {message}"
        super().__init__(message)


class ResourceLimitError(IncMeterError):
    """A solver gave up because an explicit budget was exhausted.

    best_size / lower_bound describe the incumbent at the point of
    abandonment, so callers can report partial progress honestly.
    """

    code = "resource-limit"
    exit_status = 2

    def __init__(self, message, best_size=None, lower_bound=None):
        self.best_size = best_size
        self.lower_bound = lower_bound
        super().__init__(message)


class SolverUnavailableError(IncMeterError):
    """An optional external solver binary was requested but is not usable."""

    code = "solver-unavailable"
