"""Exception hierarchy shared across the package.

Each class's ``exit_code`` is the CLI's exit status for it: 1 for a
configuration error (and any other ``BusFactorError``), 2 for bad input
data, 3 for an unreadable repository.
"""


class BusFactorError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(BusFactorError):
    """Invalid configuration or parameter value."""


class InputDataError(BusFactorError):
    """Malformed or inconsistent input data (event logs, review/meeting files)."""

    exit_code = 2


class ClockSkewError(InputDataError):
    """An event is timestamped after the analysis instant."""


class RepositoryError(BusFactorError):
    """The repository or branch cannot be read."""

    exit_code = 3
