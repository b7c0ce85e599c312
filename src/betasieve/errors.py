"""Exception hierarchy for betasieve.

The CLI maps these onto exit codes: anything derived from
:class:`ValidationError` is a problem with the user's input (exit code 2),
everything else is an internal failure (exit code 1).
"""

from __future__ import annotations

__all__ = [
    "BetaSieveError",
    "ValidationError",
    "TooFewObservationsError",
    "DuplicatePosteriorError",
    "InputFormatError",
    "NumericsError",
]


class BetaSieveError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BetaSieveError):
    """Input data violates a documented constraint."""


class TooFewObservationsError(ValidationError):
    """A set needs at least four observations to be screened."""


class DuplicatePosteriorError(ValidationError):
    """Two observations reduce to the same posterior parameters."""


class InputFormatError(ValidationError):
    """A file could not be parsed as the expected table or spec format."""


class NumericsError(BetaSieveError):
    """A numerical routine failed to converge to its accuracy target."""


def _check_object(entry: object, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> list:
    """The `required` fields of JSON object `entry`, in order; any other shape raises InputFormatError at `where`."""
    if not isinstance(entry, dict):
        raise InputFormatError(f"{where}: must be an object")
    unknown = set(entry) - set(required) - set(optional)
    if unknown:
        raise InputFormatError(f"{where}: unknown fields: {', '.join(sorted(unknown))}")
    missing = [name for name in required if name not in entry]
    if missing:
        raise InputFormatError(f"{where}: missing fields: {', '.join(missing)}")
    return [entry[name] for name in required]


def _check_list(value: object, where: str) -> list:
    """`value` if it is a JSON array; anything else raises InputFormatError at `where`."""
    if not isinstance(value, list):
        raise InputFormatError(f"{where}: must be an array")
    return value
