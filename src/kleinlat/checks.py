"""Checks on computed results that ``python -O`` does not strip.

A failed check raises VerificationError.  It subclasses AssertionError, so
code that catches AssertionError, such as the CLI mapping it to exit status
1, treats both alike.
"""


class VerificationError(AssertionError):
    """A computed object lacks a property that the mathematics guarantees."""


def ensure(condition, message: str) -> None:
    """Raise VerificationError(message) unless condition holds."""
    if not condition:
        raise VerificationError(message)
