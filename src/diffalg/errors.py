"""Error types shared across the library, the CLI exit-code mapping and
the reader of the budget environment variables."""

import os


class DiffAlgError(Exception):
    """Base class for all library errors."""


class ParseError(DiffAlgError):
    """Syntax or semantic error while parsing text input.

    Carries the character position of the offending token when known.
    """

    def __init__(self, message, pos=None):
        if pos is not None:
            message = "%s (at position %d)" % (message, pos)
        super().__init__(message)
        self.pos = pos


class ContextError(DiffAlgError):
    """Operands built over incompatible contexts, or variables out of range."""


class ResourceBudgetError(DiffAlgError):
    """A computation would exceed the configured resource budget.

    Raised instead of silently truncating big-integer or coordinate data.
    """


def _size_text(value):
    """value in decimal, or as ~2^k once it has over 64 bits: a budget
    message must never render an astronomical integer in decimal."""
    bits = value.bit_length()
    return "~2^%d" % bits if bits > 64 else str(value)


class FileFormatError(ParseError):
    """Malformed ideal/kernel file."""


def env_budget(name, default):
    """The budget set by the environment variable `name`, or default when
    it is unset.  A value that is not a non-negative integer is a usage
    error, so it never reads as a verdict or a budget overrun."""
    text = os.environ.get(name, str(default))
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ContextError("%s must be a non-negative integer, not %r"
                           % (name, text))
    return value
