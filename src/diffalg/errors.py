"""Error types shared across the library, the CLI exit-code mapping, the
reader of the budget environment variables and the one equality rule of
the library's value records, `Record` and `FrozenRecord`."""

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


class Record:
    """A value record: equal to a record of its own class whose fields,
    named in `_fields`, are equal, and unequal to anything else, so a
    tuple of the same values never compares equal.  Attributes not named
    in `_fields` take no part.  Not hashable."""

    __slots__ = ()
    __hash__ = None

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()


class FrozenRecord(Record):
    """A Record whose fields never change, hashed by their values: its
    __init__ sets them through object.__setattr__."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, *args):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__


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
