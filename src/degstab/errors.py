"""Exception types shared across the package.

The CLI maps these onto exit codes: bad parameters and malformed input are
usage errors (exit 2), blown enumeration budgets are resource errors
(exit 3).
"""


class DegstabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(DegstabError, ValueError):
    """A parameter is outside the documented range."""


class ParseError(DegstabError, ValueError):
    """Malformed serialized graph text.

    ``offset`` is the byte offset into the input at which parsing failed.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnsupportedError(DegstabError, ValueError):
    """A request outside the supported envelope (e.g. graph6 order bound)."""


class UndefinedThresholdError(DegstabError, ValueError):
    """The stability threshold is only defined for chromatic number >= 3."""


class ResourceBudgetError(DegstabError, RuntimeError):
    """An exhaustive enumeration would exceed its budget."""
