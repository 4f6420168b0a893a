"""Exception types shared across the package."""

from __future__ import annotations


class UnsupportedParameterError(ValueError):
    """A parameter is outside the domain a formula is derived for.

    Typical case: a generating-function construction that only exists for
    integer q being handed a proper fraction.
    """


class NonTerminatingSeriesError(ValueError):
    """No numerator parameter truncates the hypergeometric series."""


class NotAPowerSeriesError(ValueError):
    """The denominator constant coefficient is zero, so no Taylor expansion at 0."""


class NotALinearPowerError(ValueError):
    """A denominator is not a constant times a power of one linear factor,
    the one shape RationalGF holds (Fibonacci's 1 - z - z^2 is not)."""


class NoRationalFitError(ValueError):
    """The fitted rational function does not reproduce every term of the series."""


class NeedsMoreTermsError(ValueError):
    """The series prefix is too short to fix its shortest recurrence.

    N terms whose shortest recurrence has order L fix it only when
    N >= 2L; a fit also wants one spare term, so N >= 2L + 1.
    """


class BFileParseError(ValueError):
    """A b-file line is not `index value`.

    refetch_helps is False when the file is well formed and a fresh copy
    would fail the same way: a term past the int conversion limit.
    """

    def __init__(self, message: str, line_number: int, refetch_helps: bool = True) -> None:
        super().__init__(message)
        self.line_number = line_number
        self.refetch_helps = refetch_helps


class FixtureMissingError(FileNotFoundError):
    """Offline lookup found neither a cached b-file nor a bundled fixture."""


class TransportError(OSError):
    """A network fetch failed; never silently treated as success."""
