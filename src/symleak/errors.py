"""Exception types shared across the package."""

from __future__ import annotations


class SymleakError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SymleakError, ValueError):
    """A setting is out of range: a cache shape, a bound or a deadline.
    Bad input like a parse error, and still a ``ValueError`` for callers
    that catch one."""


class ParseError(SymleakError):
    """Source program is syntactically or semantically malformed."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}: {message}" if col is None else f"line {line}, col {col}: {message}"
        super().__init__(message)


class UnrollError(SymleakError):
    """A loop cannot be unrolled within the configured bound."""


class AdversaryError(SymleakError):
    """Adversary synthesis was requested for an unsuitable program."""


class ReplayError(SymleakError):
    """A concrete schedule does not match the program's behaviour."""


class BruteForceCapError(SymleakError):
    """Exhaustive enumeration would exceed the configured cap.  ``leaks``
    holds the (site, schedule) pairs found before it tripped."""

    def __init__(self, message: str, leaks=()) -> None:
        super().__init__(message)
        self.leaks = set(leaks)


class SolverProcessError(SymleakError):
    """An external solver process failed or produced unusable output."""
