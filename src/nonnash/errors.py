"""Exception types raised across the library.

Every class derives directly from :class:`GameError`, so callers that only
care about "this input was bad" can catch one class.
"""


class GameError(Exception):
    """Base class for every error raised by this library."""


class InvalidGame(GameError):
    """Structurally invalid game: no players, empty strategy list,
    wrong payoff-vector length."""


class InvalidLabel(GameError):
    """Strategy label outside the allowed alphabet ``[A-Za-z0-9_-]+``."""


class DuplicateLabel(GameError):
    """The same label appears twice in one player's strategy list."""


class DuplicateCell(GameError):
    """A strategy profile was assigned payoffs more than once."""


class MissingCell(GameError):
    """The payoff table does not cover every strategy profile."""


class IndexOutOfRange(GameError):
    """Player or strategy index outside the game's ranges."""


class PayoffOutOfRange(GameError):
    """Payoff is not an integer in [-2**62, 2**62]."""


class SizeGuardExceeded(GameError):
    """Game would hold more payoff entries than the configured guard."""


class NotSymmetric(GameError):
    """Operation is defined only for symmetric games."""


class EmptySurvivorSet(GameError):
    """A surviving-strategy set has no strategies for some player."""


class DeadStrategy(GameError):
    """Strategy was already eliminated from the surviving sets."""


class BadRange(GameError):
    """Invalid numeric range (payoff bounds, strategy counts, ...)."""


class GnfSyntaxError(GameError):
    """Malformed line in a game document."""

    def __init__(self, line: int, expected: str):
        super().__init__(f"line {line}: expected {expected}")
        self.line = line
        self.expected = expected


class VersionUnsupported(GameError):
    """Document declares a format version this library does not read."""


class UnknownFormat(GameError):
    """Unrecognized rendering format name."""
