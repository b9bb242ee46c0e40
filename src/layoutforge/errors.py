"""Exception types shared across the pipeline.

Everything raised on purpose derives from LayoutForgeError so the CLI can
map user/input problems onto exit code 2 in one place.
"""

from __future__ import annotations


class LayoutForgeError(Exception):
    """Base class for all errors this package raises deliberately."""


class ConfigError(LayoutForgeError):
    """A configuration file or value is contradictory or unparseable."""


class InvalidEncoding(LayoutForgeError):
    """Input bytes are not valid UTF-8."""

    def __init__(self, position: int, path=None):
        where = f"{path}: " if path is not None else ""
        super().__init__(f"{where}invalid UTF-8 at byte offset {position}")
        self.position = position
        self.path = path


class EmptyCorpus(LayoutForgeError):
    """An operation needs at least one letter but the corpus has none."""


class CorpusChanged(LayoutForgeError):
    """A corpus read again gave other letters than it gave the first time."""


class TooFewLetters(LayoutForgeError):
    """Hand seeding needs at least four distinct ranked letters."""


class AlreadyAssigned(LayoutForgeError):
    """A letter was offered to the partition twice."""


class CapacityExceeded(LayoutForgeError):
    """One hand holds more letters than its side of the keyboard has slots."""

    def __init__(self, hand: str, overflow: int):
        super().__init__(f"{hand} hand overflows its slots by {overflow} letter(s)")
        self.hand = hand
        self.overflow = overflow


class MalformedLayout(LayoutForgeError):
    """A layout file cannot be parsed at all, or a layout name is no file name."""


class InvariantViolation(LayoutForgeError):
    """A layout file parses but breaks a structural rule."""


class MalformedInput(LayoutForgeError):
    """A table or report file cannot be read back."""


class EmptyInput(LayoutForgeError):
    """A comparison was requested over zero reports."""
