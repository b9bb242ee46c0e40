"""Text ingestion: UTF-8 decoding, NFC normalization, letter-stream tokenization.

A corpus is reduced to one string of letters in which each word boundary
is a single separator character. What counts as a letter is driven
entirely by an AlphabetConfig; every other code point becomes a boundary,
and consecutive boundaries collapse into one. The letter unit is a single
code point, so dependent vowel signs (matras) and the virama are letters
in their own right.
"""

from __future__ import annotations

import functools
import itertools
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator

from .atomic import OptionalField, check_shape, read_json_object
from .errors import ConfigError, InvalidEncoding

# Bangla defaults: the whole Bengali block minus its digits. The danda
# (U+0964) lives in the Devanagari block and is therefore a boundary unless
# explicitly included.
BANGLA_BLOCK = (0x0980, 0x09FF)
BANGLA_DIGITS = frozenset(chr(cp) for cp in range(0x09E6, 0x09F0))

# '#' starts a comment line of an n-gram table, and TAB, LF and CR split
# its rows, so no table could carry these letters.
NOT_TABLE_LETTERS = frozenset("#\t\n\r")

ALPHABET_SHAPE = {"ranges": OptionalField([(str, str)]), "include": OptionalField([str]),
                  "exclude": OptionalField([str])}


def parse_codepoint(text: str) -> str:
    """Accept either a literal single character or a "U+XXXX" spelling."""
    if text.upper().startswith("U+"):
        try:
            return chr(int(text[2:], 16))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad code point {text!r}") from exc
    if len(text) != 1:
        raise ConfigError(f"expected one character or U+XXXX, got {text!r}")
    return text


def format_codepoint(ch: str) -> str:
    return f"U+{ord(ch):04X}"


@dataclass(frozen=True)
class AlphabetConfig:
    """Defines the letter set for tokenization.

    The resolved alphabet is (union of ranges) | include - exclude. Code
    points outside it are word boundaries. ``include`` and ``exclude`` must
    not overlap; excluding something a range covers is the normal way to
    carve out digits or (optionally) the virama.
    """

    ranges: tuple[tuple[int, int], ...] = (BANGLA_BLOCK,)
    include: frozenset[str] = frozenset()
    exclude: frozenset[str] = BANGLA_DIGITS

    def __post_init__(self):
        for lo, hi in self.ranges:
            if lo > hi:
                raise ConfigError(f"empty code point range U+{lo:04X}..U+{hi:04X}")
        clash = self.include & self.exclude
        if clash:
            listed = ", ".join(sorted(format_codepoint(c) for c in clash))
            raise ConfigError(f"include and exclude overlap: {listed}")
        untabled = sorted(format_codepoint(c) for c in NOT_TABLE_LETTERS - self.exclude
                          if c in self.include or any(lo <= ord(c) <= hi for lo, hi in self.ranges))
        if untabled:
            raise ConfigError(f"n-gram tables cannot hold the letters {', '.join(untabled)};"
                              " exclude them from the alphabet")

    def resolve(self) -> frozenset[str]:
        """The concrete letter set this config denotes."""
        letters = {chr(cp) for lo, hi in self.ranges for cp in range(lo, hi + 1)}
        letters |= self.include
        letters -= self.exclude
        return frozenset(letters)

    @classmethod
    def from_dict(cls, data: dict) -> "AlphabetConfig":
        """The config an alphabet document describes; its shape is checked here."""
        check_shape(data, ConfigError, "alphabet", ALPHABET_SHAPE)
        ranges = tuple((ord(parse_codepoint(lo)), ord(parse_codepoint(hi)))
                       for lo, hi in data.get("ranges", []))
        include = frozenset(map(parse_codepoint, data.get("include", [])))
        exclude = frozenset(map(parse_codepoint, data.get("exclude", [])))
        return cls(ranges=ranges, include=include, exclude=exclude)

    def to_dict(self) -> dict:
        return {
            "ranges": [[f"U+{lo:04X}", f"U+{hi:04X}"] for lo, hi in self.ranges],
            "include": sorted(format_codepoint(c) for c in self.include),
            "exclude": sorted(format_codepoint(c) for c in self.exclude),
        }

    @classmethod
    def load(cls, path: str | Path) -> "AlphabetConfig":
        return read_json_object(path, ConfigError, "alphabet", ALPHABET_SHAPE, cls.from_dict)


def choose_separator(letters: AbstractSet[str]) -> str:
    """The character that stands for a boundary in a stream's text.

    A space, unless the letter set claims it; then LF, which no alphabet
    can hold (see ``NOT_TABLE_LETTERS``). Neither is a backslash, so the
    separator stands as its own replacement template in ``re.sub``.
    """
    return "\n" if " " in letters else " "


@dataclass(frozen=True)
class LetterStream:
    """Ordered letters with collapsed word boundaries, held as one string.

    ``text`` keeps the letters in order and writes each boundary as one
    ``sep`` character, including a boundary at either end; no two ``sep``
    characters are ever adjacent, and ``sep`` is never a letter.
    ``source_bytes`` is the UTF-8 length of the text the stream came from.
    """

    text: str = ""
    sep: str = " "
    source_bytes: int = 0

    @property
    def letter_count(self) -> int:
        return len(self.text) - self.text.count(self.sep)

    def runs(self) -> Iterator[str]:
        """Yield each maximal run of letters between boundaries."""
        return filter(None, self.text.split(self.sep))

    def letters(self) -> str:
        return self.text.replace(self.sep, "")


def normalize_text(raw: bytes) -> str:
    """Decode UTF-8 strictly and normalize to NFC."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(exc.start) from exc
    return unicodedata.normalize("NFC", text)


@functools.lru_cache(maxsize=16)
def _scanner(config: AlphabetConfig) -> tuple[re.Pattern, str]:
    """A pattern matching each maximal run of non-letters, and the separator."""
    alphabet = config.resolve()
    sep = choose_separator(alphabet)
    spans = []  # one class item per run of consecutive code points
    for _, group in itertools.groupby(enumerate(sorted(map(ord, alphabet))),
                                      lambda pair: pair[1] - pair[0]):
        cps = [cp for _, cp in group]
        lo, hi = re.escape(chr(cps[0])), re.escape(chr(cps[-1]))
        spans.append(lo if lo == hi else f"{lo}-{hi}")
    pattern = f"[^{''.join(spans)}]+" if spans else r"[\s\S]+"
    return re.compile(pattern), sep


def tokenize(text: str, config: AlphabetConfig | None = None) -> LetterStream:
    """Split normalized text into a LetterStream under the given alphabet.

    Unknown characters never fail; any maximal run of non-alphabet code
    points becomes one boundary.
    """
    boundary, sep = _scanner(config if config is not None else AlphabetConfig())
    return LetterStream(text=boundary.sub(sep, text), sep=sep,
                        source_bytes=len(text.encode("utf-8")))


def concat_streams(streams: Iterable[LetterStream]) -> LetterStream:
    """Join streams with an implicit boundary between parts.

    Digraphs therefore never span two source files, and the merged statistics
    do not depend on which file a word came from. Every nonempty part must
    use the same separator, as streams tokenized under one alphabet do.
    """
    parts = list(streams)
    source_bytes = sum(part.source_bytes for part in parts)
    parts = [part for part in parts if part.text]
    seps = {part.sep for part in parts}
    if len(seps) > 1:
        raise ValueError(f"cannot join streams with different separators {sorted(seps)}")
    sep = seps.pop() if seps else " "
    # Within a part no two separators touch, so each seam needs exactly one.
    pieces: list[str] = []
    for part in parts:
        text = part.text
        if pieces:
            seam_seps = pieces[-1].endswith(sep) + text.startswith(sep)
            if seam_seps == 0:
                pieces.append(sep)
            elif seam_seps == 2:
                text = text[1:]
        if text:
            pieces.append(text)
    return LetterStream(text="".join(pieces), sep=sep, source_bytes=source_bytes)


def read_corpus(paths: Iterable[str | Path], config: AlphabetConfig | None = None) -> LetterStream:
    """Tokenize each file and concatenate the streams in the given order."""
    parts = []
    for path in paths:
        try:
            text = normalize_text(Path(path).read_bytes())
        except InvalidEncoding as exc:
            raise InvalidEncoding(exc.position, path) from None
        parts.append(tokenize(text, config))
    return concat_streams(parts)


def reconstruct_text(stream: LetterStream) -> str:
    """Render a stream back to text, one space per boundary.

    Tokenizing the result reproduces the stream, which makes streams
    auditable with ordinary text tools.
    """
    return stream.text.replace(stream.sep, " ")
