"""Key geometry and the frequency-ordered placement of a partition.

A geometry is a grid of rows by columns split down the middle, left hand
on the low columns, right hand on the high ones, repeated across layers
(base, then modifier layers). Placement walks a per-hand priority list:
home row from the innermost column outward, then the rows above and
below in order of distance from home, then the same sweep on the next
layer. More frequent letters therefore land on stronger positions.

Layout files are canonical JSON: parsing a serialized layout gives back
an equal object, and serializing again gives identical bytes.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from pathlib import Path
from itertools import islice
from typing import Iterator, Mapping, Sequence

from .atomic import OptionalField, dump_json, parse_json_object, read_json_object, write_json
from .corpus import format_codepoint
from .errors import (CapacityExceeded, ConfigError, InvariantViolation,
                     MalformedLayout)
from .partition import HandPartition
from .stats import NGramTable

DEFAULT_LAYERS = ("base", "shift", "ctrl")
HANDS = ("left", "right")


@dataclass(frozen=True)
class KeyPosition:
    """One key slot: hand, layer name, row index (0 = top), column (1-based)."""

    hand: str
    layer: str
    row: int
    column: int


PriorityTriple = tuple[str, int, int]  # (layer, row, column)

_PRIORITY_SHAPE = [(str, int, int)]
GEOMETRY_SHAPE = {
    "rows": OptionalField(int), "columns": OptionalField(int), "layers": OptionalField([str]),
    "position_priority": OptionalField({"left": _PRIORITY_SHAPE, "right": _PRIORITY_SHAPE}),
}
LAYOUT_SHAPE = {"name": str, "geometry": GEOMETRY_SHAPE,
                "keys": [{"letter": str, "code_point": str, "hand": str, "layer": str,
                          "row": int, "column": int}]}


@dataclass
class Geometry:
    """Grid shape plus the per-hand ordering in which slots are filled.

    ``priority``, when given, replaces the built-in ordering; it must list
    every slot of each hand exactly once.
    """

    rows: int = 3
    columns: int = 10
    layers: tuple[str, ...] = DEFAULT_LAYERS
    priority: dict[str, tuple[PriorityTriple, ...]] | None = None

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ConfigError(f"rows must be positive, got {self.rows}")
        if self.columns < 2 or self.columns % 2:
            raise ConfigError(f"columns must be even and >= 2, got {self.columns}")
        self.layers = tuple(self.layers)
        if not self.layers or len(set(self.layers)) != len(self.layers):
            raise ConfigError(f"layers must be distinct and nonempty, got {self.layers!r}")
        if self.priority is not None:
            self.priority = {hand: tuple(map(tuple, triples))
                             for hand, triples in self.priority.items()}
            self._check_priority()

    @property
    def home_row(self) -> int:
        return self.rows // 2

    def hand_of_column(self, column: int) -> str:
        if not 1 <= column <= self.columns:
            raise ValueError(f"column {column} out of range 1..{self.columns}")
        return "left" if column <= self.columns // 2 else "right"

    def _check_priority(self) -> None:
        assert self.priority is not None
        if set(self.priority) != set(HANDS):
            raise ConfigError("priority must map exactly the hands 'left' and 'right'")
        half = self.columns // 2
        size = self.rows * half * len(self.layers)
        for hand in HANDS:
            triples = self.priority[hand]
            cols = range(1, half + 1) if hand == "left" else range(half + 1, self.columns + 1)
            inside = all(l in self.layers and 0 <= r < self.rows and c in cols
                         for l, r, c in triples)
            if not inside or len(triples) != size or len(set(triples)) != size:
                raise ConfigError(
                    f"priority for {hand} hand must cover its {size} slots exactly once")

    def position_priority(self, hand: str) -> tuple[KeyPosition, ...]:
        """All slots of one hand, best first."""
        return tuple(self._slots(hand))

    def _slots(self, hand: str) -> Iterator[KeyPosition]:
        """The slots of one hand, best first, made one at a time.

        Lazy so that placing a few letters on a very large grid costs only
        the slots they take.
        """
        if hand not in HANDS:
            raise ValueError(f"hand must be 'left' or 'right', got {hand!r}")
        if self.priority is not None:
            return (KeyPosition(hand, l, r, c) for l, r, c in self.priority[hand])
        half = self.columns // 2
        if hand == "left":
            col_order = range(half, 0, -1)  # innermost column first
        else:
            col_order = range(half + 1, self.columns + 1)
        return (KeyPosition(hand, layer, row, col)
                for layer in self.layers for row in self._row_order() for col in col_order)

    def _row_order(self) -> Iterator[int]:
        """Rows by distance from home, the upper row first on a tie."""
        home = self.home_row
        for distance in range(home + 1):  # no row lies further below home than above
            yield home - distance
            if distance and home + distance < self.rows:
                yield home + distance

    def to_dict(self) -> dict:
        doc: dict = {"rows": self.rows, "columns": self.columns, "layers": list(self.layers)}
        if self.priority is not None:
            doc["position_priority"] = {
                hand: [list(t) for t in triples] for hand, triples in self.priority.items()
            }
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Geometry":
        """The geometry a document of ``GEOMETRY_SHAPE`` describes."""
        kwargs = {name: doc[name] for name in ("rows", "columns", "layers") if name in doc}
        return cls(**kwargs, priority=doc.get("position_priority"))


def load_geometry(path: str | Path) -> Geometry:
    return Geometry.from_dict(read_json_object(path, ConfigError, "geometry", GEOMETRY_SHAPE))


_NOT_IN_NAMES = re.compile(r"[/\x00-\x1f\x7f]")


def check_layout_name(name: str) -> None:
    """Refuse a layout name that is not one plain file name.

    The name becomes part of report file names and a field of the report
    TSV, so it must name one file and hold no control character.
    """
    if not isinstance(name, str) or name in ("", ".", "..") or _NOT_IN_NAMES.search(name):
        raise MalformedLayout(f"a layout name must be a file name without '/' or control"
                              f" characters, got {name!r}")


@dataclass
class KeyboardLayout:
    """A name, a geometry, and the letter-to-slot assignment."""

    name: str
    geometry: Geometry
    assignment: dict[str, KeyPosition] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_layout_name(self.name)

    def hand_of(self, letter: str) -> str | None:
        """The hand that types the letter, or None if the layout lacks it."""
        pos = self.assignment.get(letter)
        return pos.hand if pos else None


def build_layout(partition: HandPartition, mono: NGramTable,
                 geometry: Geometry | None = None, *, name: str = "optimized") -> KeyboardLayout:
    """Place each hand's letters on its slots in descending frequency order."""
    geometry = geometry if geometry is not None else Geometry()
    assignment: dict[str, KeyPosition] = {}
    for hand, letters in (("left", partition.left), ("right", partition.right)):
        ordered = sorted(letters, key=lambda g: (-mono.counts.get(g, 0), g))
        slots = tuple(islice(geometry._slots(hand), len(ordered)))
        if len(ordered) > len(slots):
            raise CapacityExceeded(hand, len(ordered) - len(slots))
        for letter, slot in zip(ordered, slots):
            assignment[letter] = slot
    return KeyboardLayout(name=name, geometry=geometry, assignment=assignment)


# ---------------------------------------------------------------------------
# Canonical JSON form. Keys are listed layer by layer, then row, then column,
# so equal layouts always produce identical bytes.

def _layout_doc(layout: KeyboardLayout) -> dict:
    layer_index = {layer: i for i, layer in enumerate(layout.geometry.layers)}
    keys = sorted(layout.assignment.items(),
                  key=lambda kv: (layer_index[kv[1].layer], kv[1].row, kv[1].column))
    return {
        "name": layout.name,
        "geometry": layout.geometry.to_dict(),
        "keys": [
            {
                "letter": letter,
                "code_point": format_codepoint(letter),
                "hand": pos.hand,
                "layer": pos.layer,
                "row": pos.row,
                "column": pos.column,
            }
            for letter, pos in keys
        ],
    }


def serialize_layout(layout: KeyboardLayout) -> bytes:
    text = io.StringIO()
    dump_json(_layout_doc(layout), text)
    return text.getvalue().encode("utf-8")


def parse_layout(data: bytes | str) -> KeyboardLayout:
    """Parse and validate a layout document.

    Structural problems (bad JSON, missing fields) raise MalformedLayout;
    an internally inconsistent layout (two letters on one slot, a hand on
    the wrong side of the split, a code point that contradicts its letter)
    raises InvariantViolation.
    """
    doc = parse_json_object(data, MalformedLayout, "layout", LAYOUT_SHAPE)
    try:
        geometry = Geometry.from_dict(doc["geometry"])
    except ConfigError as exc:
        raise MalformedLayout(f"bad geometry: {exc}") from None

    assignment: dict[str, KeyPosition] = {}
    seen_slots: set[tuple[str, int, int]] = set()
    for entry in doc["keys"]:
        letter, code_point, hand, layer, row, column = (
            entry[name] for name in ("letter", "code_point", "hand", "layer", "row", "column"))
        if len(letter) != 1:
            raise InvariantViolation(f"letter must be a single code point, got {letter!r}")
        if format_codepoint(letter) != code_point:
            raise InvariantViolation(
                f"code point {code_point} does not match letter {letter!r}"
                f" ({format_codepoint(letter)})")
        if layer not in geometry.layers:
            raise InvariantViolation(f"unknown layer {layer!r}")
        if not 0 <= row < geometry.rows:
            raise InvariantViolation(f"row {row} out of range 0..{geometry.rows - 1}")
        if not 1 <= column <= geometry.columns:
            raise InvariantViolation(f"column {column} out of range 1..{geometry.columns}")
        if hand != geometry.hand_of_column(column):
            raise InvariantViolation(
                f"{letter!r} claims {hand} hand but column {column} belongs to"
                f" the {geometry.hand_of_column(column)}")
        slot = (layer, row, column)
        if slot in seen_slots:
            raise InvariantViolation(f"slot {slot} assigned twice")
        if letter in assignment:
            raise InvariantViolation(f"letter {letter!r} assigned twice")
        seen_slots.add(slot)
        assignment[letter] = KeyPosition(hand, layer, row, column)
    return KeyboardLayout(name=doc["name"], geometry=geometry, assignment=assignment)


def load_layout(path: str | Path) -> KeyboardLayout:
    with open(path, "rb") as handle:
        return parse_layout(handle.read())


def write_layout(layout: KeyboardLayout, path: str | Path) -> None:
    write_json(_layout_doc(layout), path)


def render_grid(layout: KeyboardLayout, layer: str = "base") -> str:
    """A plain-text picture of one layer, a dot per empty slot."""
    geo = layout.geometry
    if layer not in geo.layers:
        raise ValueError(f"unknown layer {layer!r}")
    grid = [["·"] * geo.columns for _ in range(geo.rows)]
    for letter, pos in layout.assignment.items():
        if pos.layer == layer:
            grid[pos.row][pos.column - 1] = letter
    half = geo.columns // 2
    lines = []
    for row in grid:
        lines.append(" ".join(row[:half]) + "  |  " + " ".join(row[half:]))
    return "\n".join(lines)
