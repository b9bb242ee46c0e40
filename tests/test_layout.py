"""Geometry, placement order, and layout file round-trips."""

import json
import random

import pytest

from layoutforge.errors import (CapacityExceeded, ConfigError, InvariantViolation,
                                MalformedLayout)
from layoutforge.layout import (Geometry, KeyboardLayout, KeyPosition, build_layout,
                                load_geometry, load_layout, render_grid, write_layout)
from conftest import make_tables, partition_of


# ---------------------------------------------------------------------------
# Geometry defaults and validation.

def test_default_geometry_shape():
    geo = Geometry()
    assert (geo.rows, geo.columns, geo.layers) == (3, 10, ("base", "shift", "ctrl"))
    assert geo.home_row == 1
    assert geo.hand_of_column(5) == "left"
    assert geo.hand_of_column(6) == "right"


def test_default_priority_home_row_first_inner_to_outer():
    geo = Geometry()
    left = tuple(geo.position_priority("left"))
    right = tuple(geo.position_priority("right"))
    assert [(p.layer, p.row, p.column) for p in left[:5]] == [
        ("base", 1, 5), ("base", 1, 4), ("base", 1, 3), ("base", 1, 2), ("base", 1, 1)]
    assert [(p.layer, p.row, p.column) for p in right[:5]] == [
        ("base", 1, 6), ("base", 1, 7), ("base", 1, 8), ("base", 1, 9), ("base", 1, 10)]
    # then top row, then bottom row, then the shift layer
    assert (left[5].row, left[10].row) == (0, 2)
    assert left[15] == KeyPosition("left", "shift", 1, 5)
    assert len(left) == 45  # 3 layers x 3 rows x 5 columns


def test_geometry_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        Geometry(columns=9)
    with pytest.raises(ConfigError):
        Geometry(columns=0)
    with pytest.raises(ConfigError):
        Geometry(rows=0)
    with pytest.raises(ConfigError):
        Geometry(layers=("base", "base"))
    with pytest.raises(ConfigError):
        Geometry(layers=())


def test_custom_priority_validation():
    ok = {
        "left": tuple(("base", 0, c) for c in (1, 2)),
        "right": tuple(("base", 0, c) for c in (3, 4)),
    }
    geo = Geometry(rows=1, columns=4, layers=("base",), priority=ok)
    assert next(geo.position_priority("left")) == KeyPosition("left", "base", 0, 1)
    with pytest.raises(ConfigError):  # missing a slot
        Geometry(rows=1, columns=4, layers=("base",),
                 priority={"left": (("base", 0, 1),), "right": ok["right"]})
    with pytest.raises(ConfigError):  # slot on the wrong hand
        Geometry(rows=1, columns=4, layers=("base",),
                 priority={"left": ok["right"], "right": ok["left"]})
    with pytest.raises(ConfigError):  # hands missing
        Geometry(rows=1, columns=4, layers=("base",), priority={"left": ok["left"]})


def test_load_geometry(tmp_path):
    path = tmp_path / "geo.json"
    path.write_text('{"rows": 1, "columns": 2, "layers": ["base"]}', encoding="utf-8")
    geo = load_geometry(path)
    assert (geo.rows, geo.columns) == (1, 2)
    path.write_text('{"rows": 1, "nonsense": 2}', encoding="utf-8")
    with pytest.raises(ConfigError):
        load_geometry(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_geometry(path)


# ---------------------------------------------------------------------------
# Placement.

def test_five_letters_fill_the_home_row():
    counts = {"a": 50, "b": 40, "c": 30, "d": 20, "e": 10, "z": 100}
    layout = build_layout(partition_of("abcde", "z"), make_tables(counts))
    positions = [layout.assignment[l] for l in "abcde"]
    assert all(p.row == 1 and p.layer == "base" for p in positions)
    assert [p.column for p in positions] == [5, 4, 3, 2, 1]  # inner to outer
    assert layout.assignment["z"] == KeyPosition("right", "base", 1, 6)


def test_sixteenth_letter_spills_onto_shift_layer():
    letters = [chr(ord("a") + i) for i in range(16)]
    counts = {l: 100 - i for i, l in enumerate(letters)}
    counts["z"] = 1000
    layout = build_layout(partition_of(letters, "z"), make_tables(counts))
    assert layout.assignment[letters[15]] == KeyPosition("left", "shift", 1, 5)
    assert all(layout.assignment[l].layer == "base" for l in letters[:15])


def test_placement_is_deterministic(tmp_path):
    counts = {"a": 5, "b": 5, "c": 2, "z": 9}
    part = partition_of("abc", "z")
    tables = make_tables(counts)
    first = build_layout(part, tables)
    second = build_layout(part, tables)
    assert first == second
    assert written_bytes(first, tmp_path) == written_bytes(second, tmp_path)


def test_frequency_monotone_within_hand():
    rng = random.Random(47)
    for _ in range(30):
        letters = [chr(ord("ক") + i) for i in range(rng.randrange(6, 40))]
        counts = {l: rng.randrange(1, 500) for l in letters}
        split = rng.randrange(1, len(letters))
        part = partition_of(letters[:split], letters[split:])
        layout = build_layout(part, make_tables(counts))
        for hand, members in (("left", part.left), ("right", part.right)):
            slots = {p: i for i, p in enumerate(layout.geometry.position_priority(hand))}
            index = {l: slots[layout.assignment[l]] for l in members}
            for a in members:
                for b in members:
                    if counts[a] > counts[b]:
                        assert index[a] < index[b]


def test_home_row_dominance():
    rng = random.Random(53)
    for _ in range(20):
        letters = [chr(ord("ক") + i) for i in range(12)]
        counts = {l: rng.randrange(1, 1000) for l in letters}
        part = partition_of(letters[:6], letters[6:])
        layout = build_layout(part, make_tables(counts))
        for members in (part.left, part.right):
            top = sorted(members, key=lambda l: (-counts[l], l))[:5]
            home = {l for l in members
                    if layout.assignment[l].row == 1
                    and layout.assignment[l].layer == "base"}
            assert home == set(top)


def test_capacity_exceeded_reports_hand_and_overflow():
    geo = Geometry(rows=1, columns=2, layers=("base",))  # one slot per hand
    counts = {"a": 3, "b": 2, "c": 1, "z": 9}
    with pytest.raises(CapacityExceeded) as info:
        build_layout(partition_of("abc", "z"), make_tables(counts), geo)
    assert info.value.hand == "left"
    assert info.value.overflow == 2
    assert "2 letter" in str(info.value)


def test_letters_absent_from_table_place_last():
    counts = {"a": 5, "z": 9}
    layout = build_layout(partition_of("ab", "z"), make_tables(counts))
    assert layout.assignment["a"].column == 5
    assert layout.assignment["b"].column == 4


def test_custom_priority_governs_placement():
    priority = {
        "left": (("base", 0, 1), ("base", 0, 2)),
        "right": (("base", 0, 4), ("base", 0, 3)),
    }
    geo = Geometry(rows=1, columns=4, layers=("base",), priority=priority)
    counts = {"a": 9, "b": 1, "y": 8, "z": 2}
    layout = build_layout(partition_of("ab", "yz"), make_tables(counts), geo)
    assert layout.assignment["a"] == KeyPosition("left", "base", 0, 1)
    assert layout.assignment["y"] == KeyPosition("right", "base", 0, 4)
    assert layout.assignment["z"] == KeyPosition("right", "base", 0, 3)


# ---------------------------------------------------------------------------
# Layout files.

def written_bytes(layout, tmp_path):
    """The bytes ``write_layout`` writes for the layout."""
    path = tmp_path / "written.json"
    write_layout(layout, path)
    return path.read_bytes()


def loaded(text, tmp_path):
    """The layout ``load_layout`` reads from a file that holds ``text``."""
    path = tmp_path / "loaded.json"
    path.write_text(text, encoding="utf-8")
    return load_layout(path)


def random_layout(rng):
    rows = rng.randrange(1, 4)
    columns = rng.choice([2, 4, 6, 10])
    layers = ("base", "shift", "ctrl")[:rng.randrange(1, 4)]
    geo = Geometry(rows=rows, columns=columns, layers=layers)
    letters = [chr(ord("ঀ") + i) for i in range(120)]
    rng.shuffle(letters)
    assignment = {}
    for hand in ("left", "right"):
        slots = list(geo.position_priority(hand))
        rng.shuffle(slots)
        for slot in slots[:rng.randrange(0, len(slots) + 1)]:
            assignment[letters.pop()] = slot
    return KeyboardLayout(name=f"rand-{rng.randrange(999)}", geometry=geo,
                          assignment=assignment)


def test_round_trip_identity_randomized(tmp_path):
    rng = random.Random(59)
    path = tmp_path / "layout.json"
    for _ in range(50):
        layout = random_layout(rng)
        write_layout(layout, path)
        data = path.read_bytes()
        back = load_layout(path)
        assert back == layout
        write_layout(back, path)
        assert path.read_bytes() == data  # byte-stable rewrite


def test_serialized_form_is_reviewable(tmp_path):
    counts = {"ক": 5, "া": 3}
    layout = build_layout(partition_of(["া"], ["ক"]), make_tables(counts),
                          name="tiny")
    doc = json.loads(written_bytes(layout, tmp_path).decode("utf-8"))
    assert doc["name"] == "tiny"
    assert doc["geometry"]["rows"] == 3
    ka = next(k for k in doc["keys"] if k["letter"] == "ক")
    assert ka["code_point"] == "U+0995"
    assert ka["hand"] == "right"


def test_parse_rejects_malformed_documents(tmp_path):
    with pytest.raises(MalformedLayout) as info:
        loaded("{broken", tmp_path)
    assert "line" in str(info.value)  # decoder position is reported
    with pytest.raises(MalformedLayout):
        loaded("[]", tmp_path)
    with pytest.raises(MalformedLayout):
        loaded(json.dumps({"name": "x", "keys": []}), tmp_path)
    with pytest.raises(MalformedLayout):  # bad geometry shape
        loaded(json.dumps(
            {"name": "x", "geometry": {"rows": 3, "columns": 9, "layers": ["base"]},
             "keys": []}), tmp_path)
    with pytest.raises(MalformedLayout):  # key entry missing fields
        loaded(json.dumps(
            {"name": "x", "geometry": {"rows": 1, "columns": 2, "layers": ["base"]},
             "keys": [{"letter": "a"}]}), tmp_path)


def layout_doc(keys):
    return json.dumps({
        "name": "t",
        "geometry": {"rows": 1, "columns": 2, "layers": ["base"]},
        "keys": keys,
    })


def key_entry(letter, hand, column, *, layer="base", row=0, code_point=None):
    return {"letter": letter, "code_point": code_point or f"U+{ord(letter):04X}",
            "hand": hand, "layer": layer, "row": row, "column": column}


def test_parse_rejects_invariant_violations(tmp_path):
    cases = {
        "two letters, one slot": [key_entry("a", "left", 1), key_entry("b", "left", 1)],
        "one letter, two slots": [key_entry("a", "left", 1), key_entry("a", "right", 2)],
        "hand contradicts column": [key_entry("a", "right", 1)],
        "column out of range": [key_entry("a", "left", 0)],
        "row out of range": [key_entry("a", "left", 1, row=5)],
        "unknown layer": [key_entry("a", "left", 1, layer="hyper")],
        "code point contradicts letter": [key_entry("a", "left", 1, code_point="U+0062")],
        "multi-codepoint letter": [key_entry("ab", "left", 1, code_point="U+0061")],
    }
    for case, keys in cases.items():
        with pytest.raises(InvariantViolation):
            loaded(layout_doc(keys), tmp_path)
            pytest.fail(case)


HAND_AUTHORED_BASELINE = """
{
  "name": "toy-baseline",
  "geometry": {"rows": 1, "columns": 6, "layers": ["base"]},
  "keys": [
    {"letter": "ক", "code_point": "U+0995", "hand": "left", "layer": "base", "row": 0, "column": 1},
    {"letter": "া", "code_point": "U+09BE", "hand": "left", "layer": "base", "row": 0, "column": 2},
    {"letter": "র", "code_point": "U+09B0", "hand": "left", "layer": "base", "row": 0, "column": 3},
    {"letter": "ি", "code_point": "U+09BF", "hand": "right", "layer": "base", "row": 0, "column": 4},
    {"letter": "ে", "code_point": "U+09C7", "hand": "right", "layer": "base", "row": 0, "column": 5},
    {"letter": "ব", "code_point": "U+09AC", "hand": "right", "layer": "base", "row": 0, "column": 6}
  ]
}
"""


def test_hand_authored_baseline_parses_slot_by_slot(tmp_path):
    layout = loaded(HAND_AUTHORED_BASELINE, tmp_path)
    assert layout.name == "toy-baseline"
    expected = {
        "ক": KeyPosition("left", "base", 0, 1),
        "া": KeyPosition("left", "base", 0, 2),
        "র": KeyPosition("left", "base", 0, 3),
        "ি": KeyPosition("right", "base", 0, 4),
        "ে": KeyPosition("right", "base", 0, 5),
        "ব": KeyPosition("right", "base", 0, 6),
    }
    assert layout.assignment == expected
    assert layout.hand_of("ক") == "left"
    assert layout.hand_of("ঙ") is None


def test_render_grid():
    counts = {"a": 2, "b": 1, "z": 3}
    layout = build_layout(partition_of("ab", "z"), make_tables(counts),
                          Geometry(rows=1, columns=4, layers=("base",)))
    assert render_grid(layout) == "b a  |  z ·"
    with pytest.raises(ValueError):
        render_grid(layout, layer="shift")
