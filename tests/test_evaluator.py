"""Scoring semantics, replay across piece seams, and report comparison.

The randomized oracle here, ``oracle.replay``, is a bare dictionary fold:
hand lookups from a plain letter-to-hand map, one pass, no package
scoring code.
"""

import io
import json
import math
import random

import pytest

from layoutforge.corpus import BOUNDARY
from layoutforge.errors import EmptyInput
from layoutforge.evaluator import (EvaluationReport, compare, evaluate, format_comparison,
                                   read_report_json, write_report_json, write_report_tsv)
from conftest import layout_from_hands, letter_count, make_stream, mirrored, random_tokens, slices
import oracle


# ---------------------------------------------------------------------------
# Core fold semantics.

def test_alternating_stream():
    layout = layout_from_hands("l", "r")
    report = evaluate(layout, [make_stream(["l", "r", "l", "r"])])
    assert (report.hand_switching, report.left_load, report.right_load,
            report.not_determined) == (3, 2, 2, 0)


def test_single_hand_never_switches():
    layout = layout_from_hands("ab", "")
    report = evaluate(layout, [make_stream(["a", "b", "a", "b"])])
    assert report.hand_switching == 0
    assert report.left_load == 4


def test_undetermined_letters_do_not_reset():
    layout = layout_from_hands("l", "r")
    report = evaluate(layout, [make_stream(["l", "x", "l"])])
    assert (report.hand_switching, report.left_load, report.not_determined) == (0, 2, 1)
    report = evaluate(layout, [make_stream(["l", "x", "r"])])
    assert report.hand_switching == 1


def test_boundary_persistence_and_reset_flag():
    layout = layout_from_hands("l", "r")
    stream = make_stream(["l", None, "r"])
    assert evaluate(layout, [stream]).hand_switching == 1
    assert evaluate(layout, [stream], reset_on_boundary=True).hand_switching == 0


def test_unrelated_layout_sees_nothing():
    layout = layout_from_hands("ab", "cd")
    stream = make_stream(["x", "y", None, "z"])
    report = evaluate(layout, [stream])
    assert report.not_determined == report.total_letters == 3
    assert report.hand_switching == report.left_load == report.right_load == 0


def test_empty_stream():
    layout = layout_from_hands("a", "b")
    report = evaluate(layout, [make_stream([])])
    assert report.total_letters == 0
    assert report.hand_switching == 0


def test_matches_independent_rescan():
    rng = random.Random(61)
    alphabet = list("abcdefgh")
    for _ in range(200):
        split = rng.randrange(0, len(alphabet) + 1)
        known = alphabet[:rng.randrange(0, len(alphabet) + 1)]
        hand_of = {l: ("left" if i < split else "right")
                   for i, l in enumerate(alphabet) if l in known}
        layout = layout_from_hands(known[:split], known[split:])
        tokens = random_tokens(rng, alphabet, rng.randrange(0, 1000))
        reset = rng.random() < 0.5
        report = evaluate(layout, [make_stream(tokens)], reset_on_boundary=reset)
        assert (report.left_load, report.right_load, report.not_determined,
                report.hand_switching) == oracle.replay(hand_of, tokens, reset)


def test_conservation_and_switching_bounds():
    rng = random.Random(67)
    alphabet = list("abcdef")
    layout = layout_from_hands("abc", "de")  # f stays unmapped
    for _ in range(100):
        tokens = random_tokens(rng, alphabet, rng.randrange(0, 400))
        report = evaluate(layout, [make_stream(tokens)])
        determined = report.left_load + report.right_load
        assert determined + report.not_determined == report.total_letters
        assert report.hand_switching >= 0
        if report.left_load and report.right_load:
            assert report.hand_switching <= determined - 1
        assert report.hand_switching <= 2 * min(report.left_load, report.right_load)


def test_mirror_symmetry():
    rng = random.Random(71)
    alphabet = list("abcdefgh")
    for _ in range(30):
        left = [l for l in alphabet[:6] if rng.random() < 0.5]
        right = [l for l in alphabet[:6] if l not in left]
        layout = layout_from_hands(left, right)
        tokens = random_tokens(rng, alphabet, rng.randrange(0, 300))
        stream = make_stream(tokens)
        base = evaluate(layout, [stream])
        flipped = evaluate(mirrored(layout), [stream])
        assert flipped.hand_switching == base.hand_switching
        assert flipped.not_determined == base.not_determined
        assert (flipped.left_load, flipped.right_load) == (base.right_load,
                                                           base.left_load)


def test_concatenation_adds_loads_and_at_most_one_switch():
    rng = random.Random(73)
    alphabet = list("abcd")
    layout = layout_from_hands("ab", "cd")
    for _ in range(50):
        ta = random_tokens(rng, alphabet, rng.randrange(1, 100))
        tb = random_tokens(rng, alphabet, rng.randrange(1, 100))
        ra = evaluate(layout, [make_stream(ta)])
        rb = evaluate(layout, [make_stream(tb)])
        joined = evaluate(layout, [make_stream(ta + [None] + tb)])
        assert joined.left_load == ra.left_load + rb.left_load
        assert joined.right_load == ra.right_load + rb.right_load
        junction = joined.hand_switching - ra.hand_switching - rb.hand_switching
        assert junction in (0, 1)


# ---------------------------------------------------------------------------
# Evaluation of a stream cut into slices.

def test_chunked_equals_sequential():
    rng = random.Random(79)
    alphabet = list("abcdef")
    layout = layout_from_hands("abc", "de")
    for _ in range(100):
        tokens = random_tokens(rng, alphabet, rng.randrange(0, 500))
        stream = make_stream(tokens)
        reset = rng.random() < 0.5
        sequential = evaluate(layout, [stream], reset_on_boundary=reset)
        chunked = evaluate(layout, slices(stream, rng.randrange(1, 11)),
                           reset_on_boundary=reset)
        assert chunked == sequential


def test_chunked_matches_rescan_at_every_chunk_count():
    """Every chunk count from 1 to one past the text length, against the oracle's replay.

    The streams may start or end on a boundary, and x and y are letters the
    layout lacks, so slices that start or end on a boundary, slices that
    are only boundaries, and slices of only unplaced letters all occur.
    """
    rng = random.Random(89)
    alphabet = list("abcdxy")
    hand_of = {"a": "left", "b": "left", "c": "right", "d": "right"}
    layout = layout_from_hands("ab", "cd")
    seen = set()
    for _ in range(60):
        tokens = random_tokens(rng, alphabet, rng.randrange(0, 25))
        if tokens and rng.random() < 0.5:
            tokens = [None] + tokens
        if tokens and rng.random() < 0.5:
            tokens = tokens + [None]
        stream = make_stream(tokens)
        for chunks in range(1, len(stream) + 2):
            for piece in slices(stream, chunks):
                seen.add("edge boundary" if BOUNDARY in (piece[0], piece[-1]) else None)
                seen.add("only boundaries" if set(piece) == {BOUNDARY} else None)
                seen.add("only unplaced" if set(piece) <= {"x", "y"} else None)
            for reset in (False, True):
                report = evaluate(layout, slices(stream, chunks), reset_on_boundary=reset)
                assert (report.left_load, report.right_load, report.not_determined,
                        report.hand_switching) == oracle.replay(hand_of, tokens, reset)
                assert report.total_letters == letter_count(stream)
    assert seen >= {"edge boundary", "only boundaries", "only unplaced"}


# ---------------------------------------------------------------------------
# Comparison.

PUBLISHED_REPORTS = [
    EvaluationReport("optimized", 410113, 380058, 340903, 133290, 854251),
    EvaluationReport("bijoy", 358873, 475556, 242526, 138643, 856725),
    EvaluationReport("alternative", 358672, 319946, 363077, 173702, 856725),
]


def test_compare_ranks_by_switching():
    result = compare(list(reversed(PUBLISHED_REPORTS)))
    assert [r.layout_name for r in result.rows] == ["optimized", "bijoy", "alternative"]
    assert [r.hand_switching for r in result.rows] == [410113, 358873, 358672]
    assert result.warning is not None  # totals differ across these reports


def test_compare_single_report_no_warning():
    result = compare([PUBLISHED_REPORTS[0]])
    assert len(result.rows) == 1
    assert result.warning is None


def test_compare_breaks_ties_by_name():
    a = EvaluationReport("zeta", 5, 3, 3, 0, 6)
    b = EvaluationReport("alpha", 5, 3, 3, 0, 6)
    result = compare([a, b])
    assert [r.layout_name for r in result.rows] == ["alpha", "zeta"]


def test_compare_requires_reports():
    with pytest.raises(EmptyInput):
        compare([])


def test_comparison_derived_ratios():
    result = compare([PUBLISHED_REPORTS[1]])
    row = result.rows[0]
    assert row.switching_per_determined == pytest.approx(358873 / (475556 + 242526))
    assert row.load_ratio == pytest.approx(475556 / 242526)
    zero_right = compare([EvaluationReport("x", 0, 4, 0, 0, 4)]).rows[0]
    assert math.isinf(zero_right.load_ratio)
    empty = compare([EvaluationReport("y", 0, 0, 0, 3, 3)]).rows[0]
    assert empty.switching_per_determined == 0.0


def test_format_comparison_is_aligned():
    text = format_comparison(compare(PUBLISHED_REPORTS))
    lines = text.splitlines()
    assert lines[0].startswith("layout")
    assert "switches" in lines[0]
    assert lines[1].startswith("optimized")
    assert lines[-1].startswith("warning:")
    column = lines[0].index("switches") + len("switches")
    for line in lines[1:4]:
        assert line[column - 1].isdigit()  # right-aligned numbers


# ---------------------------------------------------------------------------
# Report files.

def test_report_json_round_trip(tmp_path):
    report = PUBLISHED_REPORTS[0]
    path = tmp_path / "report.json"
    write_report_json(report, path, config_echo={"coverage": 1})
    assert list(json.loads(path.read_text(encoding="utf-8")).items())[-1] == (
        "config", {"coverage": 1})  # the echo is the last key
    assert read_report_json(path) == report


def test_report_tsv_shape():
    out = io.StringIO()
    write_report_tsv(PUBLISHED_REPORTS[1], out)
    header, row = out.getvalue().splitlines()
    assert header.split("\t")[0] == "layout_name"
    assert row.split("\t") == ["bijoy", "358873", "475556", "242526", "138643",
                               "856725"]
