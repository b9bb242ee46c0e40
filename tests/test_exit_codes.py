"""Malformed input files exit 2, never 1.

Report, table, partition and layout files are first written by the
pipeline itself and then broken in one way, so every case starts from a
shape the reader really accepts. Alphabet, geometry and LAYOUTFORGE_CONFIG
files are written by hand, one wrongly typed field at a time.
"""

import json
from pathlib import Path

import pytest

from layoutforge.cli import main
from layoutforge.layout import Geometry

from conftest import last_error

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "bn_sample" / "part1.txt"


def run_all(tmp_path):
    out = tmp_path / "ok"
    assert main(["run-all", str(SAMPLE), "--out", str(out)]) == 0
    return out


def edit_json(path, change):
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# compare: report files

def test_compare_report_missing_field_exits_2(tmp_path, capsys):
    report = edit_json(run_all(tmp_path) / "report-optimized.json",
                       lambda doc: doc.pop("left_load"))
    assert main(["compare", str(report)]) == 2
    error = last_error(capsys)
    assert error["error"] == "MalformedInput"
    assert "left_load" in error["message"]


def test_compare_non_json_report_exits_2(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text("layout\tswitches\n", encoding="utf-8")
    assert main(["compare", str(report)]) == 2
    assert last_error(capsys)["error"] == "MalformedInput"


def test_compare_report_of_wrong_shape_exits_2(tmp_path, capsys):
    out = run_all(tmp_path)
    report = tmp_path / "report.json"
    for change in (lambda doc: doc.update(hand_switching="x"),
                   lambda doc: doc.update(left_load=1.5),
                   lambda doc: doc.update(layout_name=None)):
        report.write_bytes((out / "report-optimized.json").read_bytes())
        edit_json(report, change)
        assert main(["compare", str(report)]) == 2
        assert last_error(capsys)["error"] == "MalformedInput"
    report.write_text("[1, 2]", encoding="utf-8")
    assert main(["compare", str(report)]) == 2
    assert last_error(capsys)["error"] == "MalformedInput"


# ---------------------------------------------------------------------------
# partition --mono/--digraphs: TSV tables

def test_partition_tsv_short_row_exits_2(tmp_path, capsys):
    out = run_all(tmp_path)
    table = out / "digraphs.tsv"
    lines = table.read_text(encoding="utf-8").splitlines()
    gram, count, _pct = lines[-1].split("\t")
    lines[-1] = f"{gram}\t{count}"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["partition", "--mono", str(out / "monograms.tsv"),
                 "--digraphs", str(table), "--out", str(tmp_path / "p")]) == 2
    error = last_error(capsys)
    assert error["error"] == "MalformedInput"
    assert gram in error["message"]


def test_partition_tsv_bad_count_and_missing_header_exit_2(tmp_path, capsys):
    out = run_all(tmp_path)
    bad_count = tmp_path / "bad_count.tsv"
    bad_count.write_text("# n\t1\n# total_letters\t3\ngram\tcount\tpercentage\n"
                         "ক\tthree\t100.0\n", encoding="utf-8")
    no_header = tmp_path / "no_header.tsv"
    no_header.write_text("gram\tcount\tpercentage\nক\t3\t100.0\n", encoding="utf-8")
    for mono in (bad_count, no_header):
        assert main(["partition", "--mono", str(mono),
                     "--digraphs", str(out / "digraphs.tsv"),
                     "--out", str(tmp_path / "p")]) == 2
        assert last_error(capsys)["error"] == "MalformedInput"


# ---------------------------------------------------------------------------
# layout: partition files

def test_layout_partition_trace_row_without_scores_exits_2(tmp_path, capsys):
    partition = edit_json(run_all(tmp_path) / "partition.json",
                          lambda doc: doc["trace"][5].pop("left_support"))
    assert main(["layout", str(partition), "--out", str(tmp_path / "l")]) == 2
    error = last_error(capsys)
    assert error["error"] == "ConfigError"
    assert "left_support" in error["message"]


def test_layout_partition_trace_hand_disagrees_exits_2(tmp_path, capsys):
    def flip(doc):
        row = doc["trace"][6]
        row["hand"] = "left" if row["hand"] == "right" else "right"

    partition = edit_json(run_all(tmp_path) / "partition.json", flip)
    assert main(["layout", str(partition), "--out", str(tmp_path / "l")]) == 2
    error = last_error(capsys)
    assert error["error"] == "ConfigError"
    assert "trace puts" in error["message"]


def test_layout_partition_letter_missing_from_ranking_exits_2(tmp_path, capsys):
    dropped = []

    def drop(doc):
        dropped.append(doc["ranking"].pop()[0])

    partition = edit_json(run_all(tmp_path) / "partition.json", drop)
    assert main(["layout", str(partition), "--out", str(tmp_path / "l")]) == 2
    error = last_error(capsys)
    assert error["error"] == "ConfigError"
    assert "missing from the ranking" in error["message"]
    assert dropped[0] in error["message"]


def test_layout_partition_wrong_shapes_exit_2(tmp_path, capsys):
    out = run_all(tmp_path)

    def number_letter(doc):  # consistent everywhere, but not a string
        letter, doc["left"][0] = doc["left"][0], 7
        next(row for row in doc["trace"] if row["letter"] == letter)["letter"] = 7
        next(row for row in doc["ranking"] if row[0] == letter)[0] = 7

    for change in (number_letter,
                   lambda doc: doc.update(trace=[1] * len(doc["trace"])),
                   lambda doc: doc.update(ranking=[["ক"]]),
                   lambda doc: doc.update(total_letters="many")):
        partition = tmp_path / "partition.json"
        partition.write_bytes((out / "partition.json").read_bytes())
        edit_json(partition, change)
        assert main(["layout", str(partition), "--out", str(tmp_path / "l")]) == 2
        assert last_error(capsys)["error"] == "ConfigError"
    partition.write_text("[]", encoding="utf-8")
    assert main(["layout", str(partition), "--out", str(tmp_path / "l")]) == 2


# ---------------------------------------------------------------------------
# Every JSON input: bytes that are no JSON object.

NOT_AN_OBJECT = {
    "not UTF-8": b"\xff\xfe",
    "a number": b"5",
    "a list": b"[[1, 2]]",
    "nested too deep": b"[" * 100_000,
}


def argv_reading(kind, path, tmp_path):
    """A command line whose only bad input is the JSON file at ``path``."""
    out = run_all(tmp_path)
    return {
        "alphabet": ["stats", str(SAMPLE), "--alphabet", str(path)],
        "geometry": ["layout", str(out / "partition.json"), "--geometry", str(path)],
        "layout": ["evaluate", str(path), "--corpus", str(SAMPLE)],
        "partition": ["layout", str(path)],
        "report": ["compare", str(path)],
    }[kind] + ["--out", str(tmp_path / "o")]


@pytest.mark.parametrize("kind, error", [
    ("alphabet", "ConfigError"), ("geometry", "ConfigError"), ("layout", "MalformedLayout"),
    ("partition", "ConfigError"), ("report", "MalformedInput"), ("config", "ConfigError")])
@pytest.mark.parametrize("content", NOT_AN_OBJECT.values(), ids=NOT_AN_OBJECT.keys())
def test_json_input_that_is_no_object_exits_2(tmp_path, capsys, monkeypatch, kind, error,
                                              content):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(content)
    if kind == "config":
        monkeypatch.setenv("LAYOUTFORGE_CONFIG", str(path))
        argv = ["stats", str(SAMPLE), "--out", str(tmp_path / "o")]
    else:
        argv = argv_reading(kind, path, tmp_path)
    assert main(argv) == 2
    assert last_error(capsys)["error"] == error


# ---------------------------------------------------------------------------
# Wrongly typed fields.

@pytest.mark.parametrize("alphabet", [
    {"ranges": 5}, {"include": [5]}, {"ranges": [["a"]]}, {"exclude": "U+09E6"}])
def test_alphabet_field_of_wrong_type_exits_2(tmp_path, capsys, alphabet):
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps(alphabet), encoding="utf-8")
    assert main(argv_reading("alphabet", path, tmp_path)) == 2
    assert last_error(capsys)["error"] == "ConfigError"


@pytest.mark.parametrize("geometry", [
    {"rows": "x"}, {"layers": 5}, {"position_priority": {"left": 5}},
    {"position_priority": 5}, {"columns": float("inf")}])
def test_geometry_field_of_wrong_type_exits_2(tmp_path, capsys, geometry):
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps(geometry), encoding="utf-8")
    assert main(argv_reading("geometry", path, tmp_path)) == 2
    assert last_error(capsys)["error"] == "ConfigError"


def test_huge_geometry_places_only_the_slots_it_needs(tmp_path):
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps({"rows": 10**12, "columns": 10**12}), encoding="utf-8")
    assert main(argv_reading("geometry", path, tmp_path)) == 0
    keys = json.loads((tmp_path / "o" / "layout.json").read_text(encoding="utf-8"))["keys"]
    assert {key["row"] for key in keys} == {10**12 // 2}


@pytest.mark.parametrize("change", [
    lambda doc: doc.update(keys=5),
    lambda doc: doc.update(geometry=[]),
    lambda doc: doc["keys"][0].update(row="x"),
    lambda doc: doc["keys"][0].update(column=float("inf")),
], ids=["keys a number", "geometry a list", "row not a number", "column infinite"])
def test_layout_field_of_wrong_type_exits_2(tmp_path, capsys, change):
    layout = edit_json(run_all(tmp_path) / "layout.json", change)
    assert main(["evaluate", str(layout), "--corpus", str(SAMPLE),
                 "--out", str(tmp_path / "o")]) == 2
    assert last_error(capsys)["error"] == "MalformedLayout"


@pytest.mark.parametrize("config", [
    {"coverage": "x"}, {"coverage": None}, {"coverage": True}, {"coverage": 2.0},
    {"span_boundaries": "yes"}, {"balance_tiebreak": 1}, {"alphabet_path": 5},
    {"out_dir": None}])
def test_env_config_field_of_wrong_type_exits_2(tmp_path, capsys, monkeypatch, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.setenv("LAYOUTFORGE_CONFIG", str(path))
    assert main(["partition", str(SAMPLE), "--out", str(tmp_path / "o")]) == 2
    error = last_error(capsys)
    assert error["error"] == "ConfigError"
    assert f"wrongly typed config fields: {list(config)}" in error["message"]
    assert not (tmp_path / "o").exists()


def test_env_config_of_right_types_is_accepted(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"alphabet_path": None, "geometry_path": None,
                                "coverage": 2, "span_boundaries": True}), encoding="utf-8")
    monkeypatch.setenv("LAYOUTFORGE_CONFIG", str(path))
    assert main(["partition", str(SAMPLE), "--out", str(tmp_path / "o")]) == 0
    config = json.loads((tmp_path / "o" / "partition.json").read_text(encoding="utf-8"))["config"]
    assert (config["coverage"], config["span_boundaries"]) == (2, True)


# ---------------------------------------------------------------------------
# Negative counts in tables.

def test_partition_tsv_negative_count_exits_2(tmp_path, capsys):
    out = run_all(tmp_path)
    table = out / "digraphs.tsv"
    lines = table.read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if line[0] != "#" and line[:5] != "gram\t")
    gram, _count, pct = lines[row].split("\t")
    lines[row] = f"{gram}\t-40\t{pct}"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["partition", "--mono", str(out / "monograms.tsv"),
                 "--digraphs", str(table), "--out", str(tmp_path / "p")]) == 2
    error = last_error(capsys)
    assert error["error"] == "MalformedInput"
    assert f"gram {gram!r} has a negative count -40" in error["message"]


def test_partition_tsv_negative_total_exits_2(tmp_path, capsys):
    out = run_all(tmp_path)
    table = out / "monograms.tsv"
    lines = [("# total_letters\t-5" if line.startswith("# total_letters") else line)
             for line in table.read_text(encoding="utf-8").splitlines()]
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["partition", "--mono", str(table), "--digraphs", str(out / "digraphs.tsv"),
                 "--out", str(tmp_path / "p")]) == 2
    error = last_error(capsys)
    assert error["error"] == "MalformedInput"
    assert "total_letters -5 is negative" in error["message"]


@pytest.mark.parametrize("name", ["monograms.tsv", "digraphs.tsv"])
def test_partition_tsv_counts_above_the_total_exit_2(tmp_path, capsys, name):
    out = run_all(tmp_path)
    table = out / name
    lines = table.read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if line[0] != "#" and line[:5] != "gram\t")
    gram, count, pct = lines[row].split("\t")
    lines[row] = f"{gram}\t{int(count) * 50}\t{pct}"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["partition", "--mono", str(out / "monograms.tsv"),
                 "--digraphs", str(out / "digraphs.tsv"), "--out", str(tmp_path / "p")]) == 2
    error = last_error(capsys)
    assert error["error"] == "MalformedInput"
    assert error["message"].startswith(f"{table}: counts add up to ")
    assert "more than total_letters" in error["message"]
    assert not (tmp_path / "p").exists()


# ---------------------------------------------------------------------------
# Layout names become file names, so each must name one file inside --out.

BAD_NAMES = {"empty": "", "dot": ".", "dot dot": "..", "slash": "x/../../escaped",
             "NUL": "a\0b", "tab": "x\ty", "DEL": "x\x7fy"}


@pytest.mark.parametrize("name", BAD_NAMES.values(), ids=BAD_NAMES.keys())
def test_layout_name_flag_that_is_no_file_name_exits_2(tmp_path, capsys, name):
    partition = run_all(tmp_path) / "partition.json"
    assert main(["layout", str(partition), "--name", name, "--out", str(tmp_path / "o")]) == 2
    assert last_error(capsys)["error"] == "MalformedLayout"
    assert not (tmp_path / "o").exists()


def test_run_all_name_flag_that_is_no_file_name_exits_2(tmp_path, capsys, monkeypatch):
    (tmp_path / "ok" / "report-x").mkdir(parents=True)
    monkeypatch.chdir(tmp_path / "ok")
    assert main(["run-all", str(SAMPLE), "--name", "x/../escaped"]) == 2
    assert last_error(capsys)["error"] == "MalformedLayout"
    assert not list(tmp_path.rglob("*escaped*"))


@pytest.mark.parametrize("name", ["x\ty", "a/b"], ids=["tab", "slash"])
def test_run_all_refuses_a_bad_name_before_writing(tmp_path, capsys, name):
    assert main(["run-all", str(SAMPLE), "--name", name, "--out", str(tmp_path / "o")]) == 2
    assert last_error(capsys)["error"] == "MalformedLayout"
    assert not list(tmp_path.glob("o/*"))


@pytest.mark.parametrize("name", [5, *BAD_NAMES.values()], ids=["a number", *BAD_NAMES])
def test_layout_file_name_that_is_no_file_name_exits_2(tmp_path, capsys, monkeypatch, name):
    out = run_all(tmp_path)
    (out / "report-x").mkdir()
    layout = edit_json(out / "layout.json", lambda doc: doc.update(name=name))
    monkeypatch.chdir(out)
    assert main(["evaluate", str(layout), "--corpus", str(SAMPLE), "--out", str(out)]) == 2
    assert last_error(capsys)["error"] == "MalformedLayout"
    assert not list(tmp_path.rglob("*escaped*"))
    assert sorted(path.name for path in out.glob("report-*")) == [
        "report-optimized.json", "report-optimized.tsv", "report-x"]


# ---------------------------------------------------------------------------
# Numbers and layer lists of exactly the JSON type they stand for.

def default_priority_geometry():
    default = Geometry()
    return Geometry(priority={hand: [(p.layer, p.row, p.column)
                                     for p in default.position_priority(hand)]
                              for hand in ("left", "right")}).to_dict()


def retype_first_priority_row(kind):
    doc = default_priority_geometry()
    layer, row, column = doc["position_priority"]["left"][0]
    doc["position_priority"]["left"][0] = [layer, kind(row), column]
    return doc


@pytest.mark.parametrize("geometry", [
    {"rows": 4.9}, {"columns": "10"}, {"columns": 10.0},
    {"layers": "abc"}, {"layers": ["base", 5]}, {"layers": {"base": 1, "shift": 2, "ctrl": 3}},
    retype_first_priority_row(str), retype_first_priority_row(float),
    retype_first_priority_row(bool),
], ids=["rows 4.9", "columns a string", "columns 10.0", "layers a string",
        "a layer a number", "layers an object", "priority row a string",
        "priority row a float", "priority row a bool"])
def test_geometry_number_or_layers_of_inexact_type_exits_2(tmp_path, capsys, geometry):
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps(geometry), encoding="utf-8")
    assert main(argv_reading("geometry", path, tmp_path)) == 2
    assert last_error(capsys)["error"] == "ConfigError"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, retype", [
    ("row", str), ("row", lambda row: row + 0.5), ("row", float), ("column", str),
    ("column", float)], ids=["row a string", "row plus a half", "row a float",
                             "column a string", "column a float"])
def test_layout_key_number_of_inexact_type_exits_2(tmp_path, capsys, field, retype):
    layout = edit_json(run_all(tmp_path) / "layout.json",
                       lambda doc: doc["keys"][0].update({field: retype(doc["keys"][0][field])}))
    assert main(["evaluate", str(layout), "--corpus", str(SAMPLE),
                 "--out", str(tmp_path / "o")]) == 2
    assert last_error(capsys)["error"] == "MalformedLayout"


# ---------------------------------------------------------------------------
# Every field of partition, layout and report files, by exact type, and no
# field the reader does not know.

def set_first(key, index, value):
    return lambda doc: doc[key][0].__setitem__(index, value)


def left_letter_twice(doc):
    """The first left letter placed again, with a trace row that agrees."""
    letter = doc["left"][0]
    doc["left"].append(letter)
    doc["trace"].append(next(row for row in doc["trace"] if row["letter"] == letter))


def trace_letter_twice(doc):
    """A second left letter's trace row named for the first: one letter traced twice, one not."""
    first, second = [row for row in doc["trace"] if row["hand"] == "left"][:2]
    second["letter"] = first["letter"]


DOCUMENT_EDITS = {
    "total 12.7": ("partition", lambda doc: doc.update(total_letters=12.7),
                   "wrongly typed partition fields: ['total_letters']"),
    "total true": ("partition", lambda doc: doc.update(total_letters=True),
                   "wrongly typed partition fields: ['total_letters']"),
    "total a string": ("partition", lambda doc: doc.update(total_letters="12"),
                       "wrongly typed partition fields: ['total_letters']"),
    "ranking count 3.9": ("partition", set_first("ranking", 1, 3.9),
                          "wrongly typed partition fields: ['ranking']"),
    "left a string": ("partition", lambda doc: doc.update(left="".join(doc["left"])),
                      "wrongly typed partition fields: ['left']"),
    "degenerate a string": ("partition", lambda doc: doc.update(degenerate="no"),
                            "wrongly typed partition fields: ['degenerate']"),
    "trace score a string": ("partition", set_first("trace", "left_support", "x"),
                             "wrongly typed partition fields: ['trace.left_support']"),
    "negative ranking count": ("partition", set_first("ranking", 1, -3),
                               "ranking counts must not be negative"),
    "negative total": ("partition", lambda doc: doc.update(total_letters=-3),
                       "total_letters and ranking counts must not be negative"),
    "ranking counts above the total": ("partition", set_first("ranking", 1, 10**9),
                                       "more than total_letters"),
    "partition unknown field": ("partition", lambda doc: doc.update(extra=1),
                                "unknown partition fields: ['extra']"),
    "layout unknown field": ("layout", lambda doc: doc.update(extra=1),
                             "unknown layout fields: ['extra']"),
    "key unknown field": ("layout", lambda doc: doc["keys"][0].update(extra=1),
                          "unknown layout fields: ['keys.extra']"),
    "report unknown field": ("report", lambda doc: doc.update(extra=1),
                             "unknown report fields: ['extra']"),
    "letter twice on a hand": ("partition", left_letter_twice,
                               "the left hand lists ["),
    "trace letter twice, another left out": ("partition", trace_letter_twice,
                                             "the trace lists ["),
    "trace rule unknown": ("partition", set_first("trace", "rule", "banana"),
                           "trace rule 'banana' of "),
    "ranking letter twice": ("partition",
                             lambda doc: doc["ranking"].append([doc["ranking"][0][0], 1]),
                             "the ranking lists ["),
    "ranking letter of two code points": ("partition", set_first("ranking", 0, "কা"),
                                          "every placed and ranked letter must be one code point"),
    "negative report count": ("report", lambda doc: doc.update(left_load=-5, right_load=0),
                              "negative report counts: ['left_load']"),
    "report loads do not add up": ("report",
                                   lambda doc: doc.update(total_letters=doc["total_letters"] + 1),
                                   "left_load + right_load + not_determined != total_letters"),
    "more switches than pairs": ("report",
                                 lambda doc: doc.update(hand_switching=doc["left_load"]
                                                        + doc["right_load"]),
                                 "pairs of adjacent determined letters"),
    "a switch without a determined letter": ("report",
                                             lambda doc: doc.update(
                                                 hand_switching=1, left_load=0, right_load=0,
                                                 not_determined=doc["total_letters"]),
                                             "hand_switching 1 is more than the 0 pairs"),
    "report layout name not a file name": ("report",
                                           lambda doc: doc.update(layout_name="x/y\nz"),
                                           "a layout name must be a file name"),
}
ERRORS = {"partition": "ConfigError", "layout": "MalformedLayout", "report": "MalformedInput"}
FILES = {"partition": "partition.json", "layout": "layout.json",
         "report": "report-optimized.json"}


@pytest.mark.parametrize("kind, change, message", DOCUMENT_EDITS.values(),
                         ids=DOCUMENT_EDITS.keys())
def test_document_edit_exits_2(tmp_path, capsys, kind, change, message):
    path = edit_json(run_all(tmp_path) / FILES[kind], change)
    argv = {"partition": ["layout", str(path)],
            "layout": ["evaluate", str(path), "--corpus", str(SAMPLE)],
            "report": ["compare", str(path)]}[kind]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    error = last_error(capsys)
    assert error["error"] == ERRORS[kind]
    assert message in error["message"]
    assert not list(tmp_path.glob("o/*"))


# ---------------------------------------------------------------------------
# Every JSON loader puts the file's path in front of its message, once, also
# for what the builder refuses after the shape check has passed.

def slot_twice(out):
    return edit_json(out / "layout.json", lambda doc: doc["keys"][1].update(
        {field: doc["keys"][0][field] for field in ("hand", "layer", "row", "column")}))


def hands_overlap(out):
    return edit_json(out / "partition.json", lambda doc: doc["left"].append(doc["right"][0]))


def written(name, doc):
    def write(out):
        path = out.parent / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path
    return write


LOADERS = {
    "layout": (slot_twice, lambda path, out: ["evaluate", path, "--corpus", str(SAMPLE)],
               "InvariantViolation", "assigned twice"),
    "geometry": (written("geometry.json", {"rows": 0}),
                 lambda path, out: ["layout", str(out / "partition.json"), "--geometry", path],
                 "ConfigError", "rows must be positive, got 0"),
    "alphabet": (written("alphabet.json", {"ranges": [["a", "z"]], "include": ["a"],
                                           "exclude": ["a"]}),
                 lambda path, out: ["stats", str(SAMPLE), "--alphabet", path],
                 "ConfigError", "include and exclude overlap: U+0061"),
    "partition": (hands_overlap, lambda path, out: ["layout", path],
                  "ConfigError", "hands are not disjoint"),
}


@pytest.mark.parametrize("make, argv, error, message", LOADERS.values(), ids=LOADERS.keys())
def test_json_loader_error_names_the_file_once(tmp_path, capsys, make, argv, error, message):
    out = run_all(tmp_path)
    path = str(make(out))
    assert main([*argv(path, out), "--out", str(tmp_path / "o")]) == 2
    reported = last_error(capsys)
    assert reported["error"] == error
    assert reported["message"].startswith(f"{path}: ")
    assert reported["message"].count(path) == 1
    assert message in reported["message"]
