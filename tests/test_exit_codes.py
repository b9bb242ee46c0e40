"""Malformed report, table and partition files exit 2, never 1.

Each file is first written by the pipeline itself and then broken in one
way, so every case starts from a shape the reader really accepts.
"""

import json
from pathlib import Path

from layoutforge.cli import main

from test_cli import last_error

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
