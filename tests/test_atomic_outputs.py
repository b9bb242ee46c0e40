"""Result files are replaced whole or not at all.

A run that fails while writing keeps the previous run's file intact, and
no run, failed or not, leaves a temporary file in the output directory.
A run refused for its inputs writes nothing at all: no file, no directory.
"""

import errno
import json
from pathlib import Path

import pytest

import layoutforge.atomic
import layoutforge.cli
from layoutforge.cli import main

from conftest import last_error, read_all_bytes

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "bn_sample" / "part1.txt"
OTHER = SAMPLE.with_name("part2.txt")

RUN_ALL_FILES = ["comparison.txt", "digraphs.tsv", "layout.json", "monograms.tsv",
                 "partition.json", "report-optimized.json", "report-optimized.tsv",
                 "summary.json", "trigrams.tsv"]


def test_successful_runs_leave_only_results(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run-all", str(SAMPLE), "--out", str(out)]) == 0
    for argv in (["stats", str(SAMPLE)],
                 ["partition", "--mono", str(out / "monograms.tsv"),
                  "--digraphs", str(out / "digraphs.tsv")],
                 ["layout", str(out / "partition.json")],
                 ["evaluate", str(out / "layout.json"), "--corpus", str(SAMPLE)]):
        assert main([*argv, "--out", str(out)]) == 0
    assert main(["compare", str(out / "report-optimized.json"),
                 "--out", str(out / "comparison.txt")]) == 0
    assert sorted(read_all_bytes(out)) == RUN_ALL_FILES


def disk_full(*_args, **_kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def tsv_header_then_disk_full(table, out, **_kwargs):
    out.write("# layoutforge ngram table\n")
    disk_full()


def json_start_then_disk_full(doc, handle, **_kwargs):
    handle.write('{\n  "left": [')
    disk_full()


@pytest.mark.parametrize("argv, target, attribute, writer", [
    (["stats", str(SAMPLE)], layoutforge.cli, "write_ngram_tsv", tsv_header_then_disk_full),
    (["partition", str(SAMPLE)], layoutforge.atomic, "dump_json", json_start_then_disk_full),
    (["evaluate", "{out}/layout.json", "--corpus", str(SAMPLE)], layoutforge.atomic,
     "dump_json", json_start_then_disk_full),
])
def test_writer_failing_midway_keeps_the_previous_file(tmp_path, monkeypatch, capsys,
                                                       argv, target, attribute, writer):
    out = tmp_path / "out"
    assert main(["run-all", str(SAMPLE), "--out", str(out)]) == 0
    before = read_all_bytes(out)
    monkeypatch.setattr(target, attribute, writer)
    argv = [arg.replace("{out}", str(out)) for arg in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert "No space left" in capsys.readouterr().err
    assert read_all_bytes(out) == before


# Each refusal reads inputs from {inputs}: a geometry without rows, one too
# small for the alphabet, a corpus of one letter, a layout with two keys on
# one slot and a copy of the filled run's layout, whose name repeats. Run on
# another corpus than the filled --out was made from, a write that slipped
# through would change its bytes.
REFUSALS = {
    "run-all, no rows": (["run-all", str(OTHER), "--geometry", "{inputs}/no_rows.json"],
                         "ConfigError"),
    "run-all, too few slots": (["run-all", str(OTHER), "--geometry", "{inputs}/tiny.json"],
                               "CapacityExceeded"),
    "run-all, one letter": (["run-all", "{inputs}/one.txt"], "TooFewLetters"),
    "evaluate, bad layout": (["evaluate", "{inputs}/bad.json", "--corpus", str(OTHER)],
                             "InvariantViolation"),
    "partition, one letter": (["partition", "{inputs}/one.txt"], "TooFewLetters"),
    "evaluate, repeated name": (["evaluate", "{inputs}/../filled/layout.json",
                                 "{inputs}/layout.json", "--corpus", str(OTHER)],
                                "ConfigError"),
}


@pytest.mark.parametrize("argv, error", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_run_writes_nothing(tmp_path, capsys, argv, error):
    filled = tmp_path / "filled"
    assert main(["run-all", str(SAMPLE), "--out", str(filled)]) == 0
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "no_rows.json").write_text('{"rows": 0}', encoding="utf-8")
    (inputs / "tiny.json").write_text('{"rows": 1, "columns": 2, "layers": ["base"]}',
                                      encoding="utf-8")
    (inputs / "one.txt").write_text("ককক কক", encoding="utf-8")
    layout = json.loads((filled / "layout.json").read_text(encoding="utf-8"))
    layout["keys"][1].update({field: layout["keys"][0][field]
                              for field in ("hand", "layer", "row", "column")})
    (inputs / "bad.json").write_text(json.dumps(layout, ensure_ascii=False), encoding="utf-8")
    (inputs / "layout.json").write_bytes((filled / "layout.json").read_bytes())
    before = read_all_bytes(filled)
    argv = [arg.replace("{inputs}", str(inputs)) for arg in argv]
    fresh = tmp_path / "fresh" / "out"
    for out in (fresh, filled):
        assert main([*argv, "--out", str(out)]) == 2
        assert last_error(capsys)["error"] == error
    assert not (tmp_path / "fresh").exists()
    assert read_all_bytes(filled) == before
