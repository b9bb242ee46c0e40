"""Every input reader: its contract and a fuzz.

Exit code 2 means bad input and 1 means a bug, so no input file, however
broken, may make a subcommand exit 1. The fuzz covers every input kind:
n-gram tables, partition files, reports, alphabet files, geometry files,
layout files and the LAYOUTFORGE_CONFIG file. Each is fed as arbitrary
bytes and as a well-formed file with one part replaced or dropped.

The table reader streams its file a block at a time; every table the
line-by-line reader it replaced accepted must read back the same, every
row it refused must be refused with the same message, at any block size,
and a gram whose length is not the header's ``n``, a negative count or a
negative total is malformed. A table that is not UTF-8 is named by the
offset of its first bad byte from the start of the file.
"""

import io
import json
import os
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layoutforge import corpus
from layoutforge.cli import main
from layoutforge.errors import MalformedInput
from layoutforge.layout import Geometry
from layoutforge.stats import NGramTable, read_ngram_tsv, write_ngram_tsv

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "bn_sample" / "part1.txt"

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def run_quiet(argv):
    """Exit code and stderr of one CLI call, with its output kept off the console."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    assert run_quiet(["run-all", SAMPLE, "--out", out])[0] == 0
    return out


class BadRow(ValueError):
    """A row the line-by-line reader refused; its message is the one the reader gives."""


def line_by_line_reader(path):
    """The reader before streaming, restated: (n, total, counts), BadRow or ValueError."""
    n = total = None
    counts = Counter()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if line.startswith("#"):
                    parts = line[1:].strip().split("\t")
                    if len(parts) == 2 and parts[0] == "n":
                        n = int(parts[1])
                    elif len(parts) == 2 and parts[0] == "total_letters":
                        total = int(parts[1])
                    continue
                if line.startswith("gram\t"):
                    continue
                gram, count, _pct = line.split("\t")
                counts[gram] = int(count)
            except ValueError as exc:
                raise BadRow(f"{path}: bad row {line!r}: {exc}") from None
    if n is None or total is None:
        raise ValueError("no header")
    return n, total, counts


def assert_reads_as_before(path):
    try:
        n, total, counts = line_by_line_reader(path)
    except BadRow as bad:
        with pytest.raises(MalformedInput) as refused:
            read_ngram_tsv(path)
        assert str(refused.value) == str(bad)
        return
    except ValueError:
        with pytest.raises(MalformedInput):
            read_ngram_tsv(path)
        return
    if (n not in (1, 2, 3) or any(len(gram) != n for gram in counts)
            or total < 0 or any(count < 0 for count in counts.values())
            or sum(counts.values()) > total):
        with pytest.raises(MalformedInput):
            read_ngram_tsv(path)
        return
    table = read_ngram_tsv(path)
    assert (table.n, table.total_letters, dict(table.counts)) == (n, total, dict(counts))


# ---------------------------------------------------------------------------
# The streaming reader reads what the line-by-line reader read.

def test_table_layouts_read_as_before(pipeline, tmp_path):
    assert_layouts_read_as_before(pipeline, tmp_path)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_table_layouts_read_as_before_in_small_blocks(pipeline, tmp_path, monkeypatch, block):
    """Blocks of a line or less, and of a few lines, so that every seam meets every layout."""
    monkeypatch.setattr(corpus, "_READ_BLOCK", block)
    assert_layouts_read_as_before(pipeline, tmp_path)


def assert_layouts_read_as_before(pipeline, tmp_path):
    text = (pipeline / "digraphs.tsv").read_text(encoding="utf-8")
    header, body = text.split("gram\tcount\tpercentage\n")
    rows = body.splitlines(keepends=True)
    variants = {
        "as written": text,
        "blank lines": header + "\n" + "gram\tcount\tpercentage\n\n" + "\n".join(rows),
        "comments after the column header": (header + "gram\tcount\tpercentage\n# note\n"
                                             + "".join(rows[:3]) + "#\tx\t1\n"
                                             + "".join(rows[3:])),
        "header after the rows": "gram\tcount\tpercentage\n" + body + header,
        "no column header": header + body,
        "repeated column header": text + "gram\tcount\tpercentage\ngram\t5\t1.0\n",
        "no final newline": text.rstrip("\n"),
        "CRLF": text.replace("\n", "\r\n"),
        "lone CR": text.replace("\n", "\r"),
        "CR, CRLF and LF mixed": "".join(line + ("\r", "\r\n", "\n")[i % 3]
                                         for i, line in enumerate(text.split("\n"))),
        "n restated": text + "# n\t2\t\n",
    }
    for name, variant in variants.items():
        path = tmp_path / f"{name}.tsv"
        path.write_bytes(variant.encode("utf-8"))
        assert_reads_as_before(path)
        assert len(read_ngram_tsv(path).counts) == len(rows), name


@pytest.mark.parametrize("block", [1, 7, 64, corpus._READ_BLOCK])
@pytest.mark.parametrize("rows, named", [
    # Two tabs a row on average: a block's fields line up however its rows split.
    ("ab\t5\n7\tcd\t3\t1.0\n", "ab\t5"),
    ("ab\t1\tx\tcd\n5\ty\n", "ab\t1\tx\tcd"),
    ("ab\t5\t1.0\n#\tx\t1\n\t\n", "\t"),
    ("ab\t5\t1.0\ngram\tx\nab\tfive\t1.0\n", "ab\tfive\t1.0"),
])
def test_bad_rows_are_named_in_any_block(tmp_path, monkeypatch, block, rows, named):
    path = tmp_path / "table.tsv"
    path.write_text(tsv_with_header(2, 99, "ab\t1\t1.0\n" * 9 + rows), encoding="utf-8")
    monkeypatch.setattr(corpus, "_READ_BLOCK", block)
    with pytest.raises(MalformedInput) as refused:
        read_ngram_tsv(path)
    assert str(refused.value).startswith(f"{path}: bad row {named!r}: ")
    assert_reads_as_before(path)


@pytest.mark.parametrize("block", [1, 7, 64, corpus._READ_BLOCK])
def test_a_table_that_is_not_utf8_names_the_byte_offset(pipeline, tmp_path, monkeypatch, block):
    """The offset counts from the start of the file, whatever block the bad byte falls in."""
    letters = [chr(cp) for cp in [*range(0x0905, 0x0939), *range(0x0995, 0x09B9)]]
    counts = Counter({a + b: 1 + (i % 7) for i, (a, b) in
                      enumerate((a, b) for a in letters for b in letters)})
    out = io.StringIO()
    write_ngram_tsv(NGramTable(2, counts, counts.total()), out)
    data = out.getvalue().encode("utf-8")
    offset = data.index(b"\n", 2 * len(data) // 3) + 1  # a row's start, past the first blocks
    assert offset > 2 * corpus._READ_BLOCK
    digraphs = tmp_path / "digraphs.tsv"
    digraphs.write_bytes(data[:offset] + b"\xff" + data[offset:])
    monkeypatch.setattr(corpus, "_READ_BLOCK", block)
    code, err = run_quiet(["partition", "--mono", pipeline / "monograms.tsv",
                           "--digraphs", digraphs, "--out", tmp_path / "p"])
    assert code == 2
    assert json.loads(err.splitlines()[-1]) == {
        "error": "MalformedInput",
        "message": f"{digraphs}: invalid UTF-8 at byte offset {offset}"}
    assert not (tmp_path / "p").exists()


def tsv_with_header(n, total, body):
    return (f"# layoutforge ngram table\n# n\t{n}\n# total_letters\t{total}\n"
            f"gram\tcount\tpercentage\n{body}")


table_bodies = st.text(alphabet=st.sampled_from("ab\t\n\r#-0123456789 .gram"), max_size=120)
# Mostly rows, some of them bad, among odd lines: bodies whose blocks the
# reader parses in bulk as well as line by line.
rows = st.builds("{}\t{}\t{}".format, st.text("ab", min_size=1, max_size=3),
                 st.integers(-2, 99) | st.sampled_from(["", "x", " 7", "1.0"]),
                 st.sampled_from(["1.0", "", "x\t"]))
row_bodies = st.builds(str.__add__,
                       st.lists(rows | st.text(st.sampled_from("ab\t#-0 gram"), max_size=12),
                                max_size=30).map("\n".join),
                       st.sampled_from(["", "\n"]))


@FUZZ
@given(n=st.integers(0, 4), total=st.integers(-3, 10**6), body=table_bodies | row_bodies,
       block=st.sampled_from([1, 5, 16, 64, corpus._READ_BLOCK]))
def test_fuzzed_tables_read_as_before(tmp_path_factory, n, total, body, block):
    path = tmp_path_factory.mktemp("tsv") / "table.tsv"
    path.write_text(tsv_with_header(n, total, body), encoding="utf-8")
    with mock.patch.object(corpus, "_READ_BLOCK", block):
        assert_reads_as_before(path)


# ---------------------------------------------------------------------------
# Gram length.

@pytest.mark.parametrize("table, named", [
    ("# n\t2\n# total_letters\t9\ngram\tcount\tpercentage\nab\t2\t1.0\nabc\t2\t1.0\n",
     "'abc' is not 2 letter(s) long"),
    ("# n\t4\n# total_letters\t9\ngram\tcount\tpercentage\nabcd\t2\t1.0\n",
     "n must be one of (1, 2, 3), got 4"),
])
def test_partition_rejects_grams_of_the_wrong_length(pipeline, tmp_path, table, named):
    digraphs = tmp_path / "digraphs.tsv"
    digraphs.write_text(table, encoding="utf-8")
    code, err = run_quiet(["partition", "--mono", pipeline / "monograms.tsv",
                           "--digraphs", digraphs, "--out", tmp_path / "p"])
    assert code == 2
    error = json.loads(err.splitlines()[-1])
    assert error["error"] == "MalformedInput"
    assert named in error["message"]
    assert not (tmp_path / "p" / "partition.json").exists()


# ---------------------------------------------------------------------------
# Fuzz: every input kind, as arbitrary bytes and as a well-formed file with
# one part replaced.

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8)


def replace_part(doc, data):
    """Replace or drop one top-level field, or one field of a nested row."""
    target = doc
    while True:
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        if not keys:
            return doc
        key = data.draw(st.sampled_from(keys))
        child = target[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            target = child
            continue
        if isinstance(target, dict) and data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(json_values)
        return doc


def assert_exit_0_or_2(argv):
    code, err = run_quiet(argv)
    assert code in (0, 2), err


@FUZZ
@given(kind=st.sampled_from(["--mono", "--digraphs"]), data=st.data())
def test_fuzzed_tables_never_exit_1(pipeline, tmp_path_factory, kind, data):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "table.tsv"
    if data.draw(st.booleans()):
        path.write_bytes(data.draw(st.binary(max_size=300)))
    else:
        body = data.draw(table_bodies | st.text(max_size=60))
        path.write_text(tsv_with_header(data.draw(st.integers(-1, 4)),
                                        data.draw(st.integers(-3, 10**6)), body),
                        encoding="utf-8")
    tables = {"--mono": pipeline / "monograms.tsv", "--digraphs": pipeline / "digraphs.tsv"}
    tables[kind] = path
    assert_exit_0_or_2(["partition", "--mono", tables["--mono"], "--digraphs",
                        tables["--digraphs"], "--out", work / "out"])


@FUZZ
@given(data=st.data())
def test_fuzzed_partition_files_never_exit_1(pipeline, tmp_path_factory, data):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "partition.json"
    if data.draw(st.booleans()):
        path.write_bytes(data.draw(st.binary(max_size=300)))
    else:
        doc = json.loads((pipeline / "partition.json").read_text(encoding="utf-8"))
        path.write_text(json.dumps(replace_part(doc, data)), encoding="utf-8")
    assert_exit_0_or_2(["layout", path, "--out", work / "out"])


@FUZZ
@given(data=st.data())
def test_fuzzed_reports_never_exit_1(pipeline, tmp_path_factory, data):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "report.json"
    if data.draw(st.booleans()):
        path.write_bytes(data.draw(st.binary(max_size=300)))
    else:
        doc = json.loads((pipeline / "report-optimized.json").read_text(encoding="utf-8"))
        path.write_text(json.dumps(replace_part(doc, data)), encoding="utf-8")
    assert_exit_0_or_2(["compare", path, pipeline / "report-optimized.json",
                        "--out", work / "comparison.txt"])


def write_fuzzed_json(path, doc, data):
    """Arbitrary bytes, or ``doc`` with one part replaced or dropped."""
    if data.draw(st.booleans()):
        path.write_bytes(data.draw(st.binary(max_size=300)))
    else:
        path.write_text(json.dumps(replace_part(doc, data)), encoding="utf-8")
    return path


ALPHABET = {"ranges": [["U+0980", "U+09FF"], ["a", "z"]], "include": ["U+0964"],
            "exclude": ["U+09E6", "U+09E7"]}


@FUZZ
@given(data=st.data())
def test_fuzzed_alphabet_files_never_exit_1(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("fuzz")
    path = write_fuzzed_json(work / "alphabet.json", json.loads(json.dumps(ALPHABET)), data)
    assert_exit_0_or_2(["stats", SAMPLE, "--alphabet", path, "--out", work / "out"])


def geometry_doc():
    """The default geometry, its fill order spelled out."""
    default = Geometry()
    priority = {hand: [(p.layer, p.row, p.column) for p in default.position_priority(hand)]
                for hand in ("left", "right")}
    return Geometry(priority=priority).to_dict()


@FUZZ
@given(data=st.data())
def test_fuzzed_geometry_files_never_exit_1(pipeline, tmp_path_factory, data):
    work = tmp_path_factory.mktemp("fuzz")
    path = write_fuzzed_json(work / "geometry.json", geometry_doc(), data)
    assert_exit_0_or_2(["layout", pipeline / "partition.json", "--geometry", path,
                        "--out", work / "out"])


@FUZZ
@given(data=st.data())
def test_fuzzed_layout_files_never_exit_1(pipeline, tmp_path_factory, data):
    work = tmp_path_factory.mktemp("fuzz")
    layout = json.loads((pipeline / "layout.json").read_text(encoding="utf-8"))
    path = write_fuzzed_json(work / "layout.json", layout, data)
    assert_exit_0_or_2(["evaluate", path, "--corpus", SAMPLE, "--out", work / "out"])


@FUZZ
@given(data=st.data())
def test_fuzzed_config_files_never_exit_1(pipeline, tmp_path_factory, data):
    work = tmp_path_factory.mktemp("fuzz")
    alphabet = work / "alphabet.json"
    alphabet.write_text(json.dumps(ALPHABET), encoding="utf-8")
    geometry = work / "geometry.json"
    geometry.write_text(json.dumps(geometry_doc()), encoding="utf-8")
    config = {"alphabet_path": str(alphabet), "geometry_path": str(geometry),
              "out_dir": str(work / "unused"), "coverage": 2, "balance_tiebreak": True,
              "reset_on_boundary": True, "span_boundaries": False}
    path = write_fuzzed_json(work / "config.json", config, data)
    with mock.patch.dict(os.environ, {"LAYOUTFORGE_CONFIG": str(path)}):
        assert_exit_0_or_2(["run-all", SAMPLE, "--out", work / "out"])
