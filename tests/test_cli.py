"""Command line behavior: files in, files out, exit codes, error lines."""

import io
import json

import pytest

from layoutforge.cli import main
from layoutforge.corpus import AlphabetConfig
from layoutforge.layout import Geometry
from conftest import SAMPLE, last_error, read_all_bytes


def write_corpus(tmp_path, text, name="corpus.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# stats

def test_stats_single_letter_corpus(tmp_path, capsys):
    corpus = write_corpus(tmp_path, "ককক")
    out = tmp_path / "out"
    assert main(["stats", corpus, "--out", str(out)]) == 0
    lines = (out / "monograms.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[-1] == "ক\t3\t100.000000"
    digraphs = (out / "digraphs.tsv").read_text(encoding="utf-8").splitlines()
    assert digraphs[-1] == "কক\t2\t66.666667"
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["total_letters"] == 3
    assert summary["distinct_letters"] == 1
    assert summary["config"]["coverage"] == 1


def test_stats_empty_corpus_exits_2(tmp_path, capsys):
    corpus = write_corpus(tmp_path, "")
    assert main(["stats", corpus, "--out", str(tmp_path / "out")]) == 2
    error = last_error(capsys)
    assert error["error"] == "EmptyCorpus"
    assert "empty corpus" in error["message"]


def test_stats_no_letters_exits_2(tmp_path, capsys):
    corpus = write_corpus(tmp_path, "hello world 123")
    assert main(["stats", corpus, "--out", str(tmp_path / "out")]) == 2
    assert "empty corpus" in last_error(capsys)["message"]


def test_stats_file_order_does_not_matter(tmp_path):
    a = write_corpus(tmp_path, "কাক খ", "a.txt")
    b = write_corpus(tmp_path, "খি ক", "b.txt")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["stats", a, b, "--out", str(out1)]) == 0
    assert main(["stats", b, a, "--out", str(out2)]) == 0
    assert read_all_bytes(out1) == read_all_bytes(out2)


def test_stats_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO("কখ".encode("utf-8")), encoding="utf-8"))
    out = tmp_path / "out"
    assert main(["stats", "--out", str(out)]) == 0
    lines = (out / "monograms.tsv").read_text(encoding="utf-8").splitlines()
    assert "ক\t1\t50.000000" in lines


def test_stats_missing_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["stats", missing, "--out", str(tmp_path / "out")]) == 2
    assert "nope.txt" in last_error(capsys)["message"]


def test_stats_invalid_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes("ক".encode("utf-8")[:2])  # truncated multibyte char
    assert main(["stats", str(path), "--out", str(tmp_path / "out")]) == 2
    assert last_error(capsys)["error"] == "InvalidEncoding"


def test_stats_invalid_utf8_names_the_file(tmp_path, capsys):
    good = write_corpus(tmp_path, "কখ", name="good.txt")
    bad = tmp_path / "bad.txt"
    bad.write_bytes("কখ".encode("utf-8") + "ক".encode("utf-8")[:2])
    assert main(["stats", good, str(bad), "--out", str(tmp_path / "out")]) == 2
    error = last_error(capsys)
    assert error["error"] == "InvalidEncoding"
    assert error["message"] == f"{bad}: invalid UTF-8 at byte offset 6"


@pytest.mark.parametrize("alphabet, refused", [
    ({"ranges": [["a", "z"]], "include": ["#"]}, "U+0023"),
    ({"ranges": [["U+0000", "U+007F"]]}, "U+0009, U+000A, U+000D, U+0023"),
    ({"ranges": [["U+0000", "U+007F"]], "exclude": ["#", "U+0009", "U+000A", "U+000D"]},
     None),
])
def test_alphabet_letters_no_table_can_hold_exit_2(tmp_path, capsys, alphabet, refused):
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps(alphabet), encoding="utf-8")
    corpus = write_corpus(tmp_path, "ab #c")
    code = main(["stats", corpus, "--alphabet", str(alpha), "--out", str(tmp_path / "out")])
    if refused is None:
        assert code == 0
        return
    assert code == 2
    error = last_error(capsys)
    assert error["error"] == "ConfigError"
    assert f"cannot hold the letters {refused}; exclude them" in error["message"]


def test_stats_custom_alphabet(tmp_path):
    alpha = tmp_path / "alpha.json"
    alpha.write_text('{"ranges": [["U+0061", "U+007A"]], "exclude": []}',
                     encoding="utf-8")
    corpus = write_corpus(tmp_path, "abc ab")
    out = tmp_path / "out"
    assert main(["stats", corpus, "--alphabet", str(alpha), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["total_letters"] == 5


# ---------------------------------------------------------------------------
# partition

def test_partition_too_few_letters_exits_2(tmp_path, capsys):
    corpus = write_corpus(tmp_path, "কখগ")
    assert main(["partition", corpus, "--out", str(tmp_path / "out")]) == 2
    assert last_error(capsys)["error"] == "TooFewLetters"


def test_partition_rerun_is_byte_identical(tmp_path):
    corpus = write_corpus(tmp_path, "কাক খিগা")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["partition", corpus, "--out", str(out1)]) == 0
    assert main(["partition", corpus, "--out", str(out2)]) == 0
    assert (out1 / "partition.json").read_bytes() == (out2 / "partition.json").read_bytes()


def test_partition_from_stats_tables_matches_corpus_route(tmp_path):
    corpus = write_corpus(tmp_path, "কাকি খাগিক")
    stats_out = tmp_path / "stats"
    assert main(["stats", corpus, "--out", str(stats_out)]) == 0
    direct, via_tables = tmp_path / "direct", tmp_path / "tables"
    assert main(["partition", corpus, "--out", str(direct)]) == 0
    assert main(["partition",
                 "--mono", str(stats_out / "monograms.tsv"),
                 "--digraphs", str(stats_out / "digraphs.tsv"),
                 "--out", str(via_tables)]) == 0
    assert ((direct / "partition.json").read_bytes()
            == (via_tables / "partition.json").read_bytes())


def test_partition_rejects_mixed_inputs(tmp_path, capsys):
    corpus = write_corpus(tmp_path, "কাকি")
    assert main(["partition", corpus, "--mono", "x.tsv",
                 "--out", str(tmp_path / "out")]) == 2
    assert last_error(capsys)["error"] == "ConfigError"


def test_partition_rejects_wrong_table_order(tmp_path, capsys):
    corpus = write_corpus(tmp_path, "কাকি খ")
    stats_out = tmp_path / "stats"
    assert main(["stats", corpus, "--out", str(stats_out)]) == 0
    assert main(["partition",
                 "--mono", str(stats_out / "digraphs.tsv"),
                 "--digraphs", str(stats_out / "monograms.tsv"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "1-gram" in last_error(capsys)["message"]


def test_partition_rejects_tables_of_two_corpora(tmp_path, capsys):
    one, two = tmp_path / "one", tmp_path / "two"
    assert main(["stats", write_corpus(tmp_path, "কাকি খাগিক"), "--out", str(one)]) == 0
    assert main(["stats", write_corpus(tmp_path, "কাকি খ", "other.txt"), "--out", str(two)]) == 0
    assert main(["partition", "--mono", str(one / "monograms.tsv"),
                 "--digraphs", str(two / "digraphs.tsv"), "--out", str(tmp_path / "out")]) == 2
    error = last_error(capsys)
    assert error["error"] == "ConfigError"
    assert "--mono counts 9 letters and --digraphs 5" in error["message"]
    assert not (tmp_path / "out").exists()


def test_partition_trace_is_auditable(tmp_path):
    corpus = write_corpus(tmp_path, "কাক খিগ")
    out = tmp_path / "out"
    assert main(["partition", corpus, "--out", str(out)]) == 0
    doc = json.loads((out / "partition.json").read_text(encoding="utf-8"))
    assert set(doc) >= {"left", "right", "trace", "ranking", "total_letters", "config"}
    assert len(doc["trace"]) == len(doc["left"]) + len(doc["right"])
    for row in doc["trace"]:
        assert set(row) == {"letter", "left_support", "left_confidence",
                            "right_support", "right_confidence", "hand", "rule"}


# ---------------------------------------------------------------------------
# layout / evaluate / compare

def pipeline_to_layout(tmp_path, text):
    corpus = write_corpus(tmp_path, text)
    out = tmp_path / "out"
    assert main(["partition", corpus, "--out", str(out)]) == 0
    assert main(["layout", str(out / "partition.json"), "--out", str(out)]) == 0
    return corpus, out


def test_layout_from_partition_file(tmp_path):
    _corpus, out = pipeline_to_layout(tmp_path, "কাক খিগা")
    doc = json.loads((out / "layout.json").read_text(encoding="utf-8"))
    assert doc["name"] == "optimized"
    letters = {k["letter"] for k in doc["keys"]}
    assert letters == {"ক", "া", "খ", "ি", "গ"}


def test_layout_name_flag(tmp_path):
    corpus = write_corpus(tmp_path, "কাক খিগা")
    out = tmp_path / "out"
    assert main(["partition", corpus, "--out", str(out)]) == 0
    assert main(["layout", str(out / "partition.json"), "--name", "mine",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "layout.json").read_text(encoding="utf-8"))
    assert doc["name"] == "mine"


def test_evaluate_writes_conserving_report(tmp_path):
    corpus, out = pipeline_to_layout(tmp_path, "কাক খিগা")
    assert main(["evaluate", str(out / "layout.json"), "--corpus", corpus,
                 "--out", str(out)]) == 0
    report = json.loads((out / "report-optimized.json").read_text(encoding="utf-8"))
    assert (report["left_load"] + report["right_load"] + report["not_determined"]
            == report["total_letters"])
    assert (out / "report-optimized.tsv").exists()


def test_evaluate_missing_layout_exits_2(tmp_path, capsys):
    corpus = write_corpus(tmp_path, "কা")
    missing = str(tmp_path / "absent-layout.json")
    assert main(["evaluate", missing, "--corpus", corpus,
                 "--out", str(tmp_path / "out")]) == 2
    assert "absent-layout.json" in last_error(capsys)["message"]


def test_evaluate_multiple_layouts(tmp_path):
    corpus, out = pipeline_to_layout(tmp_path, "কাক খিগা")
    second = out / "second.json"
    doc = json.loads((out / "layout.json").read_text(encoding="utf-8"))
    doc["name"] = "variant"
    second.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert main(["evaluate", str(out / "layout.json"), str(second),
                 "--corpus", corpus, "--out", str(out)]) == 0
    assert (out / "report-optimized.json").exists()
    assert (out / "report-variant.json").exists()


def test_evaluate_refuses_a_repeated_layout_name(tmp_path, capsys):
    corpus, out = pipeline_to_layout(tmp_path, "কাক খিগা")
    first = out / "layout.json"
    second = tmp_path / "other" / "layout.json"
    second.parent.mkdir()
    second.write_bytes(first.read_bytes())
    assert main(["evaluate", str(first), str(second), "--corpus", corpus,
                 "--out", str(out)]) == 2
    error = last_error(capsys)
    assert error["error"] == "ConfigError"
    assert str(first) in error["message"] and str(second) in error["message"]


def test_compare_prints_ranked_table(tmp_path, capsys):
    corpus, out = pipeline_to_layout(tmp_path, "কাক খিগা")
    assert main(["evaluate", str(out / "layout.json"), "--corpus", corpus,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    table_file = tmp_path / "table.txt"
    assert main(["compare", str(out / "report-optimized.json"),
                 "--out", str(table_file)]) == 0
    shown = capsys.readouterr().out
    assert shown.splitlines()[0].startswith("layout")
    assert "optimized" in shown
    assert table_file.read_text(encoding="utf-8") == shown


def test_malformed_layout_exits_2(tmp_path, capsys):
    corpus = write_corpus(tmp_path, "কা")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert main(["evaluate", str(bad), "--corpus", corpus,
                 "--out", str(tmp_path / "out")]) == 2
    assert last_error(capsys)["error"] == "MalformedLayout"


# ---------------------------------------------------------------------------
# run-all and config plumbing

def test_run_all_produces_every_stage(tmp_path, capsys):
    paths = [str(p) for p in SAMPLE]
    out = tmp_path / "out"
    assert main(["run-all", *paths, "--out", str(out)]) == 0
    for name in ("monograms.tsv", "digraphs.tsv", "trigrams.tsv", "summary.json",
                 "partition.json", "layout.json", "report-optimized.json",
                 "report-optimized.tsv", "comparison.txt"):
        assert (out / name).exists(), name
    shown = capsys.readouterr().out
    assert shown == (out / "comparison.txt").read_text(encoding="utf-8")


def test_env_config_supplies_defaults_and_flags_override(tmp_path, monkeypatch):
    corpus = write_corpus(tmp_path, "কাক খিগা")
    env_out = tmp_path / "from-env"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(env_out)}), encoding="utf-8")
    monkeypatch.setenv("LAYOUTFORGE_CONFIG", str(config))
    assert main(["stats", corpus]) == 0
    assert (env_out / "monograms.tsv").exists()
    flag_out = tmp_path / "from-flag"
    assert main(["stats", corpus, "--out", str(flag_out)]) == 0
    assert (flag_out / "monograms.tsv").exists()


def test_env_config_rejects_unknown_fields(tmp_path, capsys, monkeypatch):
    corpus = write_corpus(tmp_path, "কা")
    config = tmp_path / "config.json"
    config.write_text('{"geometry": "x.json"}', encoding="utf-8")
    monkeypatch.setenv("LAYOUTFORGE_CONFIG", str(config))
    assert main(["stats", corpus, "--out", str(tmp_path / "out")]) == 2
    assert "unknown config fields" in last_error(capsys)["message"]


def test_config_echo_never_names_inputs(tmp_path):
    corpus = write_corpus(tmp_path, "কাক খিগা",
                          "secret-name.txt")
    out = tmp_path / "out"
    assert main(["run-all", corpus, "--out", str(out)]) == 0
    for name in ("summary.json", "partition.json", "report-optimized.json"):
        assert "secret-name" not in (out / name).read_text(encoding="utf-8")


def test_config_echo_holds_named_files_as_documents(tmp_path, monkeypatch):
    """One alphabet and geometry, kept in two places, give the same files."""
    paths = [str(p) for p in SAMPLE]
    alphabet = {"ranges": [["U+0980", "U+09FF"]], "exclude": ["U+09E6", "U+09E7"]}
    geometry = {"rows": 3, "columns": 6}
    outputs = {}
    for where in ("a1", "a2", "env"):
        (tmp_path / where).mkdir()
        (tmp_path / where / "al.json").write_text(json.dumps(alphabet), encoding="utf-8")
        (tmp_path / where / "geo.json").write_text(json.dumps(geometry), encoding="utf-8")
        argv = ["run-all", *paths, "--out", str(tmp_path / where / "out")]
        named = {"alphabet_path": str(tmp_path / where / "al.json"),
                 "geometry_path": str(tmp_path / where / "geo.json")}
        if where == "env":
            config = tmp_path / where / "config.json"
            config.write_text(json.dumps(named), encoding="utf-8")
            monkeypatch.setenv("LAYOUTFORGE_CONFIG", str(config))
        else:
            argv += ["--alphabet", named["alphabet_path"], "--geometry", named["geometry_path"]]
        assert main(argv) == 0
        outputs[where] = read_all_bytes(tmp_path / where / "out")
    assert outputs["a1"] == outputs["a2"] == outputs["env"]
    echo = json.loads(outputs["a1"]["summary.json"])["config"]
    assert echo["alphabet_path"] == AlphabetConfig.from_dict(alphabet).to_dict()
    assert echo["geometry_path"] == Geometry.from_dict(geometry).to_dict()


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["layout"]) == 2  # missing required positional


def test_coverage_flag_reaches_partition(tmp_path):
    corpus = write_corpus(
        tmp_path, "কাকা খিখ গগ ঘ")
    out = tmp_path / "out"
    assert main(["partition", corpus, "--coverage", "2", "--out", str(out)]) == 0
    doc = json.loads((out / "partition.json").read_text(encoding="utf-8"))
    assert "ঘ" not in doc["left"] + doc["right"]
    assert doc["config"]["coverage"] == 2


def test_geometry_flag_reaches_layout(tmp_path, capsys):
    corpus = write_corpus(tmp_path, "কাক খিগা")
    out = tmp_path / "out"
    assert main(["partition", corpus, "--out", str(out)]) == 0
    geo = tmp_path / "geo.json"
    geo.write_text('{"rows": 1, "columns": 2, "layers": ["base"]}', encoding="utf-8")
    # 1 slot per hand cannot fit this partition
    assert main(["layout", str(out / "partition.json"), "--geometry", str(geo),
                 "--out", str(out)]) == 2
    assert last_error(capsys)["error"] == "CapacityExceeded"
