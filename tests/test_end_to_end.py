"""run-all against the oracle, and the stage commands against run-all, on drawn corpora.

Hypothesis draws one to three small files over an alphabet of four to
eight letters, which may hold astral letters, a space or NUL taken as a
letter, and letters a regular expression treats specially, and it draws
a flag set. Every file run-all writes must hold what ``oracle.py`` gives
for that corpus, and running stats, partition from the tables, layout,
evaluate and compare in turn, with the same flags given through one
LAYOUTFORGE_CONFIG file, must write the same bytes, stdout included. A
corpus with fewer than four letters at the coverage floor is refused
with exit 2, and nothing is written. A second run of the property cuts
the corpus into parts of a few bytes, counted in forked children.
"""

import json
import os
import unicodedata
from contextlib import redirect_stdout
from io import StringIO

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layoutforge import corpus
from layoutforge.cli import main
from conftest import read_all_bytes, write_files
import oracle

# Astral letters up to the top of the code space, a space and NUL, and the
# letters a character class must escape. A pool letter left out of the
# alphabet is a boundary, as are '.' and LF.
POOL = "abক\U0001F600\U0010FFFF \x00]^-\\"
FILES = ["comparison.txt", "digraphs.tsv", "layout.json", "monograms.tsv", "partition.json",
         "report-optimized.json", "report-optimized.tsv", "summary.json", "trigrams.tsv"]
FLAGS = {"balance_tiebreak": "--balance-tiebreak", "reset_on_boundary": "--reset-on-boundary",
         "span_boundaries": "--span-boundaries"}


def call(argv):
    """Exit code and stdout of one command."""
    out = StringIO()
    with redirect_stdout(out):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue()


def expected_files(runs, echo):
    """Every file run-all writes, as the oracle has it: text, or a parsed JSON document.

    ``echo`` is the configuration the files must echo: every setting but the
    output directory, with the alphabet file as the document it holds.
    """
    mono, digraphs, trigrams, _junctions = oracle.count(runs, echo["span_boundaries"])
    total = sum(mono.values())
    files = {"summary.json": {"total_letters": total, "distinct_letters": len(mono),
                              "config": echo}}
    for name, n, table in (("monograms", 1, mono), ("digraphs", 2, digraphs),
                           ("trigrams", 3, trigrams)):
        files[f"{name}.tsv"] = "".join(
            [f"# layoutforge ngram table\n# n\t{n}\n# total_letters\t{total}\n",
             f"# config\t{json.dumps(echo, sort_keys=True, ensure_ascii=False)}\n",
             "gram\tcount\tpercentage\n"]
            + [f"{gram}\t{count}\t{100.0 * count / total:.6f}\n"
               for gram, count in oracle.ranked(table)])
    left, right, trace = oracle.greedy(mono, digraphs, total, echo["coverage"],
                                       echo["balance_tiebreak"])
    fields = ("letter", "left_support", "left_confidence", "right_support",
              "right_confidence", "hand", "rule")
    files["partition.json"] = {
        "left": left, "right": right, "degenerate": False, "total_letters": total,
        "ranking": [list(row) for row in oracle.ranked(mono)],
        "trace": [dict(zip(fields, row)) for row in trace], "config": echo}
    keys = oracle.placement(left, right, mono)
    layers = ["base", "shift", "ctrl"]
    files["layout.json"] = {
        "name": "optimized", "geometry": {"rows": 3, "columns": 10, "layers": layers},
        "keys": [{"letter": letter, "code_point": f"U+{ord(letter):04X}", "hand": hand,
                  "layer": layer, "row": row, "column": column}
                 for letter, (hand, layer, row, column)
                 in sorted(keys.items(), key=lambda kv: (layers.index(kv[1][1]), *kv[1][2:]))]}
    tokens = [token for run in runs for token in (None, *run)]
    hand_of = {letter: key[0] for letter, key in keys.items()}
    loads = oracle.replay(hand_of, tokens, echo["reset_on_boundary"])
    report = dict(zip(("left_load", "right_load", "not_determined", "hand_switching"), loads))
    files["report-optimized.json"] = {"layout_name": "optimized", **report,
                                      "total_letters": total, "config": echo}
    files["report-optimized.tsv"] = (
        "layout_name\thand_switching\tleft_load\tright_load\tnot_determined\ttotal_letters\n"
        f"optimized\t{loads[3]}\t{loads[0]}\t{loads[1]}\t{loads[2]}\t{total}\n")
    return files


@st.composite
def corpora(draw):
    letters = draw(st.lists(st.sampled_from(POOL), min_size=4, max_size=8, unique=True))
    words = st.text(st.sampled_from(letters), min_size=1, max_size=8)
    others = st.sampled_from([ch for ch in POOL + ".\n" if ch not in letters])
    texts = draw(st.lists(st.lists(st.one_of(words, others), max_size=12).map("".join),
                          min_size=1, max_size=3))
    flags = draw(st.fixed_dictionaries({"coverage": st.integers(1, 3),
                                        **{flag: st.booleans() for flag in FLAGS}}))
    return letters, texts, flags


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=corpora())
def test_run_all_writes_what_the_oracle_and_the_stages_give(tmp_path_factory, monkeypatch,
                                                            case):
    check_run_all_and_the_stages(tmp_path_factory, monkeypatch, case)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="parts are counted in forks")
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=corpora(), cpus=st.integers(1, 4), min_part=st.integers(1, 8))
def test_run_all_in_forked_parts_writes_what_the_oracle_and_the_stages_give(
        tmp_path_factory, monkeypatch, case, cpus, min_part):
    """Each '.' is an LF here, as both are boundaries, so that cuts fall inside files too."""
    letters, texts, flags = case
    case = letters, [text.replace(".", "\n") for text in texts], flags
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        patch.setattr(corpus, "_MIN_PART", min_part)
        check_run_all_and_the_stages(tmp_path_factory, monkeypatch, case)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def check_run_all_and_the_stages(tmp_path_factory, monkeypatch, case):
    letters, texts, flags = case
    tmp = tmp_path_factory.mktemp("case")
    paths = write_files(tmp, texts)
    alphabet = {"ranges": [], "include": sorted(f"U+{ord(ch):04X}" for ch in letters),
                "exclude": []}
    (tmp / "alphabet.json").write_text(json.dumps(alphabet), encoding="utf-8")
    argv = ["run-all", *paths, "--alphabet", tmp / "alphabet.json", "--out", tmp / "run",
            "--coverage", flags["coverage"], *[FLAGS[flag] for flag in FLAGS if flags[flag]]]
    code, stdout = call(argv)

    runs = [run for text in texts
            for run in oracle.letter_runs(unicodedata.normalize("NFC", text), set(letters))]
    mono = oracle.count(runs)[0]
    if sum(count >= flags["coverage"] for count in mono.values()) < 4:
        assert code == 2
        assert not (tmp / "run").exists()
        return
    assert code == 0
    written = read_all_bytes(tmp / "run")
    assert sorted(written) == FILES
    assert written["comparison.txt"].decode("utf-8") == stdout
    echo = {"alphabet_path": alphabet, "geometry_path": None, **flags}
    for name, expected in expected_files(runs, echo).items():
        text = written[name].decode("utf-8")
        assert (json.loads(text) if name.endswith(".json") else text) == expected, name
    report = json.loads(written["report-optimized.json"])
    assert stdout.splitlines()[1].split()[:6] == [
        "optimized", *(str(report[key]) for key in ("hand_switching", "left_load", "right_load",
                                                    "not_determined", "total_letters"))]

    stages = tmp / "stages"
    (tmp / "config.json").write_text(json.dumps(
        {"alphabet_path": str(tmp / "alphabet.json"), "out_dir": str(stages), **flags}),
        encoding="utf-8")
    staged = ""
    with monkeypatch.context() as patch:
        patch.setenv("LAYOUTFORGE_CONFIG", str(tmp / "config.json"))
        for argv in (["stats", *paths],
                     ["partition", "--mono", stages / "monograms.tsv",
                      "--digraphs", stages / "digraphs.tsv"],
                     ["layout", stages / "partition.json"],
                     ["evaluate", stages / "layout.json", "--corpus", *paths],
                     ["compare", stages / "report-optimized.json",
                      "--out", stages / "comparison.txt"]):
            code, stdout_part = call(argv)
            assert code == 0, argv[0]
            staged += stdout_part
    assert staged == stdout
    assert read_all_bytes(stages) == written
