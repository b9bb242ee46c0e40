"""Tests of the benchmark itself.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest bench/``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)], smoke=True)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    for metric in wanted:
        assert printed[metric["name"]] == metric["unit"]
    assert printed["error_rate"] == "ratio"


def _outputs(plan, out: Path) -> None:
    from layoutforge import cli

    for argv in plan.steps:
        assert cli.main([arg.replace("{out}", str(out)) for arg in argv]) == 0


def _corrupt_json(path: Path, key: str) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[key] += 1
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_corrupted_report_and_table_are_counted_as_failures(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    plan = run.plan_corpus(ROOT, 3, True, tmp_path)
    _outputs(plan, tmp_path)
    capsys.readouterr()
    clean = run.Tally()
    clean.checks(plan.check(tmp_path))
    assert clean.attempted > 0 and clean.failed == 0, clean.problems

    _corrupt_json(tmp_path / "report-optimized.json", "left_load")
    table = tmp_path / "digraphs.tsv"
    rows = table.read_text(encoding="utf-8").splitlines()
    gram, count, pct = rows[-1].split("\t")
    rows[-1] = f"{gram}\t{int(count) + 1}\t{pct}"
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")

    tally = run.Tally()
    tally.checks(plan.check(tmp_path))
    assert tally.failed == 2
    assert tally.failed / tally.attempted > 0
    assert any("report" in p and "left_load" in p for p in tally.problems)
    assert any("digraphs.tsv" in p for p in tally.problems)


def test_partition_off_the_greedy_rule_is_caught(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    plan = run.plan_corpus(ROOT, 3, True, tmp_path)
    _outputs(plan, tmp_path)
    capsys.readouterr()
    path = tmp_path / "partition.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["left"], doc["right"] = doc["right"], doc["left"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    tally = run.Tally()
    tally.checks(plan.check(tmp_path))
    assert any(p.startswith("check partition:") for p in tally.problems)


def test_changed_bytes_between_passes_are_counted(tmp_path):
    results = run.check_digests(tmp_path, "corpus-2mb", 1, True, ["a", "a", "b"])
    assert [bool(problems) for _name, problems in results] == [False, True]


def test_missing_function_leaves_its_metrics_absent():
    renamed = ("layoutforge.cli", "count_all_ngrams", "stats.count_ngrams", None, True)
    tracer = spans.Tracer(spans.BINDINGS + (renamed,))
    assert tracer.absent == ["layoutforge.cli.count_all_ngrams"]
    metrics = spans.layer_metrics(tracer, 0, [])
    assert "stats.count_s" not in metrics and "stats.share" not in metrics
    assert metrics["corpus.tokenize_s"] == 0.0
