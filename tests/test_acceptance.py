"""Acceptance checks: the published-table fixtures, the randomized
oracle equivalences, pipeline determinism, and placement rules.

Each check prints one verdict line (run with -s to see them even on
success). The randomized checks hold the package to the independent
restatement of each stage in ``oracle.py``.
"""

import random
import time

from layoutforge.cli import main
from layoutforge.evaluator import EvaluationReport, compare, evaluate
from layoutforge.layout import KeyPosition, build_layout, load_layout, write_layout
from layoutforge.partition import assign, initialize, partition_all
from layoutforge.stats import count_ngrams, involvement_totals, ranked_monograms, side_scores

from conftest import (FOCUS, SAMPLE, K_LEFT_SCORE, K_RIGHT_SCORE, TABLE2_ROWS, layout_from_hands,
                      make_stream, make_tables, mirrored, partition_of, random_corpus,
                      random_tokens, read_all_bytes, slices, trace_rows)
import oracle


def verdict(number, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_association_arithmetic(paper_digraphs):
    started = time.perf_counter()
    ok = True
    involvement = involvement_totals(paper_digraphs)
    for gram, count, expected_support, expected_conf in TABLE2_ROWS:
        ok &= paper_digraphs.counts[gram] == count
        # the focus letter against the gram's other letter; no reversed digraph is listed
        pair = side_scores(FOCUS, [gram.replace(FOCUS, "", 1)], paper_digraphs, involvement)
        ok &= abs(pair.cumulative_support - expected_support) <= 1e-5
        ok &= abs(pair.cumulative_confidence - expected_conf) <= 1e-4
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    verdict(1, f"published digraph support/confidence values ({elapsed:.3f}s)", ok)


def test_criterion_2_worked_example(paper_mono, paper_digraphs):
    ranking = ranked_monograms(paper_mono)
    part = initialize(ranking[:4])
    ok = part.right == ["া", "ি"] and part.left == ["ে", "র"]
    left = side_scores(FOCUS, part.left, paper_digraphs, involvement_totals(paper_digraphs))
    right = side_scores(FOCUS, part.right, paper_digraphs, involvement_totals(paper_digraphs))
    ok &= abs(left.cumulative_support - K_LEFT_SCORE[0]) <= 1e-5
    ok &= abs(left.cumulative_confidence - K_LEFT_SCORE[1]) <= 1e-5
    ok &= abs(right.cumulative_support - K_RIGHT_SCORE[0]) <= 1e-5
    ok &= abs(right.cumulative_confidence - K_RIGHT_SCORE[1]) <= 1e-5
    assign(FOCUS, part, paper_digraphs, involvement_totals(paper_digraphs))
    ok &= part.right == ["া", "ি", FOCUS]
    verdict(2, "worked fifth-letter decision lands right", ok)


def test_criterion_3_partition_oracle():
    started = time.perf_counter()
    rng = random.Random(101)
    ok = True
    for _ in range(100):
        mono, dig = random_corpus(rng, rng.randrange(12, 31), rng.randrange(200, 2001))
        part = partition_all(mono, dig)
        left, right, trace = oracle.greedy(mono.counts, dig.counts, mono.total_letters)
        ok &= part.left == left and part.right == right and trace_rows(part) == trace
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    verdict(3, f"100 random partitions match the step replay ({elapsed:.2f}s)", ok)


def test_criterion_4_ngram_oracle():
    rng = random.Random(103)
    alphabet = [chr(ord("a") + i) for i in range(10)]
    ok = True
    for _ in range(200):
        tokens = random_tokens(rng, alphabet, rng.randrange(0, 1000))
        stream = make_stream(tokens)
        expected = oracle.count(oracle.letter_runs(tokens))
        for n in (1, 2, 3):
            ok &= count_ngrams([stream], n).counts == expected[n - 1]
        mono = count_ngrams([stream], 1)
        if mono.total_letters:
            ok &= abs(sum(pct for _l, _c, pct in ranked_monograms(mono)) - 100.0) <= 1e-9
        dig = count_ngrams([stream], 2)
        involvement = involvement_totals(dig)
        for letter in involvement:
            conf = sum(side_scores(letter, [partner], dig, involvement).cumulative_confidence
                       for partner in involvement)
            ok &= abs(conf - 100.0) <= 1e-9
    verdict(4, "200 random streams match the window scanner; shares sum to 100", ok)


def test_criterion_5_evaluator_oracle():
    rng = random.Random(107)
    alphabet = [chr(ord("a") + i) for i in range(8)]
    ok = True
    for _ in range(200):
        known = alphabet[:rng.randrange(0, len(alphabet) + 1)]
        split = rng.randrange(0, len(known) + 1)
        hand_of = {l: ("left" if i < split else "right") for i, l in enumerate(known)}
        layout = layout_from_hands(known[:split], known[split:])
        tokens = random_tokens(rng, alphabet, rng.randrange(0, 600))
        stream = make_stream(tokens)
        report = evaluate(layout, [stream])
        ok &= (report.left_load + report.right_load + report.not_determined
               == report.total_letters)
        ok &= (report.left_load, report.right_load, report.not_determined,
               report.hand_switching) == oracle.replay(hand_of, tokens)
        flipped = evaluate(mirrored(layout), [stream])
        ok &= flipped.hand_switching == report.hand_switching
        ok &= flipped.not_determined == report.not_determined
        ok &= (flipped.left_load, flipped.right_load) == (report.right_load,
                                                          report.left_load)
        chunked = evaluate(layout, slices(stream, rng.randrange(1, 9)))
        ok &= chunked == report
    verdict(5, "200 random evaluations: conservation, rescan, mirror, chunks", ok)


def test_criterion_6_pipeline_determinism(tmp_path, capsys):
    started = time.perf_counter()
    paths = [str(p) for p in SAMPLE]
    assert len(paths) == 3
    orderings = [paths, list(reversed(paths)), paths[1:] + paths[:1], paths]
    snapshots = []
    for i, ordering in enumerate(orderings):
        out = tmp_path / f"run{i}"
        assert main(["run-all", *ordering, "--out", str(out)]) == 0
        snapshots.append(read_all_bytes(out))
    capsys.readouterr()
    ok = all(snap == snapshots[0] for snap in snapshots[1:])
    ok &= set(snapshots[0]) >= {"monograms.tsv", "digraphs.tsv", "trigrams.tsv",
                                "partition.json", "layout.json",
                                "report-optimized.json", "comparison.txt"}
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    verdict(6, f"byte-identical pipeline over reruns and orderings ({elapsed:.2f}s)", ok)


def test_criterion_7_comparison_fixture():
    reports = [
        EvaluationReport("bijoy", 358873, 475556, 242526, 138643, 856725),
        EvaluationReport("alternative", 358672, 319946, 363077, 173702, 856725),
        EvaluationReport("optimized", 410113, 380058, 340903, 133290, 854251),
    ]
    result = compare(reports)
    ok = [r.layout_name for r in result.rows] == ["optimized", "bijoy", "alternative"]
    ok &= [r.hand_switching for r in result.rows] == [410113, 358873, 358672]
    verdict(7, "published comparison rows rank the optimized layout first", ok)


def test_criterion_8_capacity_and_round_trip(tmp_path):
    counts = {chr(ord("a") + i): 100 - i for i in range(16)}
    counts["z"] = 1000
    letters = sorted(counts)[:16]
    hand5 = build_layout(partition_of(letters[:5], "z"), make_tables(counts))
    ok = all(hand5.assignment[l].row == 1 and hand5.assignment[l].layer == "base"
             for l in letters[:5])
    ok &= [hand5.assignment[l].column for l in letters[:5]] == [5, 4, 3, 2, 1]
    hand16 = build_layout(partition_of(letters, "z"), make_tables(counts))
    ok &= hand16.assignment[letters[15]] == KeyPosition("left", "shift", 1, 5)
    ok &= all(hand16.assignment[l].layer == "base" for l in letters[:15])
    path = tmp_path / "layout.json"
    for layout in (hand5, hand16):
        write_layout(layout, path)
        data = path.read_bytes()
        ok &= load_layout(path) == layout
        write_layout(load_layout(path), path)
        ok &= path.read_bytes() == data
    verdict(8, "home-row fill, shift spill, byte-stable round-trip", ok)
