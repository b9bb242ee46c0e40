"""
Scoring layouts against each other
==================================

Evaluates two layouts over the same corpus: the association-driven one,
and a naive baseline that deals ranked letters to the hands alternately.
The score that matters is hand switching, the number of adjacent letters
typed by different hands; loads show how evenly the hands share work.
"""

from pathlib import Path

from layoutforge import (AlphabetConfig, HandPartition, build_layout, compare,
                         count_all, evaluate, format_comparison, partition_all,
                         ranked_monograms, read_corpus)

data_dir = Path(__file__).resolve().parent.parent / "data" / "bn_sample"
stream = read_corpus(sorted(data_dir.glob("*.txt")), AlphabetConfig())
mono, digraphs = count_all([stream])[:2]

optimized = build_layout(partition_all(mono, digraphs), mono, name="optimized")

# Baseline: ignore associations entirely, alternate by frequency rank.
# Loads come out nearly equal, but adjacency is left to chance.
dealt = HandPartition()
for i, (letter, _count, _pct) in enumerate(ranked_monograms(mono)):
    (dealt.left if i % 2 else dealt.right).append(letter)
baseline = build_layout(dealt, mono, name="alternating")

reports = [evaluate(layout, [stream]) for layout in (optimized, baseline)]
print(format_comparison(compare(reports)))

best, other = compare(reports).rows[0], compare(reports).rows[1]
gain = 100.0 * (best.hand_switching - other.hand_switching) / other.hand_switching
print(f"{best.layout_name} switches hands {gain:+.1f}% vs {other.layout_name}")
