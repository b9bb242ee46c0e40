"""
Support and confidence of letter pairs
======================================

For one focus letter, lists every letter it forms a digraph with, and
the pair's scores: its share of all letters (support) and its share of
the focus letter's digraph involvement (confidence). A pair counts both
orders of its two letters, as the partition does when it scores a
letter against a hand; here each hand is one letter.
"""

import sys
from pathlib import Path

from layoutforge import (AlphabetConfig, count_ngrams, involvement_totals, read_corpus,
                         side_scores)

data_dir = Path(__file__).resolve().parent.parent / "data" / "bn_sample"
stream = read_corpus(sorted(data_dir.glob("*.txt")), AlphabetConfig())
digraphs = count_ngrams([stream], 2)

focus = sys.argv[1] if len(sys.argv) > 1 else "ক"  # ক unless told otherwise
involvement = involvement_totals(digraphs)
print(f"focus letter {focus} (U+{ord(focus):04X}): "
      f"involved in {involvement.get(focus, 0)} digraph occurrences\n")

partners = {gram.replace(focus, "", 1) for gram in digraphs.counts if focus in gram}
scores = {partner: side_scores(focus, [partner], digraphs, involvement) for partner in partners}
rows = sorted(scores.items(), key=lambda kv: (-kv[1].cumulative_support, kv[0]))
print("partner   count   support   confidence")
for partner, score in rows[:12]:
    count = sum(digraphs.counts.get(gram, 0) for gram in {focus + partner, partner + focus})
    print(f"  {partner}    {count:6d}  {score.cumulative_support:8.4f}"
          f"  {score.cumulative_confidence:10.4f}")

# Confidence is a share of the focus letter's own pair occurrences, so
# over all of its partners, itself included, it always totals 100.
total = sum(score.cumulative_confidence for score in scores.values())
print(f"\nconfidence total over all {len(rows)} partners: {total:.6f}")
