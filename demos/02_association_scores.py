"""
Support and confidence of letter pairs
======================================

For one focus letter, lists every digraph it takes part in, with the
pair's share of all letters (support) and its share of the focus
letter's digraph involvement (confidence).
"""

import sys
from pathlib import Path

from layoutforge import (AlphabetConfig, count_ngrams, digraph_confidence,
                         involvement_totals, read_corpus, support)

data_dir = Path(__file__).resolve().parent.parent / "data" / "bn_sample"
stream = read_corpus(sorted(data_dir.glob("*.txt")), AlphabetConfig())
digraphs = count_ngrams([stream], 2)

focus = sys.argv[1] if len(sys.argv) > 1 else "ক"  # ক unless told otherwise
involvement = involvement_totals(digraphs).get(focus, 0)
print(f"focus letter {focus} (U+{ord(focus):04X}): "
      f"involved in {involvement} digraph occurrences\n")

rows = sorted(((g, c) for g, c in digraphs.counts.items() if focus in g),
              key=lambda kv: (-kv[1], kv[0]))
print("digraph   count   support   confidence")
for gram, count in rows[:12]:
    print(f"  {gram}    {count:6d}  {support(digraphs, gram):8.4f}"
          f"  {digraph_confidence(digraphs, focus, gram):10.4f}")

# Confidence is a share of the focus letter's own pair occurrences, so
# over all of its digraphs it always totals 100.
total = sum(digraph_confidence(digraphs, focus, g) for g, _ in rows)
print(f"\nconfidence total over all {len(rows)} digraphs: {total:.6f}")
