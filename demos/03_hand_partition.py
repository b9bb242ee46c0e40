"""
Splitting the alphabet across two hands
=======================================

Runs the greedy partition on the sample corpus and walks through its
decision trace: the four seed letters, then one support/confidence
comparison per letter. A letter more strongly tied to the current left
hand is sent right, so its frequent neighbors end up opposite it.
"""

from pathlib import Path

from layoutforge import AlphabetConfig, count_all, partition_all, read_corpus

data_dir = Path(__file__).resolve().parent.parent / "data" / "bn_sample"
stream = read_corpus(sorted(data_dir.glob("*.txt")), AlphabetConfig())
mono, digraphs = count_all([stream])[:2]

part = partition_all(mono, digraphs)

print("letter   left sup/conf      right sup/conf     hand   rule")
for d in part.trace[:14]:
    print(f"  {d.letter}    {d.left.cumulative_support:7.4f} {d.left.cumulative_confidence:8.4f}"
          f"   {d.right.cumulative_support:7.4f} {d.right.cumulative_confidence:8.4f}"
          f"   {d.hand:<5}  {d.rule}")
print(f"  ... {len(part.trace) - 14} more decisions\n")

print(f"left hand  ({len(part.left):2d}): {' '.join(part.left)}")
print(f"right hand ({len(part.right):2d}): {' '.join(part.right)}")

# The rule has a built-in left bias: only a strictly stronger left
# association moves a letter right. Count how often each rule fired.
rules = {}
for d in part.trace:
    rules[d.rule] = rules.get(d.rule, 0) + 1
print("\nrule counts:", rules)
