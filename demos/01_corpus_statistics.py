"""
Counting letters, digraphs, and trigraphs in a corpus
=====================================================

Reads the bundled sample corpus into a letter stream (a string of its
letters in which each word boundary is one LF) and prints the frequency
tables everything downstream is built from.
"""

from pathlib import Path

from layoutforge import BOUNDARY, AlphabetConfig, count_all, read_corpus

data_dir = Path(__file__).resolve().parent.parent / "data" / "bn_sample"
files = sorted(data_dir.glob("*.txt"))

# The default alphabet is the Bangla block without its digits; anything
# else in the files (spaces, danda, newlines) becomes a word boundary.
stream = read_corpus(files, AlphabetConfig())
print(f"{len(files)} files, {sum(path.stat().st_size for path in files)} bytes")
letters = stream.replace(BOUNDARY, "")
words = [word for word in stream.split(BOUNDARY) if word]
print(f"{len(letters)} letters, {len(words)} words, {len(set(letters))} distinct letters")

# One pass over the stream counts all three tables, and a fourth of the
# letter pairs that meet across a word break, which scoring reads. A
# gram's support is its count as a share of all letters.
tables = count_all([stream])
for table, label in zip(tables, ("monograms", "digraphs", "trigraphs")):
    top = sorted(table.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
    print(f"\ntop {label}:")
    for gram, count in top:
        print(f"  {gram}  {count:6d}  {100.0 * count / table.total_letters:8.4f}%")
