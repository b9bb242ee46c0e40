"""
Placing letters on the key grid
===============================

Builds the full layout for the sample corpus and draws each layer.
Within a hand, more frequent letters get better slots: home row from
the innermost column outward, then the top row, then the bottom row,
then the same sweep on the shift and ctrl layers.
"""

from pathlib import Path

from layoutforge import (AlphabetConfig, build_layout, count_all, partition_all,
                         read_corpus, render_grid, serialize_layout)

data_dir = Path(__file__).resolve().parent.parent / "data" / "bn_sample"
stream = read_corpus(sorted(data_dir.glob("*.txt")), AlphabetConfig())
mono, digraphs = count_all([stream])[:2]

layout = build_layout(partition_all(mono, digraphs), mono, name="sample-optimized")

for layer in layout.geometry.layers:
    populated = sum(1 for p in layout.assignment.values() if p.layer == layer)
    if not populated:
        continue
    print(f"{layer} layer ({populated} keys):")
    print(render_grid(layout, layer))
    print()

# The serialized form is canonical JSON: building the same layout twice
# gives identical bytes, so layouts diff cleanly under version control.
data = serialize_layout(layout)
print(f"serialized layout: {len(data)} bytes, "
      f"stable: {serialize_layout(layout) == data}")
