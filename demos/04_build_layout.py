"""
Placing letters on the key grid
===============================

Builds the full layout for the sample corpus and draws each layer.
Within a hand, more frequent letters get better slots: home row from
the innermost column outward, then the top row, then the bottom row,
then the same sweep on the shift and ctrl layers.
"""

import tempfile
from pathlib import Path

from layoutforge import (AlphabetConfig, build_layout, count_all, partition_all,
                         read_corpus, render_grid, write_layout)

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

# The layout file is canonical JSON: writing the same layout twice gives
# identical bytes, so layouts diff cleanly under version control.
with tempfile.TemporaryDirectory() as tmp:
    first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
    write_layout(layout, first)
    write_layout(layout, second)
    data = first.read_bytes()
    print(f"layout file: {len(data)} bytes, stable: {second.read_bytes() == data}")
