"""Counting and writing hold little beside the tables they build or write.

``count_all`` copies its window counts into two packed arrays and frees
the ``Counter`` before it builds the tables, and ``write_ngram_tsv``
joins each chunk of rows from the ordered grams, not from a list of
(gram, count) pairs. Each test traces one call with ``tracemalloc`` over
a seeded stream of 60,000 words of 40 letters, given as one part, so no
process is forked, and bounds what the call holds above what it keeps by
a share of the tables' own size.
"""

import gc
import os
import random
import tracemalloc

import pytest

from layoutforge.corpus import BOUNDARY
from layoutforge.stats import count_all, write_ngram_tsv

# Above about 0.6 when the window Counter lives on beside the tables, or
# the writer holds a list of row pairs; about 0.15 and 0.25 without them.
MAX_SHARE = 0.35


@pytest.fixture
def stream():
    rng = random.Random(32)
    letters = [chr(0x0995 + i) for i in range(40)]
    return BOUNDARY.join("".join(rng.choices(letters, k=rng.randint(1, 8)))
                         for _ in range(60_000))


@pytest.fixture
def traced():
    gc.collect()
    tracemalloc.start()
    try:
        yield tracemalloc.get_traced_memory
    finally:
        tracemalloc.stop()


def test_count_all_holds_little_beside_the_tables_it_returns(stream, traced):
    start, _ = traced()
    tracemalloc.reset_peak()
    tables = count_all([stream])
    current, peak = traced()
    kept = current - start
    assert len(tables[2].counts) > 50_000
    assert (peak - current) / kept < MAX_SHARE


def test_writing_a_table_holds_little_beside_it(stream, traced):
    trigrams = count_all([stream])[2]
    with open(os.devnull, "w", encoding="utf-8") as out:
        base, _ = traced()
        tracemalloc.reset_peak()
        write_ngram_tsv(trigrams, out, config_echo={})
        _, peak = traced()
    held, _ = traced()
    del trigrams
    size = held - traced()[0]  # what freeing the table gives back
    assert (peak - base) / size < MAX_SHARE
