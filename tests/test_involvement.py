"""Involvement counted once per table gives the same partition, to the bit.

``oracle.greedy`` takes the involvement of every placed letter by a full
scan of the digraph table, letter by letter, and every trace float must
equal its own, not approximately.
"""

import random
from collections import Counter

from layoutforge.partition import partition_all
from layoutforge.stats import NGramTable, involvement_totals
from conftest import trace_rows
import oracle


def random_tables(rng):
    """Monogram and digraph tables with doubled digraphs, letters in no
    digraph, digraph letters outside the monogram table, and count ties."""
    letters = [chr(0x0985 + i) for i in range(rng.randint(6, 40))]
    top = rng.choice((3, 50, 5000))
    mono = Counter({letter: rng.randint(1, top) for letter in letters})
    partners = letters + ["x", "y"]
    isolated = set(rng.sample(letters, rng.randint(0, len(letters) // 3)))
    linked = [p for p in partners if p not in isolated]
    digraphs = Counter()
    for _ in range(rng.randint(0, 6 * len(letters))):
        first = rng.choice(linked)
        second = first if rng.random() < 0.15 else rng.choice(linked)
        digraphs[first + second] += rng.randint(1, top)
    total = sum(mono.values())
    return (NGramTable(1, mono, total), NGramTable(2, digraphs, total), isolated)


def test_involvement_totals_match_a_scan_per_letter():
    rng = random.Random(7)
    for _ in range(50):
        mono, digraphs, isolated = random_tables(rng)
        totals = involvement_totals(digraphs)
        for letter in set(mono.counts) | set("".join(digraphs.counts)) | {"z"}:
            scanned = sum(c for g, c in digraphs.counts.items() if letter in g)
            assert totals.get(letter, 0) == scanned
        assert not isolated & set(totals)
        assert all(totals.values())


def test_partition_trace_equals_the_scanning_oracle_exactly():
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        mono, digraphs, _isolated = random_tables(rng)
        for coverage in (1, rng.randint(2, max(2, max(mono.counts.values())))):
            if sum(c >= coverage for c in mono.counts.values()) < 4:
                continue
            for balance in (False, True):
                part = partition_all(mono, digraphs, coverage=coverage,
                                     balance_tiebreak=balance)
                left, right, trace = oracle.greedy(mono.counts, digraphs.counts,
                                                   mono.total_letters, coverage, balance)
                assert (part.left, part.right) == (left, right)
                assert trace_rows(part) == trace
                checked += 1
    assert checked > 150
