"""Involvement taken by either route gives the same partition, to the bit.

``partition_all`` takes the involvement of the letters it scores from the
one pass of ``involvement_totals`` over every digraph row, or, where that
is the faster route, from ``involvement_sums`` over every letter of the
table. ``oracle.greedy`` takes the involvement of every placed letter by a
full scan of the digraph table, letter by letter, and every trace float
must equal its own, not approximately. Sparse tables at low floors take
the pass and dense ones at high floors the sums; both routes must run.
"""

import random
from collections import Counter

import pytest

from layoutforge import partition
from layoutforge.partition import partition_all
from layoutforge.stats import NGramTable, involvement_sums, involvement_totals, partners
from conftest import trace_rows
import oracle


def random_tables(rng):
    """Monogram and digraph tables with doubled digraphs, letters in no
    digraph, digraph letters outside the monogram table, and count ties."""
    letters = [chr(0x0985 + i) for i in range(rng.randint(6, 40))]
    top = rng.choice((3, 50, 5000))
    mono = Counter({letter: rng.randint(1, top) for letter in letters})
    isolated = set(rng.sample(letters, rng.randint(0, len(letters) // 3)))
    linked = [p for p in letters + ["x", "y"] if p not in isolated]
    digraphs = Counter()
    for _ in range(rng.randint(0, 6 * len(letters))):
        first = rng.choice(linked)
        second = first if rng.random() < 0.15 else rng.choice(linked)
        digraphs[first + second] += rng.randint(1, top)
    total = sum(mono.values())
    return (NGramTable(1, mono, total), NGramTable(2, digraphs, total), isolated)


def dense_tables(rng):
    """Tables in which most pairs of linked letters occur, doubled ones too,
    with letters in no digraph and digraph letters outside the monogram
    table; monogram counts spread widely, so a high floor scores few."""
    letters = [chr(0x0985 + i) for i in range(rng.randint(12, 40))]
    mono = Counter({letter: rng.randint(1, 10 ** rng.randint(1, 5)) for letter in letters})
    isolated = set(rng.sample(letters, rng.randint(0, 3)))
    linked = [p for p in letters + ["x", "y"] if p not in isolated]
    top = rng.choice((3, 50, 5000))
    digraphs = Counter({a + b: rng.randint(1, top) for a in linked for b in linked
                        if rng.random() < 0.85})
    total = sum(mono.values())
    return (NGramTable(1, mono, total), NGramTable(2, digraphs, total), isolated)


@pytest.fixture
def routes(monkeypatch):
    """The number of partitions that took each involvement route."""
    taken = Counter()

    def spy(route):
        def counted(*args):
            taken[route.__name__] += 1
            return route(*args)
        return counted

    for route in (involvement_totals, involvement_sums):
        monkeypatch.setattr(partition, route.__name__, spy(route))
    return taken


def scanned(digraphs, letter):
    return sum(c for g, c in digraphs.counts.items() if letter in g)


def test_involvement_totals_match_a_scan_per_letter():
    """Both routes give what a scan of the table gives, 0 for a letter in no digraph."""
    rng = random.Random(7)
    for make in (random_tables, dense_tables) * 25:
        mono, digraphs, isolated = make(rng)
        totals = involvement_totals(digraphs)
        letters = partners(digraphs, mono.counts)
        assert sorted(letters) == sorted(set(mono.counts) | set("".join(digraphs.counts)))
        wanted = [*mono.counts, "x", "y", "z"]
        sums = involvement_sums(digraphs, wanted, letters)
        for letter in wanted:
            assert totals.get(letter, 0) == sums[letter] == scanned(digraphs, letter)
        assert not isolated & set(totals)
        assert all(totals.values())


def test_partition_trace_equals_the_scanning_oracle_exactly(routes):
    rng = random.Random(11)
    checked = 0
    for make in (random_tables, dense_tables) * 30:
        mono, digraphs, _isolated = make(rng)
        ranked = sorted(mono.counts.values(), reverse=True)
        floors = {1, rng.randint(2, max(2, ranked[0])), ranked[min(rng.randint(4, 8),
                                                                   len(ranked) - 1)]}
        for coverage in sorted(floors):
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
    assert checked > 200
    assert routes["involvement_totals"] >= 20 and routes["involvement_sums"] >= 20, routes
