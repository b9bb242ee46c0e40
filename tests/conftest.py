"""Shared fixtures: published-table data, and small builders of streams,
layouts, partitions, tables and corpora.

The digraph fixture holds seven measured rows for the focus letter plus
one filler digraph (কহ) sized so the letter's total digraph involvement
is 38291, the denominator all seven published confidence values share.
The filler partner হ pairs with none of the seed letters, so cumulative
side scores over the seed hands are unaffected by it.
"""

import json
import math
from collections import Counter
from pathlib import Path

import pytest

from layoutforge.corpus import BOUNDARY, AlphabetConfig
from layoutforge.layout import Geometry, KeyboardLayout, KeyPosition
from layoutforge.partition import HandPartition
from layoutforge.stats import NGramTable

# The bundled sample corpus, its files in order.
SAMPLE_DIR = Path(__file__).resolve().parent.parent / "data" / "bn_sample"
SAMPLE = sorted(SAMPLE_DIR.glob("*.txt"))

TOTAL_LETTERS = 821914

FOCUS = "ক"  # the letter the published digraph rows are about
# (digraph, count, support, confidence) for the focus letter
TABLE2_ROWS = [
    ("কে", 8316, 1.011785, 21.717897),
    ("কা", 8000, 0.973338, 20.892638),
    ("কর", 4134, 0.502972, 10.796271),
    ("কি", 3094, 0.376438, 8.080228),
    ("এক", 2062, 0.250878, 5.385077),
    ("তক", 1231, 0.149772, 3.214855),
    ("বক", 1153, 0.140282, 3.011151),
]

FILLER_DIGRAPH = ("কহ", 10301)
INVOLVEMENT_K = 38291  # sum of the seven rows (27990) plus the filler

# (letter, count, percentage) monogram ranking
TABLE1_ROWS = [
    ("া", 74300, 9.039875),  # া
    ("ে", 45525, 5.538901),  # ে
    ("র", 41844, 5.091044),  # র
    ("ি", 37010, 4.502904),  # ি
    ("ক", 31214, 3.797721),  # ক
    ("ই", 28996, 3.527863),  # ই
    ("ব", 28212, 3.432476),  # ব
    ("ত", 21451, 2.609884),  # ত
    ("প", 18419, 2.240989),  # প
    ("ম", 17202, 2.092920),  # ম
]

# cumulative side scores of ক against the two seed hands
K_LEFT_SCORE = (1.514757, 32.514168)   # against {ে, র}
K_RIGHT_SCORE = (1.349776, 28.972866)  # against {া, ি}


@pytest.fixture
def paper_digraphs() -> NGramTable:
    counts = Counter({g: c for g, c, _s, _c in TABLE2_ROWS})
    counts[FILLER_DIGRAPH[0]] = FILLER_DIGRAPH[1]
    return NGramTable(n=2, counts=counts, total_letters=TOTAL_LETTERS)


@pytest.fixture
def paper_digraphs_bare() -> NGramTable:
    """The seven published rows only, without the involvement filler."""
    counts = Counter({g: c for g, c, _s, _c in TABLE2_ROWS})
    return NGramTable(n=2, counts=counts, total_letters=TOTAL_LETTERS)


@pytest.fixture
def paper_mono() -> NGramTable:
    counts = Counter({letter: count for letter, count, _pct in TABLE1_ROWS})
    return NGramTable(n=1, counts=counts, total_letters=TOTAL_LETTERS)


@pytest.fixture
def ascii_config() -> AlphabetConfig:
    return AlphabetConfig(ranges=((ord("a"), ord("z")),), exclude=frozenset())


def letter_config(letters) -> AlphabetConfig:
    """The alphabet of exactly the given letters."""
    return AlphabetConfig(ranges=(), include=frozenset(letters), exclude=frozenset())


def make_stream(tokens) -> str:
    """The letter stream of a token list (letters and None boundaries)."""
    return "".join(BOUNDARY if t is None else t for t in tokens)


def slices(stream: str, chunks: int) -> list[str]:
    """The stream cut into ``chunks`` slices of equal length, bar the last; fewer if it is short."""
    size = max(1, math.ceil(len(stream) / chunks))
    return [stream[start:start + size] for start in range(0, len(stream), size)]


def letter_count(stream: str) -> int:
    """The letters of a stream: every character but its boundaries."""
    return len(stream) - stream.count(BOUNDARY)


def random_tokens(rng, alphabet, length, boundary_rate=0.15):
    """A well-formed token list: boundaries never start, end, or repeat."""
    tokens = []
    for _ in range(length):
        if tokens and tokens[-1] is not None and rng.random() < boundary_rate:
            tokens.append(None)
        tokens.append(rng.choice(alphabet))
    return tokens


def layout_from_hands(left, right, name="test"):
    """A layout whose only relevant property is which hand types what."""
    geo = Geometry(rows=3, columns=10)
    assignment = {}
    for hand, letters in (("left", left), ("right", right)):
        assignment.update(zip(letters, geo.position_priority(hand)))
    return KeyboardLayout(name=name, geometry=geo, assignment=assignment)


def mirrored(layout, name="mirror"):
    """The layout with its hands swapped, each key reflected across the middle."""
    return KeyboardLayout(name=name, geometry=layout.geometry, assignment={
        letter: KeyPosition("right" if pos.hand == "left" else "left", pos.layer, pos.row,
                            layout.geometry.columns + 1 - pos.column)
        for letter, pos in layout.assignment.items()})


def make_tables(letter_counts):
    """The monogram table of the given letter counts."""
    return NGramTable(1, Counter(letter_counts), sum(letter_counts.values()))


def partition_of(left, right):
    return HandPartition(left=list(left), right=list(right))


def random_corpus(rng, alphabet_size, letter_target):
    """Monogram and digraph tables of random words over a fresh alphabet."""
    alphabet = [chr(ord("ক") + i) for i in range(alphabet_size)]
    mono = Counter()
    digraphs = Counter()
    total = 0
    while total < letter_target:
        word = [rng.choice(alphabet) for _ in range(rng.randrange(1, 9))]
        mono.update(word)
        digraphs.update(a + b for a, b in zip(word, word[1:]))
        total += len(word)
    return NGramTable(1, mono, total), NGramTable(2, digraphs, total)


def trace_rows(part):
    """A partition's decision trace as tuples, in the form ``oracle.greedy`` gives."""
    return [(d.letter, d.left.cumulative_support, d.left.cumulative_confidence,
             d.right.cumulative_support, d.right.cumulative_confidence, d.hand, d.rule)
            for d in part.trace]


def write_files(directory, texts):
    """One UTF-8 file per text in the directory, named by its place; their paths."""
    paths = [directory / f"{i}.txt" for i in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_bytes(text.encode("utf-8"))
    return paths


def read_all_bytes(directory):
    """The bytes of every file in a directory, by file name."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def last_error(capsys):
    """The JSON error line a refused command wrote last to stderr."""
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])
