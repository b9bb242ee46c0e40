"""Shared fixtures: published-table data and small stream builders.

The digraph fixture holds seven measured rows for the focus letter plus
one filler digraph (কহ) sized so the letter's total digraph involvement
is 38291, the denominator all seven published confidence values share.
The filler partner হ pairs with none of the seed letters, so cumulative
side scores over the seed hands are unaffected by it.
"""

from collections import Counter

import pytest

from layoutforge.corpus import BOUNDARY, AlphabetConfig
from layoutforge.stats import NGramTable

TOTAL_LETTERS = 821914

# (digraph, count, support, confidence) for the focus letter ক
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


def make_stream(tokens) -> str:
    """The letter stream of a token list (letters and None boundaries)."""
    return "".join(BOUNDARY if t is None else t for t in tokens)


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
