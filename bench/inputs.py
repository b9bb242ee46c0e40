"""Seeded benchmark inputs, generated once per seed and size and cached on disk.

Every input is a pure function of the seed. The Bangla-like corpora come
from tools/gen_sample_corpus.py, imported with its per-file target size
overridden, so the bundled sample under data/bn_sample/ never changes.
The two-script corpus and its alphabet and geometry files are made
here. Generation is slow next to the runs it feeds (about 1.5 s per MB
of corpus), so each input set is written once under .bench_cache/ and
reused by every later run with the same seed and size.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
import random
import shutil
import unicodedata
from pathlib import Path

from reference import BANGLA_DIGITS, DANDAS, DEVANAGARI_DIGITS

CACHE_DIR = Path(".bench_cache")
GENERATOR = Path("tools") / "gen_sample_corpus.py"
SAMPLE_FILES = tuple(Path("data") / "bn_sample" / f"part{i}.txt" for i in (1, 2, 3))
CACHE_KEEP = 40  # input sets kept on disk; older ones are regenerated on demand


def cached(root: Path, key: str, build) -> Path:
    """The cache directory for ``key``, filled by ``build(directory)`` on a miss.

    The directory only appears under its final name once ``build`` has
    finished, so an interrupted run never leaves a half-written input set.
    """
    cache = root / CACHE_DIR
    entry = cache / key
    if entry.is_dir():
        os.utime(entry)
        return entry
    partial = cache / f"{key}.partial"
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    build(partial)
    os.replace(partial, entry)
    entries = sorted((p for p in cache.iterdir() if p.is_dir() and p.name != "digests"),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in entries[CACHE_KEEP:]:
        shutil.rmtree(stale, ignore_errors=True)
    return entry


def _generator(root: Path):
    """A private copy of the sample-corpus generator module."""
    spec = importlib.util.spec_from_file_location("bench_gen_sample_corpus", root / GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bangla_corpus(root: Path, seed: int, file_bytes: int) -> list[Path]:
    """Three generator files of about ``file_bytes`` each, seeded by ``seed``."""
    names = [path.name for path in SAMPLE_FILES]

    def build(directory: Path) -> None:
        generator = _generator(root)
        generator.TARGET_BYTES_PER_FILE = file_bytes
        rng = random.Random(f"{seed}:corpus")
        for name in names:
            (directory / name).write_text(generator.make_file_text(rng), encoding="utf-8")

    entry = cached(root, f"corpus-s{seed}-{file_bytes}", build)
    return [(entry / name).relative_to(root) for name in names]


def two_script_letters() -> list[str]:
    """Every Devanagari and Bangla letter or mark that NFC leaves as it is."""
    return [chr(cp) for cp in range(0x0900, 0x0A00)
            if unicodedata.category(chr(cp))[0] in "LM"
            and unicodedata.normalize("NFC", chr(cp)) == chr(cp)]


def two_script_tables_inputs(root: Path, seed: int, letters: int) -> dict:
    """A seeded Devanagari + Bangla corpus of about ``letters`` letters, with
    its alphabet file and a geometry large enough to place every letter on
    one hand.

    Letter frequencies fall off as 1/(rank + 8), so nearly every one of the
    ~32k possible digraphs occurs; the seed shuffles which letter gets
    which rank.
    """
    inventory = two_script_letters()

    def build(directory: Path) -> None:
        rng = random.Random(f"{seed}:tables")
        order = inventory[:]
        rng.shuffle(order)
        cumulative = list(itertools.accumulate(1.0 / (rank + 8) for rank in range(len(order))))
        stream = rng.choices(order, cum_weights=cumulative, k=letters)
        words, pos = [], 0
        while pos < letters:
            length = rng.randrange(2, 9)
            words.append("".join(stream[pos:pos + length]))
            pos += length
        lines = (" ".join(words[i:i + 10]) for i in range(0, len(words), 10))
        (directory / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        excluded = sorted(DEVANAGARI_DIGITS | BANGLA_DIGITS | DANDAS)
        alphabet = {"ranges": [["U+0900", "U+09FF"]],
                    "exclude": [f"U+{ord(ch):04X}" for ch in excluded]}
        (directory / "alphabet.json").write_text(json.dumps(alphabet, indent=1) + "\n",
                                                 encoding="utf-8")
        per_layer = 3 * 10  # 3 rows x 10 columns per hand
        layers = [f"layer{i}" for i in range(-(-len(inventory) // per_layer))]
        geometry = {"rows": 3, "columns": 20, "layers": layers}
        (directory / "geometry.json").write_text(json.dumps(geometry, indent=1) + "\n",
                                                 encoding="utf-8")

    entry = cached(root, f"tables-s{seed}-{letters}", build)
    rel = entry.relative_to(root)
    return {"corpus": rel / "corpus.txt", "alphabet": rel / "alphabet.json",
            "geometry": rel / "geometry.json"}
