"""Independent reference results and the output checks built on them.

Nothing here imports layoutforge. Each expected result is recomputed from
the generated inputs with plain Python, so a defect in the program cannot
hide in a helper the check shares with it:

- n-gram tables from a regular-expression split of the NFC text into
  letter runs;
- evaluation reports from a replay of the letter sequence through the
  layout's hand map;
- partitions from a short restatement of the paper's greedy rule.

A check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import re
import unicodedata
from collections import Counter
from pathlib import Path

BANGLA_DIGITS = frozenset(chr(cp) for cp in range(0x09E6, 0x09F0))
DEVANAGARI_DIGITS = frozenset(chr(cp) for cp in range(0x0966, 0x0970))
DANDAS = frozenset("।॥")

# The program's default alphabet: the Bengali block minus its digits.
BANGLA = frozenset(chr(cp) for cp in range(0x0980, 0x0A00)) - BANGLA_DIGITS
# The alphabet file the benchmark writes for its two-script corpus.
TWO_SCRIPT = frozenset(chr(cp) for cp in range(0x0900, 0x0A00)) - (
    BANGLA_DIGITS | DEVANAGARI_DIGITS | DANDAS)


def letter_runs(paths, alphabet: frozenset[str]) -> list[str]:
    """Maximal runs of alphabet letters in each file, files in the given order."""
    pattern = re.compile("[" + "".join(re.escape(ch) for ch in sorted(alphabet)) + "]+")
    runs: list[str] = []
    for path in paths:
        text = unicodedata.normalize("NFC", Path(path).read_bytes().decode("utf-8"))
        runs.extend(pattern.findall(text))
    return runs


def ngram_counts(runs: list[str], n: int) -> Counter:
    """Windows of n letters inside single runs."""
    joined = " ".join(runs)
    grams = Counter(map("".join, zip(*(joined[i:] for i in range(n)))))
    for gram in [g for g in grams if " " in g]:
        del grams[gram]
    return grams


def replay(letters: str, hands: dict[str, str]) -> dict:
    """Loads, not-determined count and hand switches of a letter sequence.

    ``hands`` maps each placed letter to "left" or "right". Word boundaries
    do not reset the previous hand, and unplaced letters are skipped.
    """
    table = {ord(ch): "N" for ch in set(letters)}
    table.update({ord(ch): "L" if hand == "left" else "R" for ch, hand in hands.items()})
    sides = letters.translate(table)
    determined = sides.replace("N", "")
    return {"left_load": sides.count("L"), "right_load": sides.count("R"),
            "not_determined": sides.count("N"),
            "hand_switching": determined.count("LR") + determined.count("RL"),
            "total_letters": len(letters)}


def greedy_partition(mono: Counter, digraphs: Counter, total: int, *, coverage: int,
                     balance: bool) -> dict:
    """The paper's greedy two-hand split, restated from its description.

    Ranks 1 and 4 seed the right hand, ranks 2 and 3 the left. Each later
    letter goes right when its summed support and confidence against the
    left hand both exceed those against the right; otherwise left, or with
    ``balance`` the mirrored rule and then the lighter hand. Sums are
    accumulated term by term in hand order, as floats, so near-ties round
    the same way the paper's arithmetic does.
    """
    ranking = sorted(mono.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [letter for letter, count in ranking if count >= coverage]
    involvement: Counter = Counter()
    for gram, count in digraphs.items():
        for letter in set(gram):
            involvement[letter] += count
    left, right = [kept[1], kept[2]], [kept[0], kept[3]]
    trace = [(letter, 0.0, 0.0, 0.0, 0.0, hand, "seed")
             for letter, hand in zip(kept[:4], ("right", "left", "left", "right"))]

    def sums(letter: str, hand: list[str]) -> tuple[float, float]:
        sup = conf = 0.0
        inv = involvement[letter]
        for member in hand:
            for gram in (letter + member, member + letter):
                count = digraphs.get(gram, 0)
                sup += 100.0 * count / total
                if inv:
                    conf += 100.0 * count / inv
        return sup, conf

    for letter in kept[4:]:
        ls, lc = sums(letter, left)
        rs, rc = sums(letter, right)
        if ls > rs and lc > rc:
            hand, rule = "right", "left-association-to-right"
        elif balance and rs > ls and rc > lc:
            hand, rule = "left", "right-association-to-left"
        elif balance:
            hand, rule = ("left" if len(left) <= len(right) else "right"), "balance-to-lighter"
        else:
            hand, rule = "left", "default-left"
        (left if hand == "left" else right).append(letter)
        trace.append((letter, ls, lc, rs, rc, hand, rule))
    return {"left": left, "right": right, "total_letters": total, "degenerate": False,
            "ranking": [[letter, count] for letter, count in ranking], "trace": trace}


# ---------------------------------------------------------------------------
# Checks of program output files against the references.

def check_ngram_tsv(path: Path, expected: Counter, n: int, total: int) -> list[str]:
    header: dict[str, str] = {}
    rows: list[tuple[str, int]] = []
    try:
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("#"):
                parts = line[1:].strip().split("\t")
                if len(parts) == 2:
                    header[parts[0]] = parts[1]
            elif line and not line.startswith("gram\t"):
                gram, count, _pct = line.split("\t")
                rows.append((gram, int(count)))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    problems = []
    if header.get("n") != str(n) or header.get("total_letters") != str(total):
        problems.append(f"{path.name}: header n={header.get('n')} "
                        f"total_letters={header.get('total_letters')}, expected {n}, {total}")
    if dict(rows) != dict(expected):
        diff = set(dict(rows).items()) ^ set(expected.items())
        problems.append(f"{path.name}: {len(diff)} gram counts differ from the reference, "
                        f"e.g. {sorted(diff)[:3]}")
    if rows != sorted(rows, key=lambda kv: (-kv[1], kv[0])):
        problems.append(f"{path.name}: rows are not sorted by count then gram")
    return problems


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8")), None
    except (OSError, ValueError) as exc:
        return None, f"{path.name}: unreadable: {exc}"


def check_summary(path: Path, mono: Counter) -> list[str]:
    doc, error = _load_json(path)
    if error:
        return [error]
    expected = {"total_letters": sum(mono.values()), "distinct_letters": len(mono)}
    found = {key: doc.get(key) for key in expected}
    return [] if found == expected else [f"{path.name}: {found}, expected {expected}"]


def check_report(path: Path, letters: str, hands: dict[str, str]) -> list[str]:
    doc, error = _load_json(path)
    if error:
        return [error]
    expected = replay(letters, hands)
    problems = [f"{path.name}: {key} is {doc.get(key)}, replay gives {value}"
                for key, value in expected.items() if doc.get(key) != value]
    try:
        if doc["left_load"] + doc["right_load"] + doc["not_determined"] != doc["total_letters"]:
            problems.append(f"{path.name}: left + right + not_determined != total_letters")
    except (KeyError, TypeError) as exc:
        problems.append(f"{path.name}: missing or non-numeric field {exc}")
    return problems


def layout_hands(path: Path) -> dict[str, str]:
    """Letter -> hand of a layout file; empty when the file is unreadable."""
    doc, error = _load_json(path)
    if error:
        return {}
    return {key["letter"]: key["hand"] for key in doc.get("keys", [])}


def check_partition(path: Path, expected: dict) -> list[str]:
    doc, error = _load_json(path)
    if error:
        return [error]
    problems = [f"{path.name}: {key} differs from the greedy reference"
                for key in ("left", "right", "total_letters", "degenerate", "ranking")
                if doc.get(key) != expected[key]]
    trace = [(row.get("letter"), row.get("left_support"), row.get("left_confidence"),
              row.get("right_support"), row.get("right_confidence"), row.get("hand"),
              row.get("rule")) for row in doc.get("trace", [])]
    if trace != expected["trace"]:
        first = next((i for i, (a, b) in enumerate(zip(trace, expected["trace"])) if a != b),
                     min(len(trace), len(expected["trace"])))
        problems.append(f"{path.name}: trace differs from the greedy reference at step {first}")
    return problems


def check_layout_on_hands(layout_path: Path, partition: dict) -> list[str]:
    """Every partition letter is placed, and on its partition hand."""
    hands = layout_hands(layout_path)
    wanted = {letter: "left" for letter in partition["left"]}
    wanted.update({letter: "right" for letter in partition["right"]})
    if hands == wanted:
        return []
    wrong = sorted(set(hands.items()) ^ set(wanted.items()))
    return [f"{layout_path.name}: {len(wrong)} letters off their partition hand, "
            f"e.g. {wrong[:3]}"]
