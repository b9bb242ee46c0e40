"""The pipeline restated once, plainly, for the tests to hold the package to.

Each stage (splitting text into letter runs, counting, the greedy hand
split, placement and the replay that scores a layout) is restated from
the paper's description with plain loops over plain dicts and lists.
Nothing here imports layoutforge (``test_oracle_guard.py`` keeps it so),
so a defect in the package cannot hide in a helper its check shares.
"""

from collections import Counter


def letter_runs(items, letters=None):
    """The maximal runs of letters among ``items``, each as a list, in order.

    An item is a letter when it is in ``letters``, or, when no letters are
    given, when it is not None (a token list writes a boundary as None).
    """
    is_letter = (lambda item: item is not None) if letters is None else letters.__contains__
    runs, run = [], []
    for item in items:
        if is_letter(item):
            run.append(item)
        elif run:
            runs.append(run)
            run = []
    if run:
        runs.append(run)
    return runs


def ranked(counts):
    """(gram, count) pairs, the most frequent first and ties by code point."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def count(runs, span_boundaries=False):
    """[monograms, digraphs, trigrams, junctions] of the letter runs, as Counters.

    Each window lies inside one run, and a junction pairs the last letter
    of a run with the first letter of the next. With ``span_boundaries``
    all letters form one run, so windows cross word breaks and there are
    no junctions.
    """
    if span_boundaries:
        runs = [[letter for run in runs for letter in run]]
    tables = [Counter("".join(run[i:i + n]) for run in runs for i in range(len(run) - n + 1))
              for n in (1, 2, 3)]
    return tables + [Counter(a[-1] + b[0] for a, b in zip(runs, runs[1:]))]


def replay(hand_of, tokens, reset_on_boundary=False):
    """(left load, right load, not determined, hand switches) of a token list.

    ``hand_of`` maps each placed letter to "left" or "right", and None in
    ``tokens`` is a word boundary. A letter on no hand is not determined
    and leaves the previous hand as it was; a boundary forgets the
    previous hand only with ``reset_on_boundary``.
    """
    loads = {"left": 0, "right": 0}
    nd = switching = 0
    prev = None
    for token in tokens:
        if token is None:
            prev = None if reset_on_boundary else prev
            continue
        hand = hand_of.get(token)
        if hand is None:
            nd += 1
            continue
        loads[hand] += 1
        switching += prev is not None and prev != hand
        prev = hand
    return loads["left"], loads["right"], nd, switching


def greedy(mono_counts, digraph_counts, total, coverage=1, balance=False):
    """The paper's greedy two-hand split: (left, right, trace).

    The letters counted at least ``coverage`` times are ranked
    (``ranked``); ranks 1 and 4 seed the right hand and ranks 2 and
    3 the left. Each later letter sums its support and confidence against
    each hand's members, term by term in hand order. It goes right when
    both sums against the left hand are larger. Otherwise it goes left,
    or, with ``balance``, left when both sums against the right hand are
    larger and else to the hand with fewer letters, the left on a tie.
    A letter's involvement, the confidence denominator, is a scan of the
    whole digraph table. Each trace row is (letter, left support, left
    confidence, right support, right confidence, hand, rule).
    """
    ranking = [(g, c) for g, c in ranked(mono_counts) if c >= coverage]
    right = [ranking[0][0], ranking[3][0]]
    left = [ranking[1][0], ranking[2][0]]
    trace = [(letter, 0.0, 0.0, 0.0, 0.0, hand, "seed") for letter, hand in
             zip((g for g, _c in ranking[:4]), ("right", "left", "left", "right"))]
    for letter, _count in ranking[4:]:
        involvement = sum(c for g, c in digraph_counts.items() if letter in g)

        def cumulative(side):
            sup = conf = 0.0
            for member in side:
                for gram in (letter + member, member + letter):
                    sup += 100.0 * digraph_counts.get(gram, 0) / total
                    if involvement:
                        conf += 100.0 * digraph_counts.get(gram, 0) / involvement
            return sup, conf

        ls, lc = cumulative(left)
        rs, rc = cumulative(right)
        if ls > rs and lc > rc:
            hand, rule = "right", "left-association-to-right"
        elif balance and rs > ls and rc > lc:
            hand, rule = "left", "right-association-to-left"
        elif balance:
            hand = "left" if len(left) <= len(right) else "right"
            rule = "balance-to-lighter"
        else:
            hand, rule = "left", "default-left"
        (left if hand == "left" else right).append(letter)
        trace.append((letter, ls, lc, rs, rc, hand, rule))
    return left, right, trace


def placement(left, right, mono_counts):
    """Each letter's key on the default grid, as (hand, layer, row, column).

    A hand's letters, ranked by their counts (``ranked``), take its home
    row (row 1 of rows 0-2) from the innermost column outward, then the
    top row, then the bottom row, and then the same sweep on the shift
    and ctrl layers. Columns 1-5 are the left hand's and 6-10 the right's.
    """
    keys = {}
    for hand, letters, columns in (("left", left, range(5, 0, -1)),
                                   ("right", right, range(6, 11))):
        slots = [(hand, layer, row, column) for layer in ("base", "shift", "ctrl")
                 for row in (1, 0, 2) for column in columns]
        hand_counts = {letter: mono_counts[letter] for letter in letters}
        keys.update(zip((letter for letter, _c in ranked(hand_counts)), slots))
    return keys
