"""A fixed piece of pure-Python work that measures the host's speed.

    python3 bench/reference.py     # prints the median pass in seconds

The shared host this benchmark runs on changes speed by itself, in
stretches of seconds. Every command process times ``run()`` right before
and right after the command, so the command's time can be read against
the host's speed at the same moments. The work never touches lexgrade:
it splits a fixed text into words with a regular expression, counts
vowel groups in each word in a Python loop, tallies the words in a dict
and sorts the tally, the same kinds of work the program does.
"""

from __future__ import annotations

import gc
import random
import re
import statistics
from time import perf_counter

_WORD = re.compile(r"[a-z]+")
_VOWELS = frozenset("aeiouy")


def _text(words: int = 6_000) -> str:
    rng = random.Random(20210222)
    letters = "etaoinshrdlcumwfgypbvkjxqz"
    weights = list(range(len(letters), 0, -1))
    vocabulary = ["".join(rng.choices(letters, weights, k=rng.randint(2, 11)))
                  for _ in range(1_500)]
    return " ".join(rng.choices(vocabulary, k=words)) + "."


TEXT = _text()


def _work(text: str) -> int:
    tally: dict[str, int] = {}
    groups = 0
    for word in _WORD.findall(text):
        previous = False
        for char in word:
            vowel = char in _VOWELS
            if vowel and not previous:
                groups += 1
            previous = vowel
        tally[word] = tally.get(word, 0) + 1
    ranked = sorted(tally.items(), key=lambda item: (-item[1], item[0]))
    return groups + len(ranked)


def run(repeats: int = 8) -> list[float]:
    """Seconds each of ``repeats`` passes over the fixed work takes now.

    Callers take the median pass, which a single interruption of the
    process does not move. The cyclic garbage collector is off meanwhile,
    so objects a command left alive cannot lengthen a pass through a
    collection.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        passes = []
        for _ in range(repeats):
            start = perf_counter()
            _work(TEXT)
            passes.append(perf_counter() - start)
        return passes
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    print(statistics.median(run()))
