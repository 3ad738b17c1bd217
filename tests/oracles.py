"""Independent oracles used by the tests.

Everything here is deliberately written without reusing the library's
implementations: recursive edit distance (memoized over the decision space),
an alignment trace walked over that recursive cost, literal enumeration of
every alignment path for small inputs, a general windowed entity search, a
per-character tokenizer, per-character slide word counting and wrap atoms, a
greedy line fill, and a regex-based recognizer for the rollout grammar.
"""

from __future__ import annotations

import math
import random
import re
import unicodedata
from functools import lru_cache


def levenshtein_recursive(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Minimum alignment cost by exploring every decision, memoized."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        best = go(i + 1, j + 1) + (0 if a[i] == b[j] else 1)
        best = min(best, go(i + 1, j) + 1)  # delete a[i]
        best = min(best, go(i, j + 1) + 1)  # insert b[j]
        return best

    return go(0, 0)


def reference_alignment_ops(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[tuple, ...]:
    """Alignment ops of ``a`` (reference) against ``b`` (hypothesis).

    The cost of every prefix pair comes from a memoized recursion; the trace
    is walked back from (len(a), len(b)) with the documented tie-break: hit,
    then substitution, then deletion, then insertion.
    """

    @lru_cache(maxsize=None)
    def cost(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return i + j
        return min(
            cost(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
            cost(i - 1, j) + 1,
            cost(i, j - 1) + 1,
        )

    ops = []
    i, j = len(a), len(b)
    while i or j:
        here = cost(i, j)
        if i and j and a[i - 1] == b[j - 1] and here == cost(i - 1, j - 1):
            ops.append(("hit", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i and j and here == cost(i - 1, j - 1) + 1:
            ops.append(("sub", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i and here == cost(i - 1, j) + 1:
            ops.append(("del", i - 1, None))
            i -= 1
        else:
            assert j and here == cost(i, j - 1) + 1
            ops.append(("ins", None, j - 1))
            j -= 1
    return tuple(reversed(ops))


def enumerate_alignments_min(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Cost of the best alignment by walking every path (no memoization).

    Exponential; only for short sequences.
    """
    best = [len(a) + len(b)]

    def walk(i: int, j: int, cost: int) -> None:
        if cost >= best[0]:
            return
        if i == len(a) and j == len(b):
            best[0] = cost
            return
        if i < len(a) and j < len(b):
            walk(i + 1, j + 1, cost + (0 if a[i] == b[j] else 1))
        if i < len(a):
            walk(i + 1, j, cost + 1)
        if j < len(b):
            walk(i, j + 1, cost + 1)

    walk(0, 0, 0)
    return best[0]


def char_distance(a: str, b: str) -> int:
    return levenshtein_recursive(tuple(a), tuple(b))


def reference_fuzzy_find(entity: tuple[str, ...], text: tuple[str, ...]) -> tuple[int, int, int] | None:
    """(start, stop, distance) of the best window of ``text`` for ``entity``, or None.

    The general window search: the budget is max(0, floor(2 / k - 1)) edits
    for a k-token entity. A single-token entity is compared character-wise
    with every token; a longer one token-wise with every window of
    k - budget .. k + budget tokens. The lowest distance within the budget
    wins; ties go to the leftmost, then the shortest window.
    """
    k = len(entity)
    budget = max(0, 2 // k - 1)  # floor(2 / k - 1) for k >= 1
    best = None
    for start in range(len(text)):
        for width in (1,) if k == 1 else range(max(1, k - budget), k + budget + 1):
            stop = start + width
            if stop > len(text):
                break
            if k == 1:
                dist = char_distance(entity[0], text[start])
            else:
                dist = levenshtein_recursive(entity, text[start:stop])
            if dist <= budget and (best is None or dist < best[2]):
                best = (start, stop, dist)
    return best


# Codepoint ranges emitted one token per codepoint (Han, kana, hangul).
_REFERENCE_CJK = (
    (0x3040, 0x30FF),
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xAC00, 0xD7AF),
    (0xF900, 0xFAFF),
    (0x20000, 0x2A6DF),
)


def reference_tokenize(text: str) -> tuple[str, ...]:
    """Tokenize character by character: NFC, lowercase, punctuation and
    underscore to spaces, split on whitespace, then cut every CJK codepoint
    out of its chunk as its own token."""
    text = unicodedata.normalize("NFC", text).lower()
    text = re.sub(r"[^\w\s]|_", " ", text)
    text = re.sub(r"\s+", " ", text).strip()
    tokens: list[str] = []
    for chunk in text.split(" ") if text else ():
        run = ""
        for ch in chunk:
            if any(lo <= ord(ch) <= hi for lo, hi in _REFERENCE_CJK):
                if run:
                    tokens.append(run)
                    run = ""
                tokens.append(ch)
            else:
                run += ch
        if run:
            tokens.append(run)
    return tuple(tokens)


def _reference_is_cjk(ch: str) -> bool:
    return any(lo <= ord(ch) <= hi for lo, hi in _REFERENCE_CJK)


def reference_word_count(text: str) -> int:
    """Slide word cap, character by character: each whitespace chunk adds one
    word per non-CJK run, and all CJK codepoints together add ceil(n / 2)."""
    words = 0
    cjk_chars = 0
    for chunk in text.split():
        in_run = False
        for ch in chunk:
            if _reference_is_cjk(ch):
                cjk_chars += 1
                in_run = False
            elif not in_run:
                words += 1
                in_run = True
    return words + math.ceil(cjk_chars / 2)


def reference_wrap_atoms(text: str) -> list[tuple[str, str]]:
    """(atom, separator) pairs, character by character: the first atom of
    each whitespace chunk gets " ", every later one in that chunk gets ""."""
    atoms: list[tuple[str, str]] = []
    for chunk in text.split():
        sep = " "
        run = ""
        for ch in chunk:
            if _reference_is_cjk(ch):
                if run:
                    atoms.append((run, sep))
                    sep = ""
                    run = ""
                atoms.append((ch, sep))
                sep = ""
            else:
                run += ch
        if run:
            atoms.append((run, sep))
    return atoms


def reference_wrap(atoms: list[tuple[str, str]], max_chars: int) -> list[str] | None:
    """Greedy line fill over (atom, separator) pairs, tracking line widths;
    None when one atom alone is wider than ``max_chars``."""
    lines: list[str] = []
    parts: list[str] = []
    width = 0
    for atom, sep in atoms:
        if len(atom) > max_chars:
            return None
        if parts and width + len(sep) + len(atom) <= max_chars:
            parts += [sep, atom]
            width += len(sep) + len(atom)
        else:
            if parts:
                lines.append("".join(parts))
            parts, width = [atom], len(atom)
    if parts:
        lines.append("".join(parts))
    return lines


# Reference recognizer for the rollout grammar: one think block, one answer
# block, properly nested and ordered, nothing but whitespace outside, no tag
# literal inside a block.
_REFERENCE_RE = re.compile(
    r"\s*<think>((?:(?!</?think>|</?answer>).)*)</think>"
    r"\s*<answer>((?:(?!</?think>|</?answer>).)*)</answer>\s*\Z",
    re.DOTALL,
)


def reference_well_formed(raw: str) -> bool:
    return _REFERENCE_RE.match(raw) is not None


_TAG_PIECES = [
    "<think>",
    "</think>",
    "<answer>",
    "</answer>",
    "<think",
    "think>",
    "< think>",
    "<Think>",
    "</ answer>",
    "",
    " ",
    "\n",
    "\t",
    "hello",
    "slide text",
    "你好",
    "a b c",
    "<",
    ">",
    "/",
]


def tag_soup(rng: random.Random) -> str:
    """Random concatenations of tag fragments; sometimes near-canonical."""
    roll = rng.random()
    if roll < 0.25:
        think = " ".join(rng.choices(_TAG_PIECES, k=rng.randint(0, 3)))
        answer = " ".join(rng.choices(_TAG_PIECES, k=rng.randint(0, 3)))
        lead = rng.choice(["", " ", "\n", "x"])
        mid = rng.choice(["", " ", "\n", "junk"])
        tail = rng.choice(["", " ", "\n", "y"])
        return f"{lead}<think>{think}</think>{mid}<answer>{answer}</answer>{tail}"
    count = rng.randint(0, 8)
    return "".join(rng.choice(_TAG_PIECES) for _ in range(count))


_WORDS = ["alpha", "beta", "gamma", "delta", "slide", "talk", "你", "好", "x", "qq"]


def rollout_soup(rng: random.Random) -> str:
    """Arbitrary rollout strings: raw noise, tag soup, or well-formed text."""
    roll = rng.random()
    if roll < 0.5:
        alphabet = "<>/thinkanswer abz你好\n\t."
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
    if roll < 0.8:
        return tag_soup(rng)
    think = " ".join(rng.choices(_WORDS, k=rng.randint(0, 12)))
    answer = " ".join(rng.choices(_WORDS, k=rng.randint(0, 12)))
    return f"<think>{think}</think><answer>{answer}</answer>"
