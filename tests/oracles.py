"""Independent oracles used by the tests.

Everything here is deliberately written without reusing the library's
implementations: recursive edit distance (memoized over the decision space),
an alignment trace walked over that recursive cost, literal enumeration of
every alignment path for small inputs, a general windowed entity search,
keyword spans that try every keyword at every position, keyword recall as a
count of disjoint occurrences, a per-character tokenizer, per-character slide
word counting and wrap atoms, a greedy line fill, a regex-based recognizer
for the rollout grammar, the four rollout rewards from their definitions,
the policy sandbox's surrogate objective, and its training loop run one step
at a time.
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


def reference_keyword_spans(ref: tuple[str, ...], keywords: list[tuple[str, ...]]) -> list[tuple[int, int]]:
    """(start, stop) keyword spans of ``ref``, scanned left to right.

    At each position every keyword is tried; the longest one that matches
    there is taken and the scan resumes after it, else the scan moves one
    token on.
    """
    spans = []
    i = 0
    while i < len(ref):
        width = max((len(kw) for kw in keywords if tuple(ref[i : i + len(kw)]) == kw), default=0)
        if width:
            spans.append((i, i + width))
            i += width
        else:
            i += 1
    return spans


def reference_recall(hyp: tuple[str, ...], needles: list[tuple[str, ...]]) -> tuple[int, int]:
    """(recalled, occurrences) for the reference's keyword occurrences ``needles``.

    Each distinct keyword is credited with at most as many occurrences as the
    reference holds, and at most as many pairwise disjoint occurrences as
    ``hyp`` holds; the latter is a longest-prefix recurrence over ``hyp``.
    """
    recalled = 0
    for needle in set(needles):
        k = len(needle)
        best = [0] * (len(hyp) + 1)  # best[j]: disjoint occurrences within hyp[:j]
        for j in range(1, len(hyp) + 1):
            best[j] = best[j - 1]
            if j >= k and tuple(hyp[j - k : j]) == needle:
                best[j] = max(best[j], best[j - k] + 1)
        recalled += min(needles.count(needle), best[len(hyp)])
    return recalled, len(needles)


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


def reference_cells(text: str) -> int:
    """Monospace cells, character by character: 2 for east Asian width W or
    F, 1 for any other character."""
    return sum(2 if unicodedata.east_asian_width(ch) in ("W", "F") else 1 for ch in text)


def reference_wrap(atoms: list[tuple[str, str]], max_cells: int) -> list[str] | None:
    """Greedy line fill over (atom, separator) pairs, tracking line widths in
    cells; None when one atom alone is wider than ``max_cells``."""
    lines: list[str] = []
    parts: list[str] = []
    width = 0
    for atom, sep in atoms:
        cells = reference_cells(atom)
        if cells > max_cells:
            return None
        if parts and width + len(sep) + cells <= max_cells:
            parts += [sep, atom]
            width += len(sep) + cells
        else:
            if parts:
                lines.append("".join(parts))
            parts, width = [atom], cells
    if parts:
        lines.append("".join(parts))
    return lines


# Every ASCII code point, with the ten whitespace characters (str.isspace:
# \t, \n, \v, \f, \r, \x1c-\x1f and space) weighted up so that a string
# splits into several chunks.
_ASCII = [chr(c) for c in range(128)]
_ASCII_WEIGHTS = [8 if ch.isspace() else 1 for ch in _ASCII]


def ascii_text(rng: random.Random, max_len: int) -> str:
    """A random all-ASCII string of 0 to ``max_len`` characters."""
    return "".join(rng.choices(_ASCII, _ASCII_WEIGHTS, k=rng.randint(0, max_len)))


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


def reference_total_reward(sample, raw: str) -> dict:
    """The four rollout rewards of ``raw`` against ``sample``, from the paper's definitions.

    - r_format: 1 when the rollout is one think block then one answer block.
    - r_ocr: max(0, 1 - WER) of the think block against the slide text, and
      r_asr the same of the answer against the transcript; 0 when the
      reference has no tokens. A malformed rollout has empty blocks.
    - r_va: F1 between the entities anchored in the think block and the
      entities found in the answer, precision over the answer's, recall over
      the anchored; 0 when the two share none. An entity is found when
      ``reference_fuzzy_find`` places it, and entities with equal tokens
      count once, under their first surface.

    The sample's entities must each have a token.
    """
    well_formed = reference_well_formed(raw)
    think, answer = _REFERENCE_RE.match(raw).groups() if well_formed else ("", "")

    def accuracy(hyp: str, ref: str) -> float:
        ref_toks = reference_tokenize(ref)
        if not ref_toks:
            return 0.0
        return max(1.0 - levenshtein_recursive(ref_toks, reference_tokenize(hyp)) / len(ref_toks), 0.0)

    def found(text: str) -> dict[tuple[str, ...], str]:
        toks = reference_tokenize(text)
        keys: dict[tuple[str, ...], str] = {}
        for surface in sample.entities:
            key = reference_tokenize(surface)
            if reference_fuzzy_find(key, toks) is not None:
                keys.setdefault(key, surface)
        return keys

    anchored, answered = found(think), found(answer)
    shared = len(set(anchored) & set(answered))
    r_va = 0.0
    if shared:
        precision, recall = shared / len(answered), shared / len(anchored)
        r_va = 2 * precision * recall / (precision + recall)
    return {
        "r_format": int(well_formed),
        "r_ocr": accuracy(think, sample.slide_text),
        "r_asr": accuracy(answer, sample.transcript_gt),
        "r_va": r_va,
        "anchored_entities": list(anchored.values()),
    }


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


def surrogate_objective(logits, indices, advantages) -> float:
    """The sandbox's surrogate ``sum_i a_i * log softmax(logits)[k_i]``, with
    the advantages held constant; its gradient is what ``grpo.policy_step``
    ascends, up to the zero-sum term."""
    top = max(logits)
    log_norm = top + math.log(sum(math.exp(z - top) for z in logits))
    return float(sum(a * (logits[k] - log_norm) for k, a in zip(indices, advantages)))


def train_reference(config) -> tuple[list[dict], list[float]]:
    """The sandbox's training loop, one step at a time, in plain Python.

    All draws are successive ``random.Random(seed).random()`` values ``u``.
    Each step draws a sample index ``int(u * len(samples))``, then deals a
    group from cycles over the grid, each one a list shuffled by swapping
    position ``i`` with ``int(u * (i + 1))`` for ``i`` from the last down to
    1 and popped from the front; a cycle is shuffled when its first index is
    needed. The step normalizes the group's totals, takes one gradient step on
    the logits, zero-sum term included, and records the trace fields, with
    correctly rounded means (``math.fsum``). The reward table is the input, not
    what is checked: it comes from ``grpo.reward_matrix`` of the samples file
    the config names, looked up on the module so a test can cache it, weighed
    with the config's weights. Returns the step records and the final logits.
    """
    from vapokit import grpo
    from vapokit.data import read_samples, resolve_data_path

    samples = read_samples(resolve_data_path(config.samples))
    table = [[(*c, config.weights.weigh(*c)) for c in row] for row in grpo.reward_matrix(samples)]
    arms = len(table[0])
    optimum = grpo.ALL_TUPLES.index(grpo.OPTIMAL_TUPLE)
    rng = random.Random(config.seed)
    cycle: list[int] = []

    def deal() -> int:
        if not cycle:
            cycle.extend(range(arms))
            for i in range(arms - 1, 0, -1):
                j = int(rng.random() * (i + 1))
                cycle[i], cycle[j] = cycle[j], cycle[i]
        return cycle.pop(0)

    def mean(values) -> float:
        return math.fsum(values) / len(values)

    def softmax(z: list[float]) -> list[float]:
        top = max(z)
        e = [math.exp(v - top) for v in z]
        norm = math.fsum(e)
        return [v / norm for v in e]

    logits = [0.0] * arms
    steps = []
    for step in range(config.steps):
        si = int(rng.random() * len(samples))
        indices = [deal() for _ in range(config.group_size)]
        group = [table[si][k] for k in indices]
        rewards = [row[-1] for row in group]
        mu = mean(rewards)
        std = math.sqrt(mean([(r - mu) ** 2 for r in rewards]))
        advantages = [0.0] * len(rewards) if std < 1e-8 else [(r - mu) / std for r in rewards]
        grad = [-p * math.fsum(advantages) for p in softmax(logits)]
        for k, a in zip(indices, advantages):
            grad[k] += a
        logits = [z + config.lr * g for z, g in zip(logits, grad)]
        probs = softmax(logits)
        r_format, r_ocr, r_asr, r_va, total = (mean(column) for column in zip(*group))
        steps.append({
            "step": step,
            "mean_reward": total,
            "expected_reward": math.fsum(p * row[-1] for p, row in zip(probs, table[si])),
            "mean_format": r_format,
            "mean_ocr": r_ocr,
            "mean_asr": r_asr,
            "mean_va": r_va,
            "p_optimal": probs[optimum],
        })
    return steps, logits
