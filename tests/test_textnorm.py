from __future__ import annotations

import random
import unicodedata

from oracles import ascii_text, reference_tokenize
from vapokit.textnorm import _CJK_RANGES, is_cjk, normalize_tokenize, tokenize_output


def test_latin_casing_and_punctuation():
    assert normalize_tokenize("The cat, sat.") == ("the", "cat", "sat")


def test_mixed_cjk_per_character():
    assert normalize_tokenize("你好world") == ("你", "好", "world")


def test_empty_input():
    assert normalize_tokenize("") == ()
    assert normalize_tokenize(" .,!? ") == ()


def test_nfc_normalization():
    composed = "café"
    decomposed = unicodedata.normalize("NFD", composed)
    assert normalize_tokenize(composed) == normalize_tokenize(decomposed)


_ALPHABET = "aB. 你好,写 zQ!-3\tx\n"


def test_token_invariants_random():
    rng = random.Random(1)
    for _ in range(500):
        text = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 40)))
        for tok in normalize_tokenize(text):
            assert tok, "empty token"
            assert not any(c.isspace() for c in tok)
            if any(is_cjk(c) for c in tok):
                assert len(tok) == 1, f"CJK token not single char: {tok!r}"


def test_idempotence_random():
    rng = random.Random(2)
    for _ in range(500):
        text = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 40)))
        tokens = normalize_tokenize(text)
        assert normalize_tokenize(" ".join(tokens)) == tokens


def _fuzz_alphabet() -> list[str]:
    edges = []
    for lo, hi in _CJK_RANGES:
        edges += [chr(lo - 1), chr(lo), chr(lo + 1), chr(hi - 1), chr(hi), chr(hi + 1)]
    spaces = [" ", "\t", "\n", "\u00a0", "\u3000", "\u0085", "\u001c", "\u2028", "\u200b"]
    marks = ["\u0301", "\u0308", "\u3099", "e", "E", "\u0130", "\u00df", "\u212b"]
    return edges + spaces + marks + list("_09aZ.,!-'\"") + ["\u0663", "\u00b2", "你", "가", "ア"]


def test_tokenize_equals_reference_tokenizer_fuzz():
    """20k seeded strings around every CJK range edge, unusual spaces,
    underscores, digits and combining marks. Both entry points, cached and
    uncached, give the reference tokens."""
    alphabet = _fuzz_alphabet()
    rng = random.Random(8)
    for _ in range(20_000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 24)))
        assert normalize_tokenize(text) == reference_tokenize(text) == tokenize_output(text), repr(text)


def test_tokenize_equals_reference_tokenizer_ascii_fuzz():
    """20k seeded all-ASCII strings, which take the tokenizer's ASCII path.
    Both entry points, cached and uncached, give the reference tokens."""
    rng = random.Random(9)
    for _ in range(20_000):
        text = ascii_text(rng, 24)
        assert normalize_tokenize(text) == reference_tokenize(text) == tokenize_output(text), repr(text)
