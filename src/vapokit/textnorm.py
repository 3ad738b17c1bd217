"""Text normalization and tokenization shared by every metric and reward.

Normalization is deliberately simple and deterministic: NFC, lowercase,
punctuation becomes a separator, CJK codepoints become one token each, and
everything else splits on whitespace. Chinese error rates therefore come out
per-character while English stays per-word, with no per-language code paths:
a record's ``lang`` is a dataset label and never changes its tokens.

One body tokenizes every text, behind two entry points that differ only in
caching. ``normalize_tokenize`` caches its results, for the sample-side texts
that recur: a slide, a transcript and an entity surface are read once per
record, and many records share one slide and one entity list.
``tokenize_output`` caches nothing, for model outputs (hypotheses, rollouts
and their think and answer blocks), which are each tokenized once: cached,
they would fill the cache with texts never looked up again.
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache

_PUNCT_RE = re.compile(r"[^\w\s]|_", flags=re.UNICODE)

# Han ideographs plus kana and hangul syllables. Each codepoint in these
# ranges is emitted as its own token.
_CJK_RANGES = (
    (0x3040, 0x30FF),
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xAC00, 0xD7AF),
    (0xF900, 0xFAFF),
    (0x20000, 0x2A6DF),
)
# For ASCII text, _PUNCT_RE as a translation table: every character that is
# neither alphanumeric nor whitespace, "_" included, becomes a space. str.split
# and re's \s share one whitespace predicate, so splitting afterwards cuts the
# same tokens as the pattern below, which ASCII text never needs.
_ASCII_PUNCT = bytes(c if chr(c).isalnum() or chr(c).isspace() else 0x20 for c in range(128))


@lru_cache(maxsize=None)
def _token_re() -> re.Pattern:
    """One token per CJK codepoint, otherwise maximal runs of non-space characters.

    Compiled on first use: the CJK class takes milliseconds to compile, and a
    command that only ever sees ASCII text never needs it.
    """
    cjk = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES)
    return re.compile(f"[{cjk}]|[^\\s{cjk}]+")


def is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


@lru_cache(maxsize=8192)
def _tokenize(text: str) -> tuple[str, ...]:
    if text.isascii():  # already NFC, and without CJK
        return tuple(text.translate(_ASCII_PUNCT).lower().split())
    text = unicodedata.normalize("NFC", text).lower()
    text = _PUNCT_RE.sub(" ", text)
    return tuple(_token_re().findall(text))


def normalize_tokenize(text: str) -> tuple[str, ...]:
    """Normalize ``text`` and split it into tokens, caching the result.

    For sample-side texts, which recur: slides, transcripts and entity
    surfaces. Idempotent: tokenizing the space-joined token list reproduces
    it. Empty or punctuation-only input yields an empty tuple. This is a
    plain function over the cached ``_tokenize`` rather than an alias of it,
    so rebinding this name leaves the cache and its ``cache_info`` in place.
    """
    return _tokenize(text)


def tokenize_output(text: str) -> tuple[str, ...]:
    """``normalize_tokenize`` without the cache: the same tokens, nothing kept.

    For model outputs, which are each tokenized once: hypotheses, rollouts
    and their think and answer blocks.
    """
    return _tokenize.__wrapped__(text)
