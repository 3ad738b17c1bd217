"""Text normalization and tokenization shared by every metric and reward.

Normalization is deliberately simple and deterministic: NFC, lowercase,
punctuation becomes a separator, CJK codepoints become one token each, and
everything else splits on whitespace. Chinese error rates therefore come out
per-character while English stays per-word, with no per-language code paths:
a record's ``lang`` is a dataset label and never changes its tokens.
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
_CJK_CLASS = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES)
# One token per CJK codepoint, otherwise maximal runs of non-space characters.
_TOKEN_RE = re.compile(f"[{_CJK_CLASS}]|[^\\s{_CJK_CLASS}]+")


def is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


@lru_cache(maxsize=8192)
def _tokenize(text: str) -> tuple[str, ...]:
    text = unicodedata.normalize("NFC", text).lower()
    text = _PUNCT_RE.sub(" ", text)
    return tuple(_TOKEN_RE.findall(text))


def normalize_tokenize(text: str) -> tuple[str, ...]:
    """Normalize ``text`` and split it into tokens.

    Idempotent: tokenizing the space-joined token list reproduces it.
    Empty or punctuation-only input yields an empty tuple. This is a plain
    function over the cached ``_tokenize`` rather than an alias of it, so
    rebinding this name leaves the cache and its ``cache_info`` in place.
    """
    return _tokenize(text)
