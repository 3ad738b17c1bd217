"""Text normalization and tokenization shared by every metric and reward.

Normalization is deliberately simple and deterministic: NFC, lowercase,
punctuation becomes a separator, CJK codepoints become one token each, and
everything else splits on whitespace. Chinese error rates therefore come out
per-character while English stays per-word, with no per-language code paths.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
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


class LangMode(str, Enum):
    """Tokenization intent of a text.

    The splitting rules are identical in every mode (see module docstring);
    the mode is carried on the TokenSeq so downstream consumers know how the
    text was meant to be read.
    """

    LATIN_WORD = "latin-word"
    CJK_CHAR = "cjk-char"
    MIXED = "mixed"


def mode_for_lang(lang: str | None) -> LangMode:
    """Map a dataset language label ('en', 'zh', 'auto', ...) to a LangMode."""
    if lang == "en":
        return LangMode.LATIN_WORD
    if lang == "zh":
        return LangMode.CJK_CHAR
    return LangMode.MIXED


def is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


@dataclass(frozen=True)
class TokenSeq:
    """An ordered sequence of normalized tokens."""

    tokens: tuple[str, ...]
    lang_mode: LangMode = LangMode.MIXED

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def text(self) -> str:
        return " ".join(self.tokens)


@lru_cache(maxsize=8192)
def _tokenize(text: str) -> tuple[str, ...]:
    text = unicodedata.normalize("NFC", text).lower()
    text = _PUNCT_RE.sub(" ", text)
    return tuple(_TOKEN_RE.findall(text))


def normalize_tokenize(text: str, lang_mode: LangMode = LangMode.MIXED) -> TokenSeq:
    """Normalize ``text`` and split it into tokens.

    Idempotent: tokenizing the space-joined token list reproduces it.
    Empty or punctuation-only input yields an empty TokenSeq.
    """
    if isinstance(lang_mode, str) and not isinstance(lang_mode, LangMode):
        lang_mode = LangMode(lang_mode)
    return TokenSeq(_tokenize(text), lang_mode)
