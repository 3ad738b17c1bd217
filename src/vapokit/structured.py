"""Parsing of the mandatory <think></think><answer></answer> rollout format.

A rollout is well-formed iff it contains exactly one think block followed by
exactly one answer block, both closed, with nothing but whitespace outside.
Tags are case-sensitive; a tag literal appearing inside a block (nesting,
duplicates) makes the whole output malformed. Malformed output is data, not
an error: the parser never throws, it returns empty fields so the format
reward can still be computed.
"""

from __future__ import annotations

from typing import NamedTuple

THINK_OPEN = "<think>"
THINK_CLOSE = "</think>"
ANSWER_OPEN = "<answer>"
ANSWER_CLOSE = "</answer>"
_TAGS = (THINK_OPEN, THINK_CLOSE, ANSWER_OPEN, ANSWER_CLOSE)


class StructuredOutput(NamedTuple):
    think: str
    answer: str
    well_formed: bool


_MALFORMED = StructuredOutput(think="", answer="", well_formed=False)


def parse_structured(raw: str) -> StructuredOutput:
    """Extract think/answer contents, or a malformed marker with empty fields.

    Block contents keep their whitespace exactly as found (metric
    normalization strips it later where needed).
    """
    if any(raw.count(tag) != 1 for tag in _TAGS):
        return _MALFORMED
    t0 = raw.find(THINK_OPEN)
    t1 = raw.find(THINK_CLOSE)
    a0 = raw.find(ANSWER_OPEN)
    a1 = raw.find(ANSWER_CLOSE)
    if not (t0 < t1 < a0 < a1):
        return _MALFORMED
    if raw[:t0].strip() or raw[t1 + len(THINK_CLOSE) : a0].strip() or raw[a1 + len(ANSWER_CLOSE) :].strip():
        return _MALFORMED
    return StructuredOutput(
        think=raw[t0 + len(THINK_OPEN) : t1],
        answer=raw[a0 + len(ANSWER_OPEN) : a1],
        well_formed=True,
    )


def serialize_structured(think: str, answer: str) -> str:
    """Inverse of parse_structured for contents free of the four tag literals."""
    return f"{THINK_OPEN}{think}{THINK_CLOSE}{ANSWER_OPEN}{answer}{ANSWER_CLOSE}"
