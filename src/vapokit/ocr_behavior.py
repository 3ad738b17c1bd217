"""Detection of OCR behavior: outputs that leak slide-only vocabulary.

A model that transcribes speech should never produce words that appear on
the slide but not in the spoken transcript. The detector keeps one set per
sample, V_slide_only = V_slide - V_transcript, and nothing else, and flags
any output that holds a word of it. Stopwords are not removed, so it
slightly over-detects.
"""

from __future__ import annotations

from typing import Sequence

from .data import Hypothesis, Sample, pair_by_id
from .errors import ToolkitError
from .textnorm import normalize_tokenize, tokenize_output


# Named "partition" for the benchmark's tracer, which wraps it by name; it
# returns only the slide-only side.
def partition_vocab(sample: Sample) -> frozenset[str]:
    """The slide-only vocabulary V_slide - V_transcript of one sample."""
    slide = normalize_tokenize(sample.slide_text)
    if not slide:
        raise ToolkitError("no-slide", f"sample {sample.id}: slide text has no tokens")
    return frozenset(slide).difference(normalize_tokenize(sample.transcript_gt))


def detect(output: str, slide_only: frozenset[str]) -> bool:
    """True iff the output contains at least one slide-only word."""
    return not slide_only.isdisjoint(tokenize_output(output))


def detect_all(
    samples: Sequence[Sample], outputs: Sequence[Hypothesis], allow_partial: bool = False
) -> list[dict]:
    """Per-sample detection rows, paired by id (see ``pair_by_id``) and sorted by id."""
    rows = []
    for sample, hyp in pair_by_id(samples, outputs, allow_partial=allow_partial):
        slide_only = partition_vocab(sample)
        rows.append(
            {
                "id": sample.id,
                "ocr_behavior": detect(hyp.text, slide_only),
                "slide_only_vocab": len(slide_only),
            }
        )
    return rows


def summarize(rows: Sequence[dict], name: str | None = None, split: str | None = None) -> dict:
    """One report row of ``detect_all`` rows: name, split, sample count, detection percentage (0..100)."""
    if not rows:
        raise ToolkitError("pairing", "a detection summary needs at least one paired sample")
    detected = sum(r["ocr_behavior"] for r in rows)
    return {
        "name": name,
        "split": split,
        "samples": len(rows),
        "detected": detected,
        "rate_percent": 100.0 * detected / len(rows),
    }
