"""Detection of OCR behavior: outputs that leak slide-only vocabulary.

A model that transcribes speech should never produce words that appear on
the slide but not in the spoken transcript. The check splits the slide
vocabulary into the words the transcript shares and the slide-only rest, and
flags any output that holds a slide-only word. Stopwords are not removed, so
it slightly over-detects.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .data import Hypothesis, Sample, pair_by_id
from .errors import ToolkitError
from .textnorm import normalize_tokenize, tokenize_output


class VocabPartition(NamedTuple):
    v_common: frozenset[str]
    v_slide_only: frozenset[str]


def partition_vocab(sample: Sample) -> VocabPartition:
    """Split the slide vocabulary into transcript-shared and slide-only sets."""
    slide = set(normalize_tokenize(sample.slide_text))
    transcript = set(normalize_tokenize(sample.transcript_gt))
    if not slide:
        raise ToolkitError("no-slide", f"sample {sample.id}: slide text has no tokens")
    return VocabPartition(v_common=frozenset(slide & transcript), v_slide_only=frozenset(slide - transcript))


def detect(output: str, partition: VocabPartition) -> bool:
    """True iff the output contains at least one slide-only word."""
    return not partition.v_slide_only.isdisjoint(tokenize_output(output))


def detect_all(
    samples: Sequence[Sample], outputs: Sequence[Hypothesis], allow_partial: bool = False
) -> list[dict]:
    """Per-sample detection rows, paired by id (see ``pair_by_id``) and sorted by id."""
    rows = []
    for sample, hyp in pair_by_id(samples, outputs, allow_partial=allow_partial):
        partition = partition_vocab(sample)
        flagged = detect(hyp.text, partition)
        rows.append(
            {
                "id": sample.id,
                "ocr_behavior": flagged,
                "slide_only_vocab": len(partition.v_slide_only),
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
