"""vapokit: slide-aware ASR evaluation and verifiable rollout rewards.

Library layout:

- textnorm / metrics: tokenization (one rule for every language: a CJK
  codepoint per token, whitespace words otherwise), edit alignment, WER,
  B-WER/U-WER, keyword recall, fuzzy entity matching, NE-WER, NE-FNR
- structured: the <think></think><answer></answer> rollout format
- rewards: format / OCR / ASR / visual-anchoring rewards and weighted total
- ocr_behavior: slide-only vocabulary leak detection
- grpo: desk-scale group-relative policy optimization on a behavior grid
- bench: synthetic slide-dataset construction and validation
- cli: the `vapokit` command
"""

from .data import Hypothesis, Sample
from .errors import ToolkitError
from .metrics import (
    Alignment,
    EntityRef,
    FuzzyMatch,
    MetricReport,
    aggregate_reports,
    align,
    fuzzy_find,
    keyword_recall,
    ne_fnr,
    ne_wer,
    partitioned_wer,
    sample_report,
    wer,
)
from .rewards import (
    RewardBreakdown,
    RewardWeights,
    asr_reward,
    extract_anchored,
    format_reward,
    ocr_reward,
    total_reward,
    visual_anchoring_reward,
)
from .structured import StructuredOutput, parse_structured, serialize_structured
from .textnorm import normalize_tokenize

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "EntityRef",
    "FuzzyMatch",
    "Hypothesis",
    "MetricReport",
    "RewardBreakdown",
    "RewardWeights",
    "Sample",
    "StructuredOutput",
    "ToolkitError",
    "aggregate_reports",
    "align",
    "asr_reward",
    "extract_anchored",
    "format_reward",
    "fuzzy_find",
    "keyword_recall",
    "ne_fnr",
    "ne_wer",
    "normalize_tokenize",
    "ocr_reward",
    "parse_structured",
    "partitioned_wer",
    "sample_report",
    "serialize_structured",
    "total_reward",
    "visual_anchoring_reward",
    "wer",
]
