"""The four rollout rewards and their weighted total.

A rollout is scored against a Sample along four axes: format compliance
(binary), OCR fidelity of the think block against the slide text, ASR
fidelity of the answer against the ground-truth transcript, and visual
anchoring — an F1 between the entities recognized in the think block and the
entities carried into the answer. Error-rate rewards are 1 - WER clipped at
zero. The total is the weighted sum; totals are bounded by the weight sum for
arbitrary input text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import _as_number, load_json
from .errors import ToolkitError
from .metrics import EntityRef, fuzzy_find, token_edit_distance
from .structured import StructuredOutput, parse_structured
from .textnorm import normalize_tokenize


@dataclass(frozen=True)
class RewardWeights:
    lambda_format: float = 1.0
    lambda_ocr: float = 1.0
    lambda_asr: float = 1.0
    lambda_va: float = 1.0

    def as_dict(self) -> dict[str, float]:
        return dict(vars(self))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(vars(self).values())

    @property
    def total(self) -> float:
        return sum(self.as_tuple())

    def weigh(self, r_format, r_ocr, r_asr, r_va):
        """The weighted total, summed left to right; floats or arrays give the same doubles."""
        return (
            self.lambda_format * r_format
            + self.lambda_ocr * r_ocr
            + self.lambda_asr * r_asr
            + self.lambda_va * r_va
        )

    @classmethod
    def from_mapping(cls, d: dict) -> "RewardWeights":
        """Weights from a mapping of numbers or numeric strings; missing keys default to 1."""
        if not isinstance(d, dict):
            raise ToolkitError("bad-weights", f"weights must be an object, got {d!r:.80}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ToolkitError("bad-weights", f"unknown weight keys: {sorted(unknown)}")
        weights = cls(**{k: _as_number(v, float, "bad-weights", k) for k, v in d.items()})
        if any(not math.isfinite(w) or w < 0 for w in weights.as_tuple()):
            raise ToolkitError("bad-weights", "weights must be finite and >= 0")
        if not math.isfinite(weights.total):  # a total reward is at most the weight sum
            raise ToolkitError("bad-weights", f"weight sum overflows: {weights.as_tuple()}")
        return weights

    @classmethod
    def from_file(cls, path: str | Path) -> "RewardWeights":
        """Load weights from a JSON object or `key=value` lines; missing keys default to 1."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, ValueError) as e:
            raise ToolkitError("bad-weights", f"cannot read {path}: {e}") from e
        text = text.strip()
        if not text:
            return cls()
        if text.startswith("{"):
            try:
                mapping = load_json(text)
            except ValueError as e:
                raise ToolkitError("bad-weights", f"{path}: {e}") from e
            return cls.from_mapping(mapping)
        d = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ToolkitError("bad-weights", f"{path}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            d[key.strip()] = value.strip()
        return cls.from_mapping(d)


@dataclass
class RewardBreakdown:
    r_format: int
    r_ocr: float
    r_asr: float
    r_va: float
    total: float
    anchored_entities: list[str] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "r_format": self.r_format,
            "r_ocr": self.r_ocr,
            "r_asr": self.r_asr,
            "r_va": self.r_va,
            "total": self.total,
            "anchored_entities": list(self.anchored_entities),
            "diagnostics": list(self.diagnostics),
        }


def format_reward(parsed: StructuredOutput) -> int:
    return 1 if parsed.well_formed else 0


def _clipped_accuracy(hypothesis: str, reference: str) -> float:
    ref = normalize_tokenize(reference)
    if not ref:
        return 0.0
    hyp = normalize_tokenize(hypothesis)
    return max(1.0 - token_edit_distance(ref, hyp) / len(ref), 0.0)


def ocr_reward(think: str, slide_text: str) -> float:
    """max(1 - WER(think, slide_text), 0); 0 when the slide normalizes to nothing."""
    return _clipped_accuracy(think, slide_text)


def asr_reward(answer: str, transcript_gt: str) -> float:
    """max(1 - WER(answer, transcript_gt), 0); 0 when the transcript is empty."""
    return _clipped_accuracy(answer, transcript_gt)


def _entity_keys_found(text: str, entities: list[str]) -> dict[tuple[str, ...], str]:
    """Entities ``fuzzy_find`` locates in ``text``, keyed by normalized token tuple (dedup).

    An entity that normalizes to nothing raises ``empty-entity``, as in ``score``.
    """
    toks = normalize_tokenize(text)
    found: dict[tuple[str, ...], str] = {}
    for surface in entities:
        needle = normalize_tokenize(surface)
        if needle not in found and fuzzy_find(EntityRef(surface, needle), toks) is not None:
            found[needle] = surface
    return found


def extract_anchored(think: str, entities: list[str]) -> list[str]:
    """Entities from the sample list that appear in the think block.

    Matching is the evaluation's entity rule (``fuzzy_find``). The result is
    deduplicated and keeps the input list order.
    """
    return list(_entity_keys_found(think, entities).values())


def visual_anchoring_reward(e_think: list[str], answer: str, entities: list[str]) -> float:
    """F1 between think-anchored entities and entities present in the answer.

    Recall counts anchored entities that made it into the answer. Precision
    is over all entities found in the answer, so unanchored entity stuffing
    is punished. Empty anchored set, or no entities in the answer, scores 0.
    """
    think_keys = set()
    for surface in e_think:
        needle = normalize_tokenize(surface)
        if needle:
            think_keys.add(needle)
    if not think_keys:
        return 0.0
    answer_keys = set(_entity_keys_found(answer, entities))
    if not answer_keys:
        return 0.0
    inter = len(think_keys & answer_keys)
    precision = inter / len(answer_keys)
    recall = inter / len(think_keys)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def total_reward(sample, raw_output: str, weights: RewardWeights | None = None) -> RewardBreakdown:
    """Score one raw rollout string against a Sample.

    Never raises on model text: malformed structure zeroes the format reward
    and the content rewards are computed on empty think/answer (all 0), so
    the gradient toward format compliance is preserved without extra
    penalties.
    """
    if weights is None:
        weights = RewardWeights()
    parsed = parse_structured(raw_output)
    r_fmt = format_reward(parsed)
    think = parsed.think if parsed.well_formed else ""
    answer = parsed.answer if parsed.well_formed else ""

    diagnostics = []
    if not parsed.well_formed:
        diagnostics.append("malformed-format")
    if not normalize_tokenize(sample.slide_text):
        diagnostics.append("empty-slide-text")
    if not normalize_tokenize(sample.transcript_gt):
        diagnostics.append("empty-transcript")

    r_ocr = ocr_reward(think, sample.slide_text)
    r_asr = asr_reward(answer, sample.transcript_gt)
    e_think = extract_anchored(think, sample.entities)
    r_va = visual_anchoring_reward(e_think, answer, sample.entities)
    return RewardBreakdown(
        r_format=r_fmt,
        r_ocr=r_ocr,
        r_asr=r_asr,
        r_va=r_va,
        total=weights.weigh(r_fmt, r_ocr, r_asr, r_va),
        anchored_entities=e_think,
        diagnostics=diagnostics,
    )
