"""The four rollout rewards and their weighted total.

A rollout is scored against a Sample along four axes: format compliance
(binary), OCR fidelity of the think block against the slide text, ASR
fidelity of the answer against the ground-truth transcript, and visual
anchoring — an F1 between the entities recognized in the think block and the
entities carried into the answer. Error-rate rewards are 1 - WER clipped at
zero. The total is the weighted sum, added left to right
(``RewardWeights.weigh``); totals are bounded by the weight sum for arbitrary
input text. ``RewardWeights.total`` folds the weights the same way, and each
reward is at most 1, so the bound holds bit for bit on every Python version.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .data import Record, _as_number, load_json
from .errors import ToolkitError
from .metrics import EntityRef, fuzzy_find, token_edit_distance
from .structured import StructuredOutput, parse_structured
from .textnorm import normalize_tokenize, tokenize_output


class RewardWeights(NamedTuple):
    lambda_format: float = 1.0
    lambda_ocr: float = 1.0
    lambda_asr: float = 1.0
    lambda_va: float = 1.0

    def as_dict(self) -> dict[str, float]:
        return self._asdict()

    @property
    def total(self) -> float:
        """The weight sum, as ``weigh`` folds it: every total reward is at most this."""
        return self.weigh(1.0, 1.0, 1.0, 1.0)

    def weigh(self, r_format, r_ocr, r_asr, r_va):
        """The weighted total of four floats, summed left to right."""
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
        unknown = set(d) - set(cls._fields)
        if unknown:
            raise ToolkitError("bad-weights", f"unknown weight keys: {sorted(unknown)}")
        weights = cls(**{k: _as_number(v, float, "bad-weights", k) for k, v in d.items()})
        if any(not math.isfinite(w) or w < 0 for w in weights):
            raise ToolkitError("bad-weights", "weights must be finite and >= 0")
        if not math.isfinite(weights.total):  # a total reward is at most the weight sum
            raise ToolkitError("bad-weights", f"weight sum overflows: {tuple(weights)}")
        return weights

    @classmethod
    def from_file(cls, path: str | Path) -> "RewardWeights":
        """Load weights from a JSON object or `key=value` lines; missing keys default to 1."""
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
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


class RewardBreakdown(Record):
    def __init__(
        self,
        r_format: int,
        r_ocr: float,
        r_asr: float,
        r_va: float,
        total: float,
        anchored_entities: list[str] | None = None,
        diagnostics: list[str] | None = None,
    ):
        self.r_format = r_format
        self.r_ocr = r_ocr
        self.r_asr = r_asr
        self.r_va = r_va
        self.total = total
        self.anchored_entities = [] if anchored_entities is None else anchored_entities
        self.diagnostics = [] if diagnostics is None else diagnostics

    def as_dict(self) -> dict:
        # A shallow copy in field order, with its own lists.
        return {**vars(self), "anchored_entities": list(self.anchored_entities),
                "diagnostics": list(self.diagnostics)}


def format_reward(parsed: StructuredOutput) -> int:
    return 1 if parsed.well_formed else 0


def _accuracy(hyp: tuple[str, ...], ref: tuple[str, ...]) -> float:
    """max(1 - WER(hyp, ref), 0) over tokens; 0 when ``ref`` has none."""
    if not ref:
        return 0.0
    return max(1.0 - token_edit_distance(ref, hyp) / len(ref), 0.0)


def ocr_reward(think: str, slide_text: str) -> float:
    """max(1 - WER(think, slide_text), 0); 0 when the slide normalizes to nothing."""
    return _accuracy(tokenize_output(think), normalize_tokenize(slide_text))


def asr_reward(answer: str, transcript_gt: str) -> float:
    """max(1 - WER(answer, transcript_gt), 0); 0 when the transcript is empty."""
    return _accuracy(tokenize_output(answer), normalize_tokenize(transcript_gt))


def _found_keys(refs: list[EntityRef], toks: tuple[str, ...]) -> dict[tuple[str, ...], str]:
    """Entities ``fuzzy_find`` locates in ``toks``: token tuple -> first surface, in list order (dedup)."""
    found: dict[tuple[str, ...], str] = {}
    for ent in refs:
        if ent.tokens not in found and fuzzy_find(ent, toks) is not None:
            found[ent.tokens] = ent.surface
    return found


def _anchoring_f1(think_keys, answer_keys) -> float:
    """F1 of the entity keys anchored in the think block against those found in the answer."""
    inter = len(think_keys & answer_keys)
    if inter == 0:
        return 0.0
    precision = inter / len(answer_keys)
    recall = inter / len(think_keys)
    return 2 * precision * recall / (precision + recall)


def extract_anchored(think: str, entities: list[str]) -> list[str]:
    """Entities from the sample list that appear in the think block.

    Matching is the evaluation's entity rule (``fuzzy_find``). The result is
    deduplicated and keeps the input list order.
    """
    refs = [EntityRef.from_surface(e) for e in entities]  # "!!!" raises empty-entity, as in score
    return list(_found_keys(refs, tokenize_output(think)).values())


def visual_anchoring_reward(e_think: list[str], answer: str, entities: list[str]) -> float:
    """F1 between think-anchored entities and entities present in the answer.

    Recall counts anchored entities that made it into the answer. Precision
    is over all entities found in the answer, so unanchored entity stuffing
    is punished. Empty anchored set, or no entities in the answer, scores 0.
    """
    think_keys = {normalize_tokenize(surface) for surface in e_think} - {()}
    refs = [EntityRef.from_surface(e) for e in entities]
    return _anchoring_f1(think_keys, _found_keys(refs, tokenize_output(answer)).keys())


def total_reward(sample, raw_output: str, weights: RewardWeights | None = None) -> RewardBreakdown:
    """Score one raw rollout string against a Sample.

    Never raises on model text: malformed structure zeroes the format reward
    and the content rewards are computed on empty think/answer (all 0), so
    the gradient toward format compliance is preserved without extra
    penalties. Each text and entity is tokenized once; the answer is searched
    for entities only when the think block anchors one.
    """
    if weights is None:
        weights = RewardWeights()
    parsed = parse_structured(raw_output)  # empty blocks when malformed
    r_fmt = format_reward(parsed)
    slide = normalize_tokenize(sample.slide_text)
    transcript = normalize_tokenize(sample.transcript_gt)
    think = tokenize_output(parsed.think)
    answer = tokenize_output(parsed.answer)

    diagnostics = []
    if not parsed.well_formed:
        diagnostics.append("malformed-format")
    if not slide:
        diagnostics.append("empty-slide-text")
    if not transcript:
        diagnostics.append("empty-transcript")

    r_ocr = _accuracy(think, slide)
    r_asr = _accuracy(answer, transcript)
    refs = [EntityRef.from_surface(e) for e in sample.entities]
    anchored = _found_keys(refs, think)
    answered = _found_keys(refs, answer) if anchored else {}
    r_va = _anchoring_f1(anchored.keys(), answered.keys())
    return RewardBreakdown(
        r_format=r_fmt,
        r_ocr=r_ocr,
        r_asr=r_asr,
        r_va=r_va,
        total=weights.weigh(r_fmt, r_ocr, r_asr, r_va),
        anchored_entities=list(anchored.values()),
        diagnostics=diagnostics,
    )
