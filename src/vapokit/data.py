"""Sample records, hypothesis records, and line-delimited I/O."""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ToolkitError


@dataclass
class Sample:
    """One slide-ASR instance.

    ``audio_ref`` and ``slide_image_ref`` are opaque references; nothing in
    this toolkit reads audio or raster images.
    """

    id: str
    domain: str
    lang: str  # "en" | "zh"
    slide_text: str
    transcript_gt: str
    entities: list[str] = field(default_factory=list)
    audio_ref: str = ""
    slide_image_ref: str | None = None
    duration_s: float | None = None

    def to_dict(self) -> dict:
        # A shallow copy in field order: asdict would deep-copy the entity list.
        d = dict(vars(self))
        d["entities"] = list(self.entities)
        if d["slide_image_ref"] is None:
            d.pop("slide_image_ref")
        if d["duration_s"] is None:
            d.pop("duration_s")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Sample":
        _record(d)
        return cls(
            id=_record_id(d),
            domain=_text_field(d, "domain"),
            lang=_text_field(d, "lang", "en"),
            slide_text=_text_field(d, "slide_text"),
            transcript_gt=_text_field(d, "transcript_gt"),
            entities=_entity_list(d),
            audio_ref=_text_field(d, "audio_ref"),
            slide_image_ref=(
                None if d.get("slide_image_ref") is None else _text_field(d, "slide_image_ref")
            ),
            duration_s=_duration_field(d),
        )


@dataclass
class Hypothesis:
    """A model output paired to a sample by id."""

    id: str
    text: str

    @classmethod
    def from_dict(cls, d: dict) -> "Hypothesis":
        _record(d)
        for key in ("text", "output", "hypothesis"):
            if key in d:
                return cls(id=_record_id(d), text=_text_field(d, key))
        raise ToolkitError("bad-record", f"hypothesis record without text field: {sorted(d)}")


def _record(d) -> dict:
    if not isinstance(d, dict):
        raise ToolkitError("bad-record", f"record is not a JSON object: {d!r:.80}")
    return d


def _record_id(d: dict) -> str:
    """The record's id as a nonempty string; integer ids are accepted and stringified."""
    if "id" not in d:
        raise ToolkitError("bad-record", f"record without id: {sorted(d)}")
    rid = d["id"]
    if isinstance(rid, bool) or not isinstance(rid, (str, int)):
        raise ToolkitError("bad-record", f"id must be a string, got {rid!r}")
    if rid == "":
        raise ToolkitError("bad-record", "id must not be empty")
    return str(rid)


def _text_field(d: dict, key: str, default: str = "") -> str:
    value = d.get(key, default)
    if not isinstance(value, str):
        raise ToolkitError(
            "bad-record", f"record {d.get('id')!r}: {key} must be a string, got {value!r}"
        )
    return value


def _duration_field(d: dict) -> float | None:
    """``duration_s`` as given when it is a finite number >= 0; None when absent or null."""
    value = d.get("duration_s")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < math.inf:
        raise ToolkitError(
            "bad-record", f"record {d.get('id')!r}: duration_s must be a number >= 0, got {value!r}"
        )
    return value


def _as_number(value, kind: type, code: str, name: str):
    """``kind(value)`` for a number or a numeric string; anything else raises ``code``.

    ``int`` would truncate a float, so an int field takes only a whole one.
    """
    truncated = kind is int and isinstance(value, float) and not value.is_integer()
    if not isinstance(value, bool) and not truncated:
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    what = "a whole number" if kind is int else "a number"
    raise ToolkitError(code, f"{name} must be {what}, got {value!r:.80}")


def _entity_list(d: dict) -> list[str]:
    entities = d.get("entities", [])
    if not isinstance(entities, list) or not all(isinstance(e, str) for e in entities):
        raise ToolkitError(
            "bad-record", f"record {d.get('id')!r}: entities must be a list of strings, got {entities!r}"
        )
    return list(entities)


# A \u escape in the surrogate range; json.loads pairs the valid ones.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


def load_json(text: str):
    """``json.loads`` that also rejects lone surrogates such as ``"\ud800"``.

    No UTF-8 output can hold a lone surrogate, so accepting one would only
    move the failure to the first write. Every error is a ValueError.
    """
    value = json.loads(text)
    if _SURROGATE_ESCAPE_RE.search(text):
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    return value


def read_jsonl(path: str | Path) -> list[dict]:
    """One JSON value per nonblank line; a leading UTF-8 byte-order mark is skipped."""
    rows = []
    try:
        with open(path, encoding="utf-8-sig") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append(load_json(line))
                except ValueError as e:
                    raise ToolkitError("manifest-parse", f"{path}:{lineno}: {e}") from e
    except ToolkitError:
        raise
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a path holding a NUL or a surrogate
        raise ToolkitError("manifest-parse", f"cannot read {path}: {e}") from e
    return rows


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False))
            f.write("\n")


def read_samples(path: str | Path) -> list[Sample]:
    return [Sample.from_dict(d) for d in read_jsonl(path)]


def read_hypotheses(path: str | Path) -> list[Hypothesis]:
    return [Hypothesis.from_dict(d) for d in read_jsonl(path)]


def builtin_path(name: str) -> Path:
    """Resolve a `builtin:<name>` data reference to the packaged file."""
    ref = resources.files("vapokit").joinpath("data", name)
    return Path(str(ref))


def resolve_data_path(path: str) -> Path:
    if path.startswith("builtin:"):
        return builtin_path(path.split(":", 1)[1])
    return Path(path)


def reject_repeated_ids(records: Iterable, side: str) -> None:
    """Raise "duplicate-id" naming every id that occurs more than once in ``records``."""
    counts = Counter(r.id for r in records)
    repeated = sorted(rid for rid, n in counts.items() if n > 1)
    if repeated:
        raise ToolkitError("duplicate-id", f"ids repeated in the {side}: {repeated}")


def pair_by_id(
    samples: Sequence[Sample],
    hypotheses: Sequence[Hypothesis],
    allow_partial: bool = False,
) -> list[tuple[Sample, Hypothesis]]:
    """Pair samples with hypotheses by id, sorted by id.

    An id repeated on either side raises a "duplicate-id" error naming the
    ids. Unpaired ids raise a "pairing" error (with both missing lists in the
    message) unless allow_partial, in which case the intersection is scored.
    """
    for side, records in (("dataset", samples), ("hypotheses", hypotheses)):
        reject_repeated_ids(records, side)
    by_id = {h.id: h for h in hypotheses}
    sample_ids = {s.id for s in samples}
    missing_hyp = sorted(sample_ids - set(by_id))
    missing_sample = sorted(set(by_id) - sample_ids)
    if (missing_hyp or missing_sample) and not allow_partial:
        raise ToolkitError(
            "pairing",
            json.dumps({"missing_in_hyp": missing_hyp, "missing_in_dataset": missing_sample}),
        )
    pairs = [(s, by_id[s.id]) for s in samples if s.id in by_id]
    if not pairs:
        raise ToolkitError("pairing", "no overlapping ids between dataset and hypotheses")
    pairs.sort(key=lambda p: p[0].id)
    return pairs
