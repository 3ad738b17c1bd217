"""Sample records, hypothesis records, and line-delimited I/O."""

from __future__ import annotations

import json
import math
import operator
import re
from collections import Counter
from functools import reduce
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ToolkitError


class Record:
    """Equality and repr over the instance attributes, in assignment order.

    The mutable records subclass it instead of being dataclasses, because
    importing ``dataclasses`` (and with it ``inspect``) and processing the
    class bodies would make up most of the CLI's import time. Each record's
    ``__init__`` assigns its fields in declaration order, so ``vars(record)``
    lists them in that order.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Sample(Record):
    """One slide-ASR instance.

    ``audio_ref`` and ``slide_image_ref`` are opaque references; nothing in
    this toolkit reads audio or raster images.
    """

    def __init__(
        self,
        id: str,
        domain: str,
        lang: str,  # "en" | "zh"
        slide_text: str,
        transcript_gt: str,
        entities: list[str] | None = None,
        audio_ref: str = "",
        slide_image_ref: str | None = None,
        duration_s: float | None = None,
    ):
        self.id = id
        self.domain = domain
        self.lang = lang
        self.slide_text = slide_text
        self.transcript_gt = transcript_gt
        self.entities = [] if entities is None else entities
        self.audio_ref = audio_ref
        self.slide_image_ref = slide_image_ref
        self.duration_s = duration_s

    def to_dict(self) -> dict:
        # A shallow copy in field order, with its own entity list.
        d = dict(vars(self))
        d["entities"] = list(self.entities)
        if d["slide_image_ref"] is None:
            d.pop("slide_image_ref")
        if d["duration_s"] is None:
            d.pop("duration_s")
        return d

    @classmethod
    def from_dict(cls, d: dict, texts: dict[str, str] | None = None) -> "Sample":
        """The sample of one record.

        ``texts`` maps each text already made to itself, and the readers pass
        one such table for every record of one read: a text field or entity
        equal to one in it takes that object, so records that repeat a slide,
        transcript, entity or audio ref hold it once. Each sample still gets an
        entity list of its own. The ``id`` and ``slide_image_ref``, which
        records do not repeat, are kept out of the table.
        """
        _record(d)
        texts = {} if texts is None else texts
        return cls(
            id=_record_id(d),
            domain=_shared_text(d, "domain", texts),
            lang=_shared_text(d, "lang", texts, "en"),
            slide_text=_shared_text(d, "slide_text", texts),
            transcript_gt=_shared_text(d, "transcript_gt", texts),
            entities=_entity_list(d, texts),
            audio_ref=_shared_text(d, "audio_ref", texts),
            slide_image_ref=(
                None if d.get("slide_image_ref") is None else _text_field(d, "slide_image_ref")
            ),
            duration_s=_duration_field(d),
        )


class Hypothesis(Record):
    """A model output paired to a sample by id."""

    def __init__(self, id: str, text: str):
        self.id = id
        self.text = text

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


def _shared_text(d: dict, key: str, texts: dict[str, str], default: str = "") -> str:
    value = _text_field(d, key, default)
    return texts.setdefault(value, value)


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


def _entity_list(d: dict, texts: dict[str, str]) -> list[str]:
    entities = d.get("entities", [])
    if not isinstance(entities, list) or not all(isinstance(e, str) for e in entities):
        raise ToolkitError(
            "bad-record", f"record {d.get('id')!r}: entities must be a list of strings, got {entities!r}"
        )
    return [texts.setdefault(e, e) for e in entities]


def fold_sum(values: Iterable[float]) -> float:
    """The sum of ``values`` added left to right, rounding after each addition.

    The built-in ``sum`` of floats compensates its rounding from Python 3.12
    on, so its last bits depend on the interpreter; this fold gives the same
    bits on every version. (``math.fsum`` is stable too, but rounds differently
    from the fold the written outputs were made with.)
    """
    return reduce(operator.add, values, 0)


# A \u escape in the surrogate range; json.loads pairs the valid ones.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


def load_json(text: str):
    r"""``json.loads`` that also rejects lone surrogates such as ``"\ud800"``.

    No UTF-8 output can hold a lone surrogate, so accepting one would only
    move the failure to the first write. Every error is a ValueError.
    """
    value = json.loads(text)
    if _SURROGATE_ESCAPE_RE.search(text):
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    return value


def read_json(path: str | Path, code: str):
    """The one JSON value in a file; a leading UTF-8 byte-order mark is skipped.

    A file that cannot be read or parsed raises ``code``.
    """
    try:
        return load_json(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, not JSON, or a bad path
        raise ToolkitError(code, f"cannot load {path}: {e}") from e


def iter_jsonl(path: str | Path) -> Iterator:
    """One JSON value per nonblank line, parsed as its line is read; a leading UTF-8 byte-order mark is skipped."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    value = load_json(line)
                except ValueError as e:
                    raise ToolkitError("manifest-parse", f"{path}:{lineno}: {e}") from e
                yield value
    except ToolkitError:
        raise
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a path holding a NUL or a surrogate
        raise ToolkitError("manifest-parse", f"cannot read {path}: {e}") from e


def read_jsonl(path: str | Path) -> list:
    """The values of ``iter_jsonl`` as one list."""
    return list(iter_jsonl(path))


def read_records(path: str | Path, make: Callable[[object], object]) -> list:
    """``make(value)`` for each value of ``iter_jsonl``, made as its line is parsed.

    The first error ``make`` raises is held until the whole file has parsed,
    so a line that is not JSON is the error reported even when a bad record
    comes before it, as if the file were parsed before any record is made.
    """
    records = []
    error = None
    for value in iter_jsonl(path):
        if error is None:
            try:
                records.append(make(value))
            except ToolkitError as e:
                error = e
    if error is not None:
        raise error
    return records


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False))
            f.write("\n")


def read_samples(path: str | Path) -> list[Sample]:
    """The samples of a dataset file; equal texts among them are one object (``Sample.from_dict``).

    The table of texts lives for this one read: it is dropped when the read
    returns, so samples of two reads share nothing, and each text is freed
    with the last sample that holds it.
    """
    texts: dict[str, str] = {}
    return read_records(path, lambda d: Sample.from_dict(d, texts))


def read_hypotheses(path: str | Path) -> list[Hypothesis]:
    return read_records(path, Hypothesis.from_dict)


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
    missing_hyp = sorted(sample_ids - by_id.keys())
    missing_sample = sorted(by_id.keys() - sample_ids)
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


def drain(items: list) -> Iterator:
    """Yield the items of ``items`` in order, taking each out of the list as it is yielded.

    When the list is the only holder of its items, each is released once the
    loop over it moves on: a loop that makes one row per pair holds the pairs
    still to do and the rows made so far, never all pairs and all rows at once.
    ``items`` ends empty.
    """
    items.reverse()
    while items:
        yield items.pop()
