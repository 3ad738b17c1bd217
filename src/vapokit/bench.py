"""Synthetic slide-benchmark construction.

Turns seed records (domain, entity list, transcript, opaque audio ref) into
full samples: a slide-style text embedding every entity, a deterministic
vector rendering of that text, and a line-delimited manifest with count
statistics. The text generator is pluggable — a deterministic template by
default, or any chat-completion endpoint — and generator output is always
re-validated (entity coverage, word cap) regardless of source.
"""

from __future__ import annotations

import html
import json
import math
from dataclasses import dataclass, field
from os import environ
from pathlib import Path
from typing import Callable, Sequence

from .data import (
    Sample,
    _duration_field,
    _entity_list,
    _record,
    _record_id,
    _text_field,
    load_json,
    read_jsonl,
    reject_repeated_ids,
    write_jsonl,
)
from .errors import ToolkitError
from .metrics import _find_exact_span
from .prompts import SLIDE_TEXT_PROMPT
from .textnorm import _TOKEN_RE, is_cjk, normalize_tokenize

MAX_BODY_WORDS = 150
# Generator calls per record before its slide text is rejected.
GENERATION_ATTEMPTS = 3

# Pluggable generator: (domain, entities) -> (title, body)
TextGenerator = Callable[[str, Sequence[str]], tuple[str, str]]


@dataclass(frozen=True)
class SlideText:
    title: str
    body: str

    def full_text(self) -> str:
        return f"{self.title}\n{self.body}" if self.title else self.body


def word_count(text: str) -> int:
    """Word-cap counting: whitespace words for latin, ceil(chars / 2) for CJK.

    The atoms are the tokenizer's, on the raw text: each CJK codepoint alone,
    every other maximal non-space run as one word.
    """
    words = 0
    cjk_chars = 0
    for atom in _TOKEN_RE.findall(text):
        if len(atom) == 1 and is_cjk(atom):
            cjk_chars += 1
        else:
            words += 1
    return words + math.ceil(cjk_chars / 2)


# The sample invariants, as (code, detail) pairs: a seed's entities are
# spoken in its transcript, and its slide shows them within the word cap.
# ``build_dataset`` checks the seed before generation and
# ``generate_slide_text`` each generated slide; ``validate_manifest`` checks
# both on every row, so a built manifest always validates.


def _seed_violations(transcript: str, entities: Sequence[str], domain: str) -> list[tuple[str, str]]:
    problems = []
    spoken = normalize_tokenize(transcript)
    if not spoken:
        problems.append(("empty-transcript", "no transcript tokens"))
    if not entities and domain != "general":
        problems.append(("no-entities", f"domain {domain!r} requires entities"))
    for surface in entities:
        needle = normalize_tokenize(surface)
        if not needle:
            problems.append(("empty-entity", repr(surface)))
        elif _find_exact_span(needle, spoken) < 0:
            problems.append(("entity-not-in-transcript", surface))
    return problems


def _slide_violations(slide: SlideText, entities: Sequence[str]) -> list[tuple[str, str]]:
    problems = []
    body_words = word_count(slide.body)
    if body_words > MAX_BODY_WORDS:
        problems.append(("body-too-long", f"{body_words} words (cap {MAX_BODY_WORDS})"))
    shown = normalize_tokenize(slide.full_text())
    for surface in entities:
        needle = normalize_tokenize(surface)
        if not needle or _find_exact_span(needle, shown) < 0:
            problems.append(("entity-not-in-slide", surface))
    return problems


_OPENERS = (
    "Key topics include",
    "The discussion highlights",
    "Recent results cover",
    "Core methods involve",
    "Practical examples feature",
)


class TemplateGenerator:
    """Deterministic slide-text generator; satisfies the invariants by construction."""

    def __call__(self, domain: str, entities: Sequence[str]) -> tuple[str, str]:
        heading = domain.replace("-", " ").replace("_", " ").strip() or "general"
        title = f"{heading.title()} Overview"
        sentences = [f"A short review of current {heading} practice and terminology."]
        items = list(entities)
        for i in range(0, len(items), 3):
            chunk = items[i : i + 3]
            if len(chunk) == 1:
                joined = chunk[0]
            else:
                joined = ", ".join(chunk[:-1]) + " and " + chunk[-1]
            sentences.append(f"{_OPENERS[(i // 3) % len(_OPENERS)]} {joined}.")
        return title, " ".join(sentences)


class RemoteGenerator:
    """Slide-text generation over a minimal chat-completion wire contract.

    Endpoint, model name, and timeout come from the constructor or from
    VAPOKIT_GENERATOR_URL / VAPOKIT_GENERATOR_MODEL / VAPOKIT_GENERATOR_TIMEOUT_S.
    """

    def __init__(self, url: str | None = None, model: str | None = None, timeout_s: float | None = None):
        self.url = url or environ.get("VAPOKIT_GENERATOR_URL", "")
        self.model = model or environ.get("VAPOKIT_GENERATOR_MODEL", "")
        if timeout_s is None:
            timeout_s = float(environ.get("VAPOKIT_GENERATOR_TIMEOUT_S", "30"))
        self.timeout_s = timeout_s

    def __call__(self, domain: str, entities: Sequence[str]) -> tuple[str, str]:
        # Imported here: urllib.request loads http.client, ssl and email, which
        # no offline command needs.
        import urllib.request

        if not self.url:
            raise ToolkitError("generator-unreachable", "no generator URL configured")
        prompt = SLIDE_TEXT_PROMPT.format(domain, ", ".join(entities))
        payload = json.dumps(
            {"model": self.model, "messages": [{"role": "user", "content": prompt}]}
        ).encode("utf-8")
        request = urllib.request.Request(
            self.url, data=payload, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as resp:
                body = json.loads(resp.read().decode("utf-8"))
        except (OSError, ValueError) as e:  # urllib.error.URLError is an OSError
            raise ToolkitError("generator-unreachable", f"{self.url}: {e}") from e
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as e:
            raise ToolkitError("generator-unreachable", f"malformed response: {e}") from e
        sections = [s.strip() for s in str(content).split("###") if s.strip()]
        if len(sections) < 2:
            return "", str(content).strip()
        return sections[0], sections[1]


def generate_slide_text(
    domain: str,
    entities: Sequence[str],
    generator: TextGenerator | None = None,
) -> SlideText:
    """Generate and validate slide text, retrying a misbehaving generator.

    Output is re-validated regardless of generator (entity coverage and the
    word cap); after ``GENERATION_ATTEMPTS`` failures the record is rejected.
    The title's whitespace runs become single spaces, so the title is one
    line of the manifest's ``slide_text``.
    """
    if not entities:
        raise ToolkitError("no-entities", "slide generation needs at least one entity")
    if generator is None:
        generator = TemplateGenerator()
    problems: list[tuple[str, str]] = []
    for _ in range(GENERATION_ATTEMPTS):
        title, body = generator(domain, entities)
        slide = SlideText(title=" ".join(title.split()), body=body)
        problems = _slide_violations(slide, entities)
        if not problems:
            return slide
    raise ToolkitError("generation-invalid", "; ".join(f"{code}: {detail}" for code, detail in problems))


# ---------------------------------------------------------------------------
# deterministic vector rendering

CANVAS = (960, 720)
_MARGIN_X = 60
_TITLE_CHAR_W = 24
_BODY_CHAR_W = 12
_TITLE_LINE_H = 44
_BODY_LINE_H = 24
_TITLE_TOP = 80
_TITLE_BODY_GAP = 24
_FONT_PX = {"title": 36, "body": 18}


@dataclass(frozen=True)
class LayoutLine:
    text: str
    size_class: str  # "title" | "body"
    y: int


def _wrap_atoms(text: str) -> list[tuple[str, str]]:
    """(atom, separator) pairs over the tokenizer's atoms of the raw text.

    CJK breaks per character and latin words are atomic. An atom that starts
    the text or follows whitespace joins its line with " ", any other with "".
    """
    return [
        (m.group(), " " if m.start() == 0 or text[m.start() - 1].isspace() else "")
        for m in _TOKEN_RE.finditer(text)
    ]


def _wrap(text: str, max_chars: int) -> list[str]:
    lines: list[str] = []
    line = ""
    for atom, sep in _wrap_atoms(text):
        if len(atom) > max_chars:
            raise ToolkitError("unwrappable-token", f"token wider than canvas: {atom!r}")
        candidate = atom if not line else line + sep + atom
        if len(candidate) <= max_chars:
            line = candidate
        else:
            lines.append(line)
            line = atom
    if line:
        lines.append(line)
    return lines


def layout_slide(slide: SlideText) -> tuple[LayoutLine, ...]:
    """Greedy monospace line-wrap: title in the large class, body in the small one."""
    usable = CANVAS[0] - 2 * _MARGIN_X
    lines: list[LayoutLine] = []
    y = _TITLE_TOP
    for text in _wrap(slide.title, usable // _TITLE_CHAR_W):
        lines.append(LayoutLine(text, "title", y))
        y += _TITLE_LINE_H
    y += _TITLE_BODY_GAP
    for text in _wrap(slide.body, usable // _BODY_CHAR_W):
        lines.append(LayoutLine(text, "body", y))
        y += _BODY_LINE_H
    return tuple(lines)


def slide_svg(layout: Sequence[LayoutLine]) -> bytes:
    """Byte-stable SVG serialization of a layout on the ``CANVAS``."""
    w, h = CANVAS
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    for line in layout:
        px = _FONT_PX[line.size_class]
        parts.append(
            f'<text x="{_MARGIN_X}" y="{line.y}" font-family="monospace" '
            f'font-size="{px}">{html.escape(line.text, quote=False)}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def render_slide(slide: SlideText, out_path: str | Path) -> tuple[LayoutLine, ...]:
    layout = layout_slide(slide)
    Path(out_path).write_bytes(slide_svg(layout))
    return layout


# ---------------------------------------------------------------------------
# dataset assembly and validation


@dataclass
class SeedRecord:
    id: str
    domain: str
    transcript: str
    entities: list[str]
    lang: str = "en"
    audio_ref: str = ""
    duration_s: float | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "SeedRecord":
        _record(d)
        return cls(
            id=_record_id(d),
            domain=_text_field(d, "domain"),
            transcript=_text_field(d, "transcript" if "transcript" in d else "transcript_gt"),
            entities=_entity_list(d),
            lang=_text_field(d, "lang", "en"),
            audio_ref=_text_field(d, "audio_ref"),
            duration_s=_duration_field(d),
        )


def read_seed_records(path: str | Path) -> list[SeedRecord]:
    return [SeedRecord.from_dict(d) for d in read_jsonl(path)]


def _slide_ref(record_id: str) -> str:
    """``slides/<id>.svg``; an id that cannot be one file name there is "bad-id"."""
    name = f"{record_id}.svg"
    if "/" in record_id or "\0" in record_id or len(name.encode("utf-8")) > 255:
        raise ToolkitError("bad-id", f"id cannot name a slide file: {record_id!r:.80}")
    return f"slides/{name}"


def build_dataset(
    seed_records: Sequence[SeedRecord],
    outdir: str | Path,
    generator: TextGenerator | None = None,
) -> dict:
    """Build one Sample per seed record under ``outdir``; returns the stats.

    Writes manifest.jsonl (one sample per line), stats.json, and slides/*.svg.
    A seed that breaks a sample invariant goes to errors.jsonl with its first
    violation's code before the generator is called, and so does a record
    whose generation fails; a build without failures removes any errors.jsonl
    a previous build left. Output is byte-identical across rebuilds for the
    same seeds and generator. Seed ids must be unique: a repeated id raises
    "duplicate-id" before anything is written.
    """
    reject_repeated_ids(seed_records, "seeds")
    outdir = Path(outdir)
    (outdir / "slides").mkdir(parents=True, exist_ok=True)
    entries: list[Sample] = []
    failures: list[dict] = []
    for rec in seed_records:
        try:
            image_rel = _slide_ref(rec.id)
            problems = _seed_violations(rec.transcript, rec.entities, rec.domain)
            if problems:
                raise ToolkitError(*problems[0])
            slide = generate_slide_text(rec.domain, rec.entities, generator)
            render_slide(slide, outdir / image_rel)
            entries.append(
                Sample(
                    id=rec.id,
                    domain=rec.domain,
                    lang=rec.lang,
                    slide_text=slide.full_text(),
                    transcript_gt=rec.transcript,
                    entities=list(rec.entities),
                    audio_ref=rec.audio_ref,
                    slide_image_ref=image_rel,
                    duration_s=rec.duration_s,
                )
            )
        except ToolkitError as e:
            failures.append({"id": rec.id, "code": e.code, "detail": str(e)})
    entity_count = sum(len(s.entities) for s in entries)
    hours = None
    if entries and all(s.duration_s is not None for s in entries):
        hours = sum(s.duration_s for s in entries) / 3600.0
    write_jsonl(outdir / "manifest.jsonl", (s.to_dict() for s in entries))
    stats = {"samples": len(entries), "entities": entity_count, "hours": hours}
    (outdir / "stats.json").write_text(
        json.dumps(stats, ensure_ascii=False, sort_keys=True) + "\n", encoding="utf-8"
    )
    if failures:
        write_jsonl(outdir / "errors.jsonl", failures)
    else:
        (outdir / "errors.jsonl").unlink(missing_ok=True)
    return stats


@dataclass
class ValidationReport:
    samples: int
    entities: int
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_manifest(manifest_path: str | Path) -> ValidationReport:
    """Re-check every record and manifest-level invariant of a built dataset."""
    manifest_path = Path(manifest_path)
    rows = read_jsonl(manifest_path)
    violations: list[dict] = []
    seen: set[str] = set()
    entity_count = 0
    for row in rows:
        if not isinstance(row, dict):
            violations.append({"id": None, "code": "bad-record", "detail": f"not a JSON object: {row!r:.80}"})
            continue
        if row.get("id", "") == "":
            violations.append({"id": None, "code": "missing-id", "detail": "record without id"})
            continue
        try:
            sample = Sample.from_dict(row)
        except ToolkitError as e:
            violations.append({"id": row["id"], "code": e.code, "detail": str(e)})
            continue
        if sample.id in seen:
            violations.append({"id": sample.id, "code": "duplicate-id", "detail": sample.id})
        seen.add(sample.id)
        entity_count += len(sample.entities)
        title, newline, body = sample.slide_text.partition("\n")
        slide = SlideText(title, body) if newline else SlideText("", title)
        problems = _seed_violations(sample.transcript_gt, sample.entities, sample.domain)
        problems += _slide_violations(slide, sample.entities)
        violations.extend({"id": sample.id, "code": code, "detail": detail} for code, detail in problems)
    stats_path = manifest_path.parent / "stats.json"
    if stats_path.exists():
        try:
            stats = load_json(stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise ToolkitError("manifest-parse", f"{stats_path}: {e}") from e
        if not isinstance(stats, dict):
            raise ToolkitError("manifest-parse", f"{stats_path}: not a JSON object: {stats!r:.80}")
        if stats.get("samples") != len(rows):
            violations.append(
                {
                    "id": None,
                    "code": "count-mismatch",
                    "detail": f"stats.samples={stats.get('samples')} but manifest has {len(rows)}",
                }
            )
        if stats.get("entities") != entity_count:
            violations.append(
                {
                    "id": None,
                    "code": "count-mismatch",
                    "detail": f"stats.entities={stats.get('entities')} but manifest sums to {entity_count}",
                }
            )
    return ValidationReport(samples=len(rows), entities=entity_count, violations=violations)
