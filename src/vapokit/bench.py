"""Synthetic slide-benchmark construction.

Turns seeds (Samples without a slide: domain, entity list, transcript,
opaque audio ref) into full samples: a slide-style text embedding every
entity, a deterministic vector rendering of that text, and a line-delimited
manifest with count statistics. The text generator is pluggable — a
deterministic template by default, or any chat-completion endpoint — and
generator output is always re-validated (entity coverage, word cap)
regardless of source, and drawn only when it fits the canvas.
"""

from __future__ import annotations

import json
import math
import os
import unicodedata
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .data import (Record, Sample, _as_number, _record, _record_id, iter_jsonl, read_json, read_records,
                   reject_repeated_ids, write_jsonl)
from .errors import ToolkitError
from .metrics import _find_exact_span
from .prompts import SLIDE_TEXT_PROMPT
from .textnorm import _token_re, is_cjk, normalize_tokenize

MAX_BODY_WORDS = 150
# Generator calls per record before its slide text is rejected.
GENERATION_ATTEMPTS = 3

# Pluggable generator: (domain, entities) -> (title, body)
TextGenerator = Callable[[str, Sequence[str]], tuple[str, str]]


class SlideText(NamedTuple):
    title: str
    body: str

    def full_text(self) -> str:
        # One newline also after an empty title: validate_manifest splits the
        # text at it, and a title-less body may hold newlines of its own.
        return f"{self.title}\n{self.body}"


def word_count(text: str) -> int:
    """Word-cap counting: whitespace words for latin, ceil(chars / 2) for CJK.

    The atoms are the line wrap's (``_wrap_atoms``): each CJK codepoint alone,
    every other maximal non-space run as one word.
    """
    if text.isascii():
        return len(text.split())
    words = 0
    cjk_chars = 0
    for atom, _ in _wrap_atoms(text):
        if len(atom) == 1 and is_cjk(atom):
            cjk_chars += 1
        else:
            words += 1
    return words + math.ceil(cjk_chars / 2)


# The sample invariants, as (code, detail) pairs: a seed's entities are
# spoken in its transcript, and its slide shows them within the word cap.
# ``build_dataset`` checks the seed before generation and
# ``generate_slide_text`` each generated slide; ``validate_manifest`` checks
# both on every row, with the id, layout and slide-file checks of ``build``,
# so a built manifest always validates.


def _seed_violations(sample: Sample) -> list[tuple[str, str]]:
    problems = []
    spoken = normalize_tokenize(sample.transcript_gt)
    if not spoken:
        problems.append(("empty-transcript", "no transcript tokens"))
    if not sample.entities and sample.domain != "general":
        problems.append(("no-entities", f"domain {sample.domain!r} requires entities"))
    for surface in sample.entities:
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
        if needle and _find_exact_span(needle, shown) < 0:  # an empty one is a seed violation
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

    The environment alone configures it: VAPOKIT_GENERATOR_URL (endpoint),
    VAPOKIT_GENERATOR_MODEL and VAPOKIT_GENERATOR_TIMEOUT_S (default 30 s).
    A missing endpoint, or a timeout that is not a finite number > 0, is
    "bad-config", raised once here rather than once per record.
    """

    def __init__(self):
        self.url = os.environ.get("VAPOKIT_GENERATOR_URL", "")
        if not self.url:
            raise ToolkitError("bad-config", "no generator endpoint: set VAPOKIT_GENERATOR_URL")
        self.model = os.environ.get("VAPOKIT_GENERATOR_MODEL", "")
        name = "VAPOKIT_GENERATOR_TIMEOUT_S"
        timeout = os.environ.get(name, "30")
        self.timeout_s = _as_number(timeout, float, "bad-config", name)
        if not 0 < self.timeout_s < math.inf:
            raise ToolkitError("bad-config", f"{name} must be finite and > 0, got {timeout!r:.80}")

    def __call__(self, domain: str, entities: Sequence[str]) -> tuple[str, str]:
        # Imported here: urllib.request loads http.client, ssl and email, which
        # no offline command needs.
        import urllib.request

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
_TITLE_TOP = 80
_TITLE_BODY_GAP = 24
# size class -> (cell width, line height, font size), all in px; a wide or
# fullwidth character (east Asian width W or F) takes 2 cells, any other 1
_STYLE = {"title": (24, 44, 36), "body": (12, 24, 18)}


class LayoutLine(NamedTuple):
    text: str
    size_class: str  # "title" | "body"
    y: int


def _wrap_atoms(text: str) -> list[tuple[str, str]]:
    """(atom, separator) pairs over the tokenizer's atoms of the raw text.

    CJK breaks per character and latin words are atomic. The first atom of a
    whitespace chunk joins its line with " ", any later one with "". A chunk
    without CJK, such as any ASCII chunk, is one atom.
    """
    atoms = []
    for chunk in text.split():
        if chunk.isascii():
            atoms.append((chunk, " "))
        else:
            first, *rest = _token_re().findall(chunk)
            atoms.append((first, " "))
            atoms += [(atom, "") for atom in rest]
    return atoms


def _cells(atom: str) -> int:
    return sum(2 if unicodedata.east_asian_width(ch) in ("W", "F") else 1 for ch in atom)


def _wrap(text: str, max_cells: int) -> list[str]:
    """Greedy line fill over ``_wrap_atoms``, tracking each line's width in cells."""
    lines: list[str] = []
    parts: list[str] = []
    width = 0
    for atom, sep in _wrap_atoms(text):
        cells = len(atom) if atom.isascii() else _cells(atom)
        if cells > max_cells:
            raise ToolkitError("unwrappable-token", f"token wider than canvas: {atom!r}")
        if parts and width + len(sep) + cells <= max_cells:
            parts += (sep, atom)
            width += len(sep) + cells
        else:
            if parts:
                lines.append("".join(parts))
            parts = [atom]
            width = cells
    if parts:
        lines.append("".join(parts))
    return lines


def layout_slide(slide: SlideText) -> tuple[LayoutLine, ...]:
    """Greedy monospace line-wrap: title in the large class, body in the small one.

    A slide whose last baseline lies below the canvas is "slide-overflow".
    """
    usable = CANVAS[0] - 2 * _MARGIN_X
    lines: list[LayoutLine] = []
    y = _TITLE_TOP
    for size_class, text in (("title", slide.title), ("body", slide.body)):
        cell_w, line_h, _ = _STYLE[size_class]
        for line in _wrap(text, usable // cell_w):
            lines.append(LayoutLine(line, size_class, y))
            y += line_h
        y += _TITLE_BODY_GAP
    if lines and lines[-1].y > CANVAS[1]:
        raise ToolkitError("slide-overflow", f"last line at y={lines[-1].y}, below the {CANVAS[1]} px canvas")
    return tuple(lines)


def slide_svg(layout: Sequence[LayoutLine]) -> bytes:
    """Byte-stable SVG serialization of a layout on the ``CANVAS``."""
    w, h = CANVAS
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    for line in layout:
        px = _STYLE[line.size_class][2]
        text = line.text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{_MARGIN_X}" y="{line.y}" font-family="monospace" '
            f'font-size="{px}">{text}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def render_slide(slide: SlideText, out_path: str | Path) -> tuple[LayoutLine, ...]:
    layout = layout_slide(slide)
    data = memoryview(slide_svg(layout))
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:  # os.write may write less than it was given
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)
    return layout


# ---------------------------------------------------------------------------
# dataset assembly and validation


def read_seed_records(path: str | Path) -> list[Sample]:
    """One Sample without a slide per seed record.

    A seed's ``transcript`` key is read as ``transcript_gt`` and wins when a
    record has both. Slide fields are parsed like a dataset record's, and
    ``build_dataset`` replaces them. Equal texts among the seeds are one
    object, as among the samples of ``read_samples``.
    """
    texts: dict[str, str] = {}
    return read_records(path, lambda d: _seed_from_dict(d, texts))


def _seed_from_dict(d, texts: dict[str, str]) -> Sample:
    if isinstance(d, dict) and "transcript" in d:
        d["transcript_gt"] = d["transcript"]
    return Sample.from_dict(d, texts)


def _slide_ref(record_id: str) -> str:
    """``slides/<id>.svg``; an id that cannot be one file name there is "bad-id"."""
    name = f"{record_id}.svg"
    if "/" in record_id or "\0" in record_id or len(name.encode("utf-8")) > 255:
        raise ToolkitError("bad-id", f"id cannot name a slide file: {record_id!r:.80}")
    return f"slides/{name}"


def build_dataset(
    seeds: Sequence[Sample],
    outdir: str | Path,
    generator: TextGenerator | None = None,
) -> dict:
    """Build one Sample per seed under ``outdir``; returns the stats.

    A manifest row is its seed with ``slide_text`` and ``slide_image_ref`` set.
    Writes manifest.jsonl (one sample per line), stats.json, and slides/*.svg.
    Each row is written as its slide is drawn, so one built sample is held at
    a time. A seed that breaks a sample invariant goes to errors.jsonl with its
    first violation's code before the generator is called, and so does a record
    whose generation fails or whose slide does not fit the canvas; a build
    without failures removes any errors.jsonl a previous build left, and every
    build removes the slides/*.svg files that are not its manifest's. Output is
    byte-identical across rebuilds for the same seeds and generator, and to a
    fresh build into an empty outdir. Seed ids must be unique: a repeated id
    raises "duplicate-id" before anything is written.
    """
    reject_repeated_ids(seeds, "seeds")
    outdir = Path(outdir)
    (outdir / "slides").mkdir(parents=True, exist_ok=True)
    samples = entity_count = 0
    seconds = 0  # the durations added left to right, as fold_sum adds them; None once one is unknown
    failures: list[dict] = []
    with open(outdir / "manifest.jsonl", "w", encoding="utf-8") as manifest:
        for seed in seeds:
            try:
                image_rel = _slide_ref(seed.id)
                problems = _seed_violations(seed)
                if problems:
                    raise ToolkitError(*problems[0])
                slide = generate_slide_text(seed.domain, seed.entities, generator)
                # A str path: pathlib interns each part of a path it parses, and
                # Python 3.12 and 3.13 keep those strings after the path is gone.
                render_slide(slide, os.path.join(outdir, image_rel))
            except ToolkitError as e:
                failures.append({"id": seed.id, "code": e.code, "detail": str(e)})
                continue
            # Fields named one by one: vars(seed) would give each held seed a dict of its own.
            row = Sample(id=seed.id, domain=seed.domain, lang=seed.lang, slide_text=slide.full_text(),
                         transcript_gt=seed.transcript_gt, entities=seed.entities, audio_ref=seed.audio_ref,
                         slide_image_ref=image_rel, duration_s=seed.duration_s).to_dict()
            manifest.write(json.dumps(row, ensure_ascii=False) + "\n")
            samples += 1
            entity_count += len(seed.entities)
            if seconds is not None:
                seconds = None if seed.duration_s is None else seconds + seed.duration_s
    hours = None if not samples or seconds is None else seconds / 3600.0
    stats = {"samples": samples, "entities": entity_count, "hours": hours}
    (outdir / "stats.json").write_text(
        json.dumps(stats, ensure_ascii=False, sort_keys=True) + "\n", encoding="utf-8"
    )
    if failures:
        write_jsonl(outdir / "errors.jsonl", failures)
    else:
        (outdir / "errors.jsonl").unlink(missing_ok=True)
    failed = {f["id"] for f in failures}
    built = {seed.id for seed in seeds if seed.id not in failed}
    with os.scandir(outdir / "slides") as slides:
        for entry in slides:
            if entry.name.endswith(".svg") and entry.name[:-4] not in built and entry.is_file():
                os.unlink(entry.path)
    return stats


class ValidationReport(Record):
    def __init__(self, samples: int, entities: int, violations: list[dict] | None = None):
        self.samples = samples
        self.entities = entities
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_manifest(manifest_path: str | Path) -> ValidationReport:
    """Re-check every record and manifest-level invariant of a built dataset.

    Rows are read one at a time by ``Sample.from_dict`` and checked by
    ``build``'s own rules. A row's ``slide_image_ref``, when it has one, must
    be ``slides/<id>.svg`` beside the manifest ("bad-slide-ref"), and that file
    must hold the bytes ``build`` draws from the row's slide text
    ("slide-mismatch").
    """
    manifest_path = Path(manifest_path)
    violations: list[dict] = []
    seen: set[str] = set()
    row_count = entity_count = 0
    for row in iter_jsonl(manifest_path):
        row_count += 1
        rid = None  # the id a violation names, once the reader has read one
        try:
            rid = _record_id(_record(row))
            sample = Sample.from_dict(row)
        except ToolkitError as e:
            violations.append({"id": rid, "code": e.code, "detail": str(e)})
            continue
        if sample.id in seen:
            violations.append({"id": sample.id, "code": "duplicate-id", "detail": sample.id})
        seen.add(sample.id)
        entity_count += len(sample.entities)
        title, newline, body = sample.slide_text.partition("\n")
        slide = SlideText(title, body) if newline else SlideText("", title)
        problems = _seed_violations(sample) + _slide_violations(slide, sample.entities)
        drawn = []  # build's own checks: the slide file's name, then the layout drawn in it
        for check, arg in ((_slide_ref, sample.id), (layout_slide, slide)):
            try:
                drawn.append(check(arg))
            except ToolkitError as e:
                problems.append((e.code, str(e)))
        if len(drawn) == 2 and sample.slide_image_ref is not None:
            problems += _slide_file_violations(manifest_path.parent, sample.slide_image_ref, *drawn)
        violations.extend({"id": sample.id, "code": code, "detail": detail} for code, detail in problems)
    stats_path = manifest_path.parent / "stats.json"
    if stats_path.exists():
        stats = read_json(stats_path, "manifest-parse")
        if not isinstance(stats, dict):
            raise ToolkitError("manifest-parse", f"{stats_path}: not a JSON object: {stats!r:.80}")
        for key, actual, phrase in (("samples", row_count, "has"), ("entities", entity_count, "sums to")):
            if stats.get(key) != actual:
                detail = f"stats.{key}={stats.get(key)} but manifest {phrase} {actual}"
                violations.append({"id": None, "code": "count-mismatch", "detail": detail})
    return ValidationReport(samples=row_count, entities=entity_count, violations=violations)


def _slide_file_violations(
    outdir: Path, given: str, ref: str, layout: Sequence[LayoutLine]
) -> list[tuple[str, str]]:
    """A row's ``slide_image_ref`` ``given`` against the file ``ref`` that ``build`` draws ``layout`` in."""
    if given != ref:
        return [("bad-slide-ref", f"slide_image_ref is {given!r:.80}, not {ref!r:.80}")]
    try:
        with open(os.path.join(outdir, ref), "rb") as f:  # a str path: pathlib would intern its parts
            if f.read() == slide_svg(layout):
                return []
    except OSError as e:
        return [("slide-mismatch", f"cannot read {ref}: {e.strerror}")]
    return [("slide-mismatch", f"{ref} is not the slide drawn from its slide_text")]
