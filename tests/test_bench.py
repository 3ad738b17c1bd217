from __future__ import annotations

import hashlib
import http.server
import inspect
import json
import math
import os
import random
import shutil
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    _REFERENCE_CJK,
    ascii_text,
    reference_cells,
    reference_word_count,
    reference_wrap,
    reference_wrap_atoms,
)
from vapokit.bench import (
    _MARGIN_X,
    _STYLE,
    _TITLE_BODY_GAP,
    _TITLE_TOP,
    CANVAS,
    MAX_BODY_WORDS,
    RemoteGenerator,
    SlideText,
    TemplateGenerator,
    _wrap,
    _wrap_atoms,
    build_dataset,
    generate_slide_text,
    layout_slide,
    read_seed_records,
    render_slide,
    slide_svg,
    validate_manifest,
    word_count,
)
from vapokit.data import Sample, builtin_path, read_jsonl
from vapokit.errors import ToolkitError


def test_word_count_latin():
    assert word_count("one two three") == 3
    assert word_count("") == 0


def test_word_count_cjk_half_chars():
    assert word_count("你好世界") == 2  # 4 chars / 2
    assert word_count("你好世") == 2  # ceil(3 / 2)
    assert word_count("hello 你好") == 2  # 1 word + ceil(2/2)


# Edges of every CJK range and their outside neighbours, whitespace that is
# not ASCII (ideographic space, NEL, the U+001C separator, NBSP), characters
# that look like separators but are not whitespace (zero-width space), a
# combining mark, a fullwidth latin letter (2 cells, not CJK), and plain latin.
_ATOM_ALPHABET = (
    [chr(cp) for lo, hi in _REFERENCE_CJK for cp in (lo - 1, lo, hi, hi + 1)]
    + ["\u3000", "\u0085", "\u001c", "\u00a0", "\u200b", "\u0301", "字", "한", "Ａ"]
    + [" ", "\t", "\n", "a", "b", "xyz", "-", "."]
)


def _assert_word_count_and_wrap_equal_references(text: str) -> None:
    atoms = reference_wrap_atoms(text)
    assert word_count(text) == reference_word_count(text), repr(text)
    assert _wrap_atoms(text) == atoms, repr(text)
    for width in (20, 4):  # 4 also makes lines break and atoms overflow
        lines = reference_wrap(atoms, width)
        if lines is None:
            with pytest.raises(ToolkitError):
                _wrap(text, width)
        else:
            assert _wrap(text, width) == lines, repr(text)


def test_word_count_and_wrap_equal_per_character_references_random():
    rng = random.Random(23)
    for _ in range(20000):
        _assert_word_count_and_wrap_equal_references("".join(rng.choices(_ATOM_ALPHABET, k=rng.randint(0, 8))))


def test_word_count_and_wrap_equal_per_character_references_ascii():
    """All-ASCII text takes the ASCII paths: one atom per whitespace chunk."""
    rng = random.Random(24)
    for _ in range(20000):
        _assert_word_count_and_wrap_equal_references(ascii_text(rng, 16))


def test_template_generator_embeds_entities():
    slide = generate_slide_text("medicine", ["aspirin", "warfarin", "metformin", "ibuprofen"])
    text = slide.full_text().lower()
    for e in ("aspirin", "warfarin", "metformin", "ibuprofen"):
        assert e in text
    assert word_count(slide.body) <= MAX_BODY_WORDS


def test_template_generator_closed_loop_random():
    rng = random.Random(17)
    syllables = ["tor", "min", "zal", "pra", "keth", "ova", "lin", "dor"]
    for _ in range(1000):
        entities = []
        for _ in range(rng.randint(1, 12)):
            words = [
                "".join(rng.choices(syllables, k=rng.randint(2, 4)))
                for _ in range(rng.randint(1, 3))
            ]
            entities.append(" ".join(words))
        slide = generate_slide_text("field-" + rng.choice(syllables), entities)
        assert isinstance(slide, SlideText)  # validation passed inside


class FlakyGenerator:
    """Fails validation (drops an entity) for the first ``bad`` calls."""

    def __init__(self, bad: int):
        self.bad = bad
        self.calls = 0

    def __call__(self, domain, entities):
        self.calls += 1
        if self.calls <= self.bad:
            return "Title", "a body without the required words"
        return "Title", "body mentioning " + ", ".join(entities)


def test_generation_retries_then_succeeds():
    gen = FlakyGenerator(bad=2)
    slide = generate_slide_text("medicine", ["aspirin"], gen)
    assert gen.calls == 3
    assert "aspirin" in slide.body


def test_generation_fails_after_three_attempts():
    gen = FlakyGenerator(bad=99)
    with pytest.raises(ToolkitError) as exc:
        generate_slide_text("medicine", ["aspirin"], gen)
    assert exc.value.code == "generation-invalid"
    assert gen.calls == 3
    assert str(exc.value) == "entity-not-in-slide: aspirin"


def test_title_whitespace_runs_become_one_line():
    slide = generate_slide_text("x\ny", ["aspirin"], lambda domain, entities: (" A\n\tB  C ", "aspirin"))
    assert slide.title == "A B C"
    assert TemplateGenerator()("x\ny", ["aspirin"])[0] == "X\nY Overview"
    assert generate_slide_text("x\ny", ["aspirin"]).title == "X Y Overview"


# ---------------------------------------------------------------------------
# remote generator wire contract


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    seen: list[dict] = []
    reply = "###\nGenerated Title\n###\nBody mentioning aspirin.\n"
    body: dict | None = None  # sent instead of a chat completion holding ``reply``

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _ChatHandler.seen.append(json.loads(self.rfile.read(length)))
        body = _ChatHandler.body
        if body is None:
            body = {"choices": [{"message": {"content": _ChatHandler.reply}}]}
        payload = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server(monkeypatch):
    monkeypatch.setattr(_ChatHandler, "seen", [])
    server = http.server.HTTPServer(("127.0.0.1", 0), _ChatHandler)
    # shutdown() waits for the serving loop's next poll: keep it short
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def _remote(monkeypatch, url: str, model: str = "m", timeout: str = "5") -> RemoteGenerator:
    """A RemoteGenerator, configured as always by the environment."""
    monkeypatch.setenv("VAPOKIT_GENERATOR_URL", url)
    monkeypatch.setenv("VAPOKIT_GENERATOR_MODEL", model)
    monkeypatch.setenv("VAPOKIT_GENERATOR_TIMEOUT_S", timeout)
    return RemoteGenerator()


def test_remote_generator_round_trip(chat_server, monkeypatch):
    gen = _remote(monkeypatch, chat_server, model="test-model")
    slide = generate_slide_text("medicine", ["aspirin"], gen)
    assert slide.title == "Generated Title"
    assert "aspirin" in slide.body
    request = _ChatHandler.seen[0]
    assert request["model"] == "test-model"
    prompt = request["messages"][0]["content"]
    assert request["messages"][0]["role"] == "user"
    assert "Domain label:\nmedicine" in prompt
    assert "List of entities:\naspirin" in prompt
    assert "Keep paragraphs within 150 words" in prompt


def test_remote_generator_env_config(chat_server, monkeypatch):
    monkeypatch.setenv("VAPOKIT_GENERATOR_URL", chat_server)
    monkeypatch.setenv("VAPOKIT_GENERATOR_MODEL", "env-model")
    monkeypatch.setenv("VAPOKIT_GENERATOR_TIMEOUT_S", "4")
    gen = RemoteGenerator()
    gen("medicine", ["aspirin"])
    assert _ChatHandler.seen[-1]["model"] == "env-model"


def test_remote_generator_unreachable(monkeypatch):
    gen = _remote(monkeypatch, "http://127.0.0.1:9/nothing", timeout="0.3")
    with pytest.raises(ToolkitError) as exc:
        gen("medicine", ["aspirin"])
    assert exc.value.code == "generator-unreachable"
    with pytest.raises(ToolkitError) as exc:
        _remote(monkeypatch, "")
    assert exc.value.code == "bad-config" and "VAPOKIT_GENERATOR_URL" in str(exc.value)


def test_remote_generator_invalid_reply_retries_to_failure(chat_server, monkeypatch):
    monkeypatch.setattr(_ChatHandler, "reply", "###\nTitle\n###\nbody missing the entity")
    gen = _remote(monkeypatch, chat_server)
    with pytest.raises(ToolkitError) as exc:
        generate_slide_text("medicine", ["aspirin"], gen)
    assert exc.value.code == "generation-invalid"
    assert len(_ChatHandler.seen) == 3


def test_remote_generator_reply_without_choices_is_unreachable(chat_server, monkeypatch):
    monkeypatch.setattr(_ChatHandler, "body", {"error": {"message": "overloaded"}})
    gen = _remote(monkeypatch, chat_server)
    with pytest.raises(ToolkitError) as exc:
        gen("medicine", ["aspirin"])
    assert exc.value.code == "generator-unreachable" and "malformed response" in str(exc.value)


def test_remote_generator_content_without_sections_is_a_title_less_slide(chat_server, monkeypatch):
    monkeypatch.setattr(_ChatHandler, "reply", "  A body mentioning aspirin, no sections.\n")
    gen = _remote(monkeypatch, chat_server)
    assert gen("medicine", ["aspirin"]) == ("", "A body mentioning aspirin, no sections.")


def test_remote_generator_takes_no_arguments():
    assert not inspect.signature(RemoteGenerator).parameters


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf", "abc", "true"])
def test_remote_generator_rejects_a_timeout_that_is_not_finite_and_positive(monkeypatch, timeout):
    with pytest.raises(ToolkitError) as exc:
        _remote(monkeypatch, "http://127.0.0.1:9/nothing", timeout=timeout)
    assert exc.value.code == "bad-config" and "VAPOKIT_GENERATOR_TIMEOUT_S" in str(exc.value)
    assert _remote(monkeypatch, "http://127.0.0.1:9/nothing", timeout="2.5").timeout_s == 2.5


# ---------------------------------------------------------------------------
# layout and svg


def test_layout_single_title_line():
    layout = layout_slide(SlideText(title="hello", body=""))
    assert len(layout) == 1
    assert layout[0].size_class == "title"


def test_layout_greedy_wrap_counts():
    # body words sized so exactly 8 fit in the 70-char line: 20 words -> 3 lines
    body = " ".join(["abcdefg"] * 20)
    layout = layout_slide(SlideText(title="t", body=body))
    body_lines = [l for l in layout if l.size_class == "body"]
    assert len(body_lines) == 3
    assert [len(l.text.split()) for l in body_lines] == [8, 8, 4]


def test_layout_cjk_breaks_per_character():
    body = "字" * 100
    layout = layout_slide(SlideText(title="t", body=body))
    assert all(len(l.text) <= 70 for l in layout)


def test_layout_unwrappable_token():
    with pytest.raises(ToolkitError) as exc:
        layout_slide(SlideText(title="x" * 200, body=""))
    assert exc.value.code == "unwrappable-token"


def test_layout_counts_a_wide_character_as_two_cells():
    # 300 Han characters make the 150-word cap: 35 of them (70 cells) fill a body line
    layout = layout_slide(SlideText(title="t", body="字" * 300))
    assert [len(line.text) for line in layout[1:]] == [35] * 8 + [20]
    assert layout[-1].y == 340
    # 18 fullwidth letters are 36 cells, one more than a title line holds
    with pytest.raises(ToolkitError) as exc:
        layout_slide(SlideText(title="Ａ" * 18, body=""))
    assert exc.value.code == "unwrappable-token"


def test_layout_below_the_canvas_is_slide_overflow():
    # 120 short title words take 18 title lines, and the body's baseline is y = 896
    with pytest.raises(ToolkitError) as exc:
        layout_slide(SlideText(title=" ".join(["word"] * 120), body="body"))
    assert exc.value.code == "slide-overflow" and "y=896" in str(exc.value)
    # a last baseline on the canvas's bottom edge fits: title lines at 80 and
    # 124, body lines at 192 + 24 k, so the 23rd body line is at y = 720
    title = "x" * 35 + " x"
    assert layout_slide(SlideText(title, " ".join(["x" * 70] * 23)))[-1].y == 720
    with pytest.raises(ToolkitError) as exc:
        layout_slide(SlideText(title, " ".join(["x" * 70] * 24)))
    assert exc.value.code == "slide-overflow" and "y=744" in str(exc.value)


# Latin and CJK words of 1 to 70 cells. "x" * 70 fills a body line and, like
# "Ａ" * 18 (36 cells), is wider than a title line's 35 cells.
_LAYOUT_WORDS = ["a", "word", "naïve", "x" * 30, "x" * 70, "字", "字字字", "한국어", "Ａ" * 18]


@st.composite
def _layout_texts(draw, most_words):
    n = draw(st.integers(0, most_words))
    return " ".join(draw(st.lists(st.sampled_from(_LAYOUT_WORDS), min_size=n, max_size=n)))


@given(title=_layout_texts(8), body=_layout_texts(150))
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_every_accepted_layout_fits_the_canvas(title, body):
    """A slide is laid out exactly when the reference wrap of its title and
    body fits the usable width in cells and ends at or above the canvas's
    bottom; otherwise it is rejected with the code that says why."""
    usable = CANVAS[0] - 2 * _MARGIN_X
    expected: list[tuple[str, str, int]] = []
    y = _TITLE_TOP
    code = None
    for size_class, text in (("title", title), ("body", body)):
        cell_w, line_h, _ = _STYLE[size_class]
        lines = reference_wrap(reference_wrap_atoms(text), usable // cell_w)
        if lines is None:
            code = code or "unwrappable-token"
            continue
        for line in lines:
            assert reference_cells(line) * cell_w <= usable
            expected.append((line, size_class, y))
            y += line_h
        y += _TITLE_BODY_GAP
    if code is None and expected and expected[-1][2] > CANVAS[1]:
        code = "slide-overflow"
    if code is None:
        assert [tuple(line) for line in layout_slide(SlideText(title, body))] == expected
    else:
        with pytest.raises(ToolkitError) as exc:
            layout_slide(SlideText(title, body))
        assert exc.value.code == code


def test_svg_deterministic():
    slide = SlideText(title="Hello <World>", body="a & b")
    one = slide_svg(layout_slide(slide))
    two = slide_svg(layout_slide(slide))
    assert one == two
    assert b"&lt;World&gt;" in one and b"a &amp; b" in one


def test_svg_escapes_markup_characters(tmp_path):
    # Expected bytes written by xml.sax.saxutils.escape: & < > are escaped,
    # quotes stay literal, and an existing entity is escaped again.
    slide = SlideText(
        title="R&D <Q&A> \"x\" it's",
        body="a & b < c > d \"quoted\" 'single' &amp; <tag/> >>= &&",
    )
    expected = (
        b'<svg xmlns="http://www.w3.org/2000/svg" width="960" height="720" viewBox="0 0 960 720">\n'
        b'<rect width="960" height="720" fill="#ffffff"/>\n'
        b'<text x="60" y="80" font-family="monospace" font-size="36">'
        b"R&amp;D &lt;Q&amp;A&gt; \"x\" it's</text>\n"
        b'<text x="60" y="148" font-family="monospace" font-size="18">'
        b"a &amp; b &lt; c &gt; d \"quoted\" 'single' &amp;amp; &lt;tag/&gt; &gt;&gt;= &amp;&amp;</text>\n"
        b"</svg>\n"
    )
    layout = render_slide(slide, tmp_path / "s.svg")
    assert slide_svg(layout) == expected
    assert (tmp_path / "s.svg").read_bytes() == expected


def test_render_slide_writes_file(tmp_path, monkeypatch):
    """Also when os.write takes fewer bytes than it was given, and over a
    longer old slide."""
    (tmp_path / "s.svg").write_bytes(b"x" * 10_000)
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
    layout = render_slide(SlideText(title="T", body="body words"), tmp_path / "s.svg")
    monkeypatch.undo()
    assert (tmp_path / "s.svg").read_bytes() == slide_svg(layout)


# ---------------------------------------------------------------------------
# dataset build and validation


def _seed_sample(rid: str, domain: str, transcript: str, entities: list[str], audio_ref: str = "") -> Sample:
    """A seed: a Sample without a slide."""
    return Sample(id=rid, domain=domain, lang="en", slide_text="", transcript_gt=transcript,
                  entities=entities, audio_ref=audio_ref)


def _seed(idx: int, entities: list[str], transcript: str | None = None) -> Sample:
    return _seed_sample(
        f"b{idx}",
        "medicine",
        transcript or ("talk about " + " and ".join(entities) + " in clinics today"),
        entities,
        audio_ref=f"audio/b{idx}.wav",
    )


def test_build_dataset_counts_and_files(tmp_path):
    seeds = [_seed(0, ["aspirin", "warfarin"]), _seed(1, ["metformin"])]
    stats = build_dataset(seeds, tmp_path)
    assert stats["samples"] == 2 and stats["entities"] == 3
    assert stats["hours"] is None
    assert (tmp_path / "manifest.jsonl").exists()
    assert (tmp_path / "stats.json").exists()
    assert (tmp_path / "slides" / "b0.svg").exists()
    report = validate_manifest(tmp_path / "manifest.jsonl")
    assert report.ok and report.samples == 2


def test_build_dataset_empty(tmp_path):
    stats = build_dataset([], tmp_path)
    assert stats["samples"] == 0 and stats["entities"] == 0
    assert json.loads((tmp_path / "stats.json").read_text()) == {
        "entities": 0,
        "hours": None,
        "samples": 0,
    }


def test_build_dataset_error_sidecar(tmp_path):
    seeds = [_seed(0, ["aspirin"]), _seed_sample("bad", "medicine", "x", []), _seed(2, ["warfarin"])]
    stats = build_dataset(seeds, tmp_path)
    assert stats["samples"] == 2
    errors = read_jsonl(tmp_path / "errors.jsonl")
    assert len(errors) == 1 and errors[0]["id"] == "bad" and errors[0]["code"] == "no-entities"


def test_general_seed_without_entities_builds_and_validates(tmp_path):
    seed = _seed_sample("g", "general", "hello world today", [])
    assert build_dataset([seed], tmp_path)["samples"] == 1
    (row,) = read_jsonl(tmp_path / "manifest.jsonl")
    assert row["slide_text"] == "General Overview\nA short review of current general practice and terminology."
    assert validate_manifest(tmp_path / "manifest.jsonl").violations == []


def test_seed_records_read_transcript_as_transcript_gt(tmp_path):
    path = tmp_path / "seeds.jsonl"
    rows = [
        {"id": "a", "domain": "medicine", "transcript": "spoken", "entities": []},
        {"id": "b", "domain": "medicine", "transcript": "spoken", "transcript_gt": "ignored"},
        {"id": "c", "domain": "medicine", "transcript_gt": "kept", "slide_text": "", "slide_image_ref": None},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    seeds = read_seed_records(path)
    assert all(isinstance(s, Sample) for s in seeds)
    assert [s.transcript_gt for s in seeds] == ["spoken", "spoken", "kept"]
    assert [(s.slide_text, s.slide_image_ref) for s in seeds] == [("", None)] * 3


@pytest.mark.parametrize(
    "line",
    [
        '{"id": "a", "transcript": "talk", "slide_text": 5}',
        '{"id": "a", "transcript": "talk", "slide_image_ref": ["x.svg"]}',
        '{"id": "a", "transcript": 5}',
        '["transcript"]',
        '"transcript"',
    ],
)
def test_seed_with_a_mistyped_field_is_bad_record(tmp_path, line):
    path = tmp_path / "seeds.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ToolkitError) as exc:
        read_seed_records(path)
    assert exc.value.code == "bad-record"


def test_build_dataset_hours_when_durations_known(tmp_path):
    seeds = read_seed_records(builtin_path("seeds_5.jsonl"))
    stats = build_dataset(seeds, tmp_path)
    assert stats["samples"] == 5
    expected_hours = sum(s.duration_s for s in seeds) / 3600.0
    assert stats["hours"] == pytest.approx(expected_hours)


def test_build_dataset_hours_add_left_to_right_on_every_python(tmp_path):
    """Ten durations of 0.1 s add to 0.9999999999999999 s left to right; the
    compensated sums (the built-in ``sum`` from Python 3.12 on, and
    ``math.fsum``) give 1.0, which would move the stats bytes."""
    seeds = read_seed_records(builtin_path("seeds_5.jsonl"))
    seeds = [Sample(**{**vars(seed), "id": f"{seed.id}-{i}", "duration_s": 0.1})
             for seed in seeds for i in range(2)]
    assert len(seeds) == 10
    hours = build_dataset(seeds, tmp_path)["hours"]
    assert hours == 0.9999999999999999 / 3600.0
    assert hours != math.fsum([0.1] * 10) / 3600.0


def _tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_build_dataset_idempotent(tmp_path):
    seeds = [_seed(i, ["aspirin", "warfarin"]) for i in range(4)]
    build_dataset(seeds, tmp_path / "one")
    build_dataset(seeds, tmp_path / "two")
    assert _tree_digest(tmp_path / "one") == _tree_digest(tmp_path / "two")


@pytest.mark.parametrize("change", ["dropped", "rejected"])
def test_rebuild_removes_slides_not_in_its_manifest(tmp_path, change):
    # a rebuild into a used outdir leaves the same tree as a fresh build, also
    # when a record of the first build is left out or rejected this time
    first = [_seed(0, ["aspirin"]), _seed(1, ["warfarin"])]
    broken = _seed(1, ["warfarin"], transcript="a talk that never names the drug")
    second = [first[0]] if change == "dropped" else [first[0], broken]
    build_dataset(first, tmp_path / "out")
    assert (tmp_path / "out" / "slides" / "b1.svg").exists()
    build_dataset(second, tmp_path / "out")
    build_dataset(second, tmp_path / "fresh")
    assert not (tmp_path / "out" / "slides" / "b1.svg").exists()
    assert _tree_digest(tmp_path / "out") == _tree_digest(tmp_path / "fresh")


def test_interleaved_failures_keep_the_manifest_and_errors_in_seed_order(tmp_path):
    """Rows are written as their slides are drawn: seeds rejected between
    them leave the manifest, stats and slides of a build of the good seeds
    alone, and errors.jsonl lists the rejected seeds in seed order."""

    def generator(domain, entities):
        if domain == "tall":
            return " ".join(["word"] * 120), "body about " + ", ".join(entities)
        return TemplateGenerator()(domain, entities)

    good = [_seed(i, ["aspirin", "warfarin"][: 1 + i % 2]) for i in range(4)]
    for seed in good:
        seed.duration_s = 0.1  # left to right: 0.1 + 0.1 + 0.1 = 0.30000000000000004, then 0.4
    bad = [
        _seed_sample("e/0", "medicine", "talk about aspirin", ["aspirin"]),
        _seed_sample("e1", "medicine", " !! ", ["aspirin"]),
        _seed_sample("e2", "tall", "talk about aspirin", ["aspirin"]),
        _seed_sample("e3", "medicine", "a talk that never names the drug", ["heparin"]),
    ]
    mixed = [bad[0], good[0], bad[1], good[1], good[2], bad[2], good[3], bad[3]]
    (tmp_path / "mixed" / "slides").mkdir(parents=True)
    (tmp_path / "mixed" / "slides" / "e1.svg").write_text("left by an earlier build")
    mixed_stats = build_dataset(mixed, tmp_path / "mixed", generator)
    good_stats = build_dataset(good, tmp_path / "good", generator)
    assert mixed_stats == good_stats == {"samples": 4, "entities": 6, "hours": 0.4 / 3600.0}
    with pytest.raises(ToolkitError) as overflow:
        layout_slide(generate_slide_text("tall", ["aspirin"], generator))
    errors = [
        {"id": "e/0", "code": "bad-id", "detail": "id cannot name a slide file: 'e/0'"},
        {"id": "e1", "code": "empty-transcript", "detail": "no transcript tokens"},
        {"id": "e2", "code": "slide-overflow", "detail": str(overflow.value)},
        {"id": "e3", "code": "entity-not-in-transcript", "detail": "heparin"},
    ]
    assert (tmp_path / "mixed" / "errors.jsonl").read_text() == "".join(json.dumps(e) + "\n" for e in errors)
    (tmp_path / "mixed" / "errors.jsonl").unlink()
    assert _tree_digest(tmp_path / "mixed") == _tree_digest(tmp_path / "good")


def test_validate_manifest_catches_corruption(tmp_path):
    seeds = [_seed(0, ["aspirin"])]
    build_dataset(seeds, tmp_path)
    rows = read_jsonl(tmp_path / "manifest.jsonl")
    rows[0]["transcript_gt"] = "no drug mentioned here at all"
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    report = validate_manifest(path)
    assert any(v["code"] == "entity-not-in-transcript" for v in report.violations)
    # count mismatch against stats.json
    rows.append(rows[0] | {"id": "extra"})
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    report = validate_manifest(path)
    assert any(v["code"] == "count-mismatch" for v in report.violations)
    # an empty id is "bad-record", as every reader of a dataset has it
    path.write_text(json.dumps(rows[0] | {"id": ""}) + "\n")
    report = validate_manifest(path)
    assert (None, "bad-record") in [(v["id"], v["code"]) for v in report.violations]


def test_validate_manifest_reports_a_duplicate_id_and_both_counts(tmp_path):
    build_dataset([_seed(0, ["aspirin"]), _seed(1, ["warfarin", "metformin"])], tmp_path)
    path = tmp_path / "manifest.jsonl"
    rows = read_jsonl(path)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows + [rows[1]]))
    report = validate_manifest(path)
    assert (report.samples, report.entities) == (3, 5)
    assert report.violations == [
        {"id": "b1", "code": "duplicate-id", "detail": "b1"},
        {"id": None, "code": "count-mismatch", "detail": "stats.samples=2 but manifest has 3"},
        {"id": None, "code": "count-mismatch", "detail": "stats.entities=3 but manifest sums to 5"},
    ]


def test_validate_manifest_unreadable(tmp_path):
    with pytest.raises(ToolkitError) as exc:
        validate_manifest(tmp_path / "nope.jsonl")
    assert exc.value.code == "manifest-parse"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    with pytest.raises(ToolkitError):
        validate_manifest(bad)
    # a stats.json that parses but is not an object
    build_dataset([_seed(0, ["aspirin"])], tmp_path)
    (tmp_path / "stats.json").write_text("[1]\n")
    with pytest.raises(ToolkitError) as exc:
        validate_manifest(tmp_path / "manifest.jsonl")
    assert exc.value.code == "manifest-parse"


def test_validate_manifest_reports_a_body_over_the_word_cap(tmp_path):
    body = "aspirin " + " ".join(["word"] * MAX_BODY_WORDS)
    row = {"id": "w", "domain": "medicine", "slide_text": "Title\n" + body,
           "transcript_gt": "talk about aspirin", "entities": ["aspirin"]}
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps(row) + "\n")
    report = validate_manifest(path)
    assert [(v["id"], v["code"], v["detail"]) for v in report.violations] == [
        ("w", "body-too-long", f"{MAX_BODY_WORDS + 1} words (cap {MAX_BODY_WORDS})")
    ]


def test_validate_manifest_reports_an_empty_entity_once(tmp_path):
    row = {"id": "e", "domain": "medicine", "slide_text": "Title\naspirin today",
           "transcript_gt": "talk about aspirin", "entities": ["aspirin", "!!!"]}
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps(row) + "\n")
    report = validate_manifest(path)
    assert [(v["id"], v["code"], v["detail"]) for v in report.violations] == [("e", "empty-entity", "'!!!'")]


def test_validate_manifest_applies_the_checks_of_build(tmp_path):
    """Rows that ``build`` would reject get ``build``'s codes: an id that
    cannot name a slide file, a body token wider than a line, and a slide
    that runs below the canvas."""
    row = {"domain": "medicine", "transcript_gt": "talk about aspirin", "entities": ["aspirin"]}
    rows = [
        row | {"id": "a/b", "slide_text": "Title\naspirin today"},
        row | {"id": "wide", "slide_text": "Title\naspirin " + "x" * 80},
        row | {"id": "tall", "slide_text": " ".join(["word"] * 120) + "\naspirin today"},
    ]
    path = tmp_path / "manifest.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    report = validate_manifest(path)
    assert [(v["id"], v["code"]) for v in report.violations] == [
        ("a/b", "bad-id"), ("wide", "unwrappable-token"), ("tall", "slide-overflow")
    ]


def test_validate_manifest_checks_each_rows_slide_file(tmp_path):
    """A row's ``slide_image_ref`` must be the file ``build`` writes for its
    id, and that file must hold the slide ``build`` draws from its text."""
    build_dataset([_seed(0, ["aspirin"]), _seed(1, ["warfarin"]), _seed(2, ["heparin"])], tmp_path)
    path = tmp_path / "manifest.jsonl"
    rows = read_jsonl(path)
    rows[0]["slide_image_ref"] = "slides/other.svg"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    (tmp_path / "slides" / "b1.svg").unlink()
    (tmp_path / "slides" / "b2.svg").write_bytes((tmp_path / "slides" / "b2.svg").read_bytes().replace(b"heparin", b"h"))
    assert [(v["id"], v["code"], v["detail"]) for v in validate_manifest(path).violations] == [
        ("b0", "bad-slide-ref", "slide_image_ref is 'slides/other.svg', not 'slides/b0.svg'"),
        ("b1", "slide-mismatch", "cannot read slides/b1.svg: No such file or directory"),
        ("b2", "slide-mismatch", "slides/b2.svg is not the slide drawn from its slide_text"),
    ]
    shutil.rmtree(tmp_path / "slides")
    assert [(v["id"], v["code"]) for v in validate_manifest(path).violations] == [
        ("b0", "bad-slide-ref"), ("b1", "slide-mismatch"), ("b2", "slide-mismatch")
    ]


def test_build_records_a_slide_below_the_canvas_as_slide_overflow(tmp_path):
    def tall(domain, entities):
        return " ".join(["word"] * 120), "body about " + ", ".join(entities)

    assert build_dataset([_seed(0, ["aspirin"])], tmp_path, tall)["samples"] == 0
    (error,) = read_jsonl(tmp_path / "errors.jsonl")
    assert (error["id"], error["code"]) == ("b0", "slide-overflow")
    assert not (tmp_path / "slides" / "b0.svg").exists()


def test_title_less_slide_with_a_multiline_body_builds_and_validates(tmp_path):
    """A reply without a title keeps the newline before its body, so the
    slide ``validate_manifest`` reads back is the one ``build`` drew: a
    50-cell word fits a body line but not a title line."""
    body = "aspirin " + "x" * 50 + "\nmore words"
    assert build_dataset([_seed(0, ["aspirin"])], tmp_path, lambda domain, entities: ("", body))["samples"] == 1
    assert read_jsonl(tmp_path / "manifest.jsonl")[0]["slide_text"] == "\n" + body
    assert validate_manifest(tmp_path / "manifest.jsonl").violations == []


def test_bundled_seed_sets():
    seeds = read_seed_records(builtin_path("seeds_60.jsonl"))
    assert len(seeds) == 60
    assert sum(len(s.entities) for s in seeds) == 200


def test_validate_manifest_reports_records_it_cannot_read(tmp_path):
    build_dataset([_seed(0, ["aspirin"])], tmp_path)
    path = tmp_path / "manifest.jsonl"
    row = read_jsonl(path)[0]
    path.write_text("5\n" + json.dumps(row | {"id": "s2", "duration_s": "10"}) + "\n" + json.dumps(row) + "\n")
    report = validate_manifest(path)
    codes = [(v["id"], v["code"]) for v in report.violations]
    assert (None, "bad-record") in codes and ("s2", "bad-record") in codes
    assert not any(v["id"] == row["id"] for v in report.violations)


class CountingGenerator(TemplateGenerator):
    def __init__(self):
        self.calls = 0

    def __call__(self, domain, entities):
        self.calls += 1
        return super().__call__(domain, entities)


@pytest.mark.parametrize(
    "seed, code",
    [
        (_seed_sample("p", "medicine", "aspirin !!!", ["aspirin", "!!!"]), "empty-entity"),
        (_seed_sample("p", "medicine", "talk", ["aspirin"]), "entity-not-in-transcript"),
        (_seed_sample("p", "medicine", " ... ", ["aspirin"]), "empty-transcript"),
        (_seed_sample("p", "", "talk", []), "no-entities"),
    ],
)
def test_seed_that_breaks_an_invariant_is_rejected_before_generation(tmp_path, seed, code):
    gen = CountingGenerator()
    stats = build_dataset([seed, _seed(1, ["aspirin"])], tmp_path, gen)
    assert stats["samples"] == 1 and gen.calls == 1
    errors = read_jsonl(tmp_path / "errors.jsonl")
    assert [(e["id"], e["code"]) for e in errors] == [("p", code)]


def test_multiline_domain_at_the_word_cap_builds_and_validates(tmp_path):
    entities = [f"term{i}" for i in range(59)]
    seed = _seed_sample("m", "x\ny", " ".join(entities), entities)
    assert build_dataset([seed], tmp_path)["samples"] == 1
    assert word_count(read_jsonl(tmp_path / "manifest.jsonl")[0]["slide_text"].split("\n", 1)[1]) == 149
    report = validate_manifest(tmp_path / "manifest.jsonl")
    assert report.ok, report.violations


def test_seed_over_the_word_cap_is_generation_invalid(tmp_path):
    # 100 entities make a 244-word template body: 9 words of preamble, 33
    # sentences of 3 entities (7 words each), and one of 1 entity (4 words)
    entities = [f"term{i}" for i in range(100)]
    gen = CountingGenerator()
    stats = build_dataset([_seed_sample("w", "medicine", " ".join(entities), entities)], tmp_path, gen)
    assert stats["samples"] == 0 and gen.calls == 3
    assert read_jsonl(tmp_path / "errors.jsonl") == [
        {"id": "w", "code": "generation-invalid", "detail": "body-too-long: 244 words (cap 150)"}
    ]


_WORDS = ["aspirin", "warfarin", "keth", "字", "Zal-Pra", "tor"]
_ENTITIES = st.sampled_from(_WORDS + ["!!!", "...", "absent", "not spoken"])


@st.composite
def _seed_sets(draw):
    seeds = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 70))
        entities = draw(st.lists(_ENTITIES, min_size=n, max_size=n))
        spoken = " ".join(e for e in entities if e not in ("absent", "not spoken"))
        transcript = draw(st.sampled_from(["", " !! ", spoken, "talk about " + spoken]))
        domain = draw(st.sampled_from(["", "general", "medicine", "a  b", "x\ny", " \t x \n\n y-z "]))
        seeds.append(_seed_sample(f"s{i}", domain, transcript, entities))
    return seeds


@given(seeds=_seed_sets())
@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_every_built_manifest_validates(seeds):
    with tempfile.TemporaryDirectory() as tmp:
        build_dataset(seeds, tmp)
        report = validate_manifest(Path(tmp) / "manifest.jsonl")
    assert report.violations == []
