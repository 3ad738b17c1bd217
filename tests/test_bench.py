from __future__ import annotations

import hashlib
import http.server
import json
import random
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import _REFERENCE_CJK, reference_word_count, reference_wrap, reference_wrap_atoms
from vapokit.bench import (
    MAX_BODY_WORDS,
    RemoteGenerator,
    SeedRecord,
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
from vapokit.data import builtin_path, read_jsonl
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
# combining mark, and plain latin.
_ATOM_ALPHABET = (
    [chr(cp) for lo, hi in _REFERENCE_CJK for cp in (lo - 1, lo, hi, hi + 1)]
    + ["\u3000", "\u0085", "\u001c", "\u00a0", "\u200b", "\u0301", "字", "한"]
    + [" ", "\t", "\n", "a", "b", "xyz", "-", "."]
)


def test_word_count_and_wrap_equal_per_character_references_random():
    rng = random.Random(23)
    for _ in range(20000):
        text = "".join(rng.choices(_ATOM_ALPHABET, k=rng.randint(0, 8)))
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


def test_generate_requires_entities():
    with pytest.raises(ToolkitError) as exc:
        generate_slide_text("medicine", [])
    assert exc.value.code == "no-entities"


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

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _ChatHandler.seen.append(json.loads(self.rfile.read(length)))
        payload = json.dumps(
            {"choices": [{"message": {"content": _ChatHandler.reply}}]}
        ).encode()
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


def test_remote_generator_round_trip(chat_server):
    gen = RemoteGenerator(url=chat_server, model="test-model", timeout_s=5)
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


def test_remote_generator_unreachable():
    gen = RemoteGenerator(url="http://127.0.0.1:9/nothing", model="m", timeout_s=0.3)
    with pytest.raises(ToolkitError) as exc:
        gen("medicine", ["aspirin"])
    assert exc.value.code == "generator-unreachable"
    with pytest.raises(ToolkitError):
        RemoteGenerator(url="", model="m")("medicine", ["aspirin"])


def test_remote_generator_invalid_reply_retries_to_failure(chat_server, monkeypatch):
    monkeypatch.setattr(_ChatHandler, "reply", "###\nTitle\n###\nbody missing the entity")
    gen = RemoteGenerator(url=chat_server, model="m", timeout_s=5)
    with pytest.raises(ToolkitError) as exc:
        generate_slide_text("medicine", ["aspirin"], gen)
    assert exc.value.code == "generation-invalid"
    assert len(_ChatHandler.seen) == 3


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


def test_render_slide_writes_file(tmp_path):
    slide = SlideText(title="T", body="body words")
    layout = render_slide(slide, tmp_path / "s.svg")
    assert (tmp_path / "s.svg").read_bytes() == slide_svg(layout)


# ---------------------------------------------------------------------------
# dataset build and validation


def _seed(idx: int, entities: list[str], transcript: str | None = None) -> SeedRecord:
    return SeedRecord(
        id=f"b{idx}",
        domain="medicine",
        transcript=transcript or ("talk about " + " and ".join(entities) + " in clinics today"),
        entities=entities,
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
    seeds = [_seed(0, ["aspirin"]), SeedRecord(id="bad", domain="medicine", transcript="x", entities=[]), _seed(2, ["warfarin"])]
    stats = build_dataset(seeds, tmp_path)
    assert stats["samples"] == 2
    errors = read_jsonl(tmp_path / "errors.jsonl")
    assert len(errors) == 1 and errors[0]["id"] == "bad" and errors[0]["code"] == "no-entities"


def test_build_dataset_hours_when_durations_known(tmp_path):
    seeds = read_seed_records(builtin_path("seeds_5.jsonl"))
    stats = build_dataset(seeds, tmp_path)
    assert stats["samples"] == 5
    expected_hours = sum(s.duration_s for s in seeds) / 3600.0
    assert stats["hours"] == pytest.approx(expected_hours)


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
    # an empty id is reported like a missing one
    path.write_text(json.dumps(rows[0] | {"id": ""}) + "\n")
    report = validate_manifest(path)
    assert any(v["code"] == "missing-id" for v in report.violations)


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
        (SeedRecord(id="p", domain="medicine", transcript="aspirin !!!", entities=["aspirin", "!!!"]), "empty-entity"),
        (SeedRecord(id="p", domain="medicine", transcript="talk", entities=["aspirin"]), "entity-not-in-transcript"),
        (SeedRecord(id="p", domain="medicine", transcript=" ... ", entities=["aspirin"]), "empty-transcript"),
        (SeedRecord(id="p", domain="", transcript="talk", entities=[]), "no-entities"),
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
    seed = SeedRecord(id="m", domain="x\ny", transcript=" ".join(entities), entities=entities)
    assert build_dataset([seed], tmp_path)["samples"] == 1
    assert word_count(read_jsonl(tmp_path / "manifest.jsonl")[0]["slide_text"].split("\n", 1)[1]) == 149
    report = validate_manifest(tmp_path / "manifest.jsonl")
    assert report.ok, report.violations


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
        seeds.append(SeedRecord(id=f"s{i}", domain=domain, transcript=transcript, entities=entities))
    return seeds


@given(seeds=_seed_sets())
@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_every_built_manifest_validates(seeds):
    with tempfile.TemporaryDirectory() as tmp:
        build_dataset(seeds, tmp)
        report = validate_manifest(Path(tmp) / "manifest.jsonl")
    assert report.violations == []
