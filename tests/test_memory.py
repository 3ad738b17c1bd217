"""What a command holds in memory: the records once, each distinct text once, the streamed JSON writer and build, and the tokenizer cache rule.

``_write_json`` writes the same bytes as ``json.dumps(..., ensure_ascii=False,
indent=2)`` plus a newline, without building the whole text first. The
records of one read share equal texts, for that read only. ``build_dataset``
writes each manifest row as its slide is drawn. The tokenizer cache keeps
only sample-side texts (slides, transcripts, entity surfaces), which recur;
model outputs are tokenized uncached.
"""

from __future__ import annotations

import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_golden import GOLDEN
from vapokit import cli, ocr_behavior
from vapokit.bench import build_dataset, read_seed_records
from vapokit.cli import _write_json, main
from vapokit.data import Sample, builtin_path, pair_by_id, read_samples
from vapokit.rewards import asr_reward, extract_anchored, ocr_reward, visual_anchoring_reward
from vapokit.textnorm import _tokenize

# Any character UTF-8 can hold, with CJK, quotes, backslashes and control characters drawn often.
_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)) | st.sampled_from(list('漢字カナ한"\\\n\t\x00\x1f ')),
    max_size=8,
)
_LEAF = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | _TEXT
)
_JSON = st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
                     max_leaves=12)


@given(payload=st.dictionaries(_TEXT, _JSON, max_size=4))
@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_write_json_writes_the_bytes_of_json_dumps(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        _write_json(str(path), payload)
        assert path.read_bytes() == (json.dumps(payload, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def test_write_json_peak_memory_is_a_small_share_of_the_output(tmp_path):
    """The chunks go to the file as they are made: no full text, list of chunks or encoded copy."""
    payload = {
        "rows": [{"id": f"r{i:05d}", "wer": i / 7, "entities": ["漢字", 'a"b'], "ok": i % 2 == 0}
                 for i in range(12000)],
        "aggregate": {"wer": 0.25, "recall": None},
    }
    path = tmp_path / "out.json"
    tracemalloc.start()
    try:
        _write_json(str(path), payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 1 << 20
    assert peak < size / 4, (peak, size)


def _entities(i: int) -> list[str]:
    return [["aspirin", "warfarin"], ["heparin", "mass spectrometry"]][i % 2]


# Eight records on two slides and two entity lists, each with its own transcript.
SAMPLES = [
    {
        "id": f"m{i}",
        "domain": "medicine",
        "lang": "en",
        "slide_text": f"Slide {i % 2}: {' and '.join(_entities(i))} overview",
        "transcript_gt": f"talk {i} mentions {' then '.join(_entities(i))} in clinics",
        "entities": _entities(i),
        "audio_ref": f"audio/m{i}.wav",
    }
    for i in range(8)
]

# The sample fields each command tokenizes.
SAMPLE_SIDE = {
    "score": ("transcript_gt", "entities"),
    "reward": ("slide_text", "transcript_gt", "entities"),
    "detect": ("slide_text", "transcript_gt"),
}


def _sample_texts(samples: list[dict], fields) -> set[str]:
    texts = set()
    for s in samples:
        for field in fields:
            texts.update(s[field] if field == "entities" else [s[field]])
    return texts


def _write_jsonl(path: Path, rows: list[dict]) -> str:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", list(SAMPLE_SIDE))
def test_tokenize_cache_holds_only_sample_side_texts(command, tmp_path):
    """Every hypothesis and every think and answer block is a text of its own,
    so one model output tokenized through the cache adds an entry."""
    dataset = _write_jsonl(tmp_path / "dataset.jsonl", SAMPLES)
    if command == "reward":
        outputs = [{"id": s["id"], "text": f"<think>{s['slide_text']} as read {i}</think>"
                                           f"<answer>answer {i}: {' '.join(s['entities'])}</answer>"}
                   for i, s in enumerate(SAMPLES)]
        inputs = ["--rollouts", _write_jsonl(tmp_path / "rollouts.jsonl", outputs)]
    else:
        outputs = [{"id": s["id"], "text": f"hypothesis {i} says {s['entities'][0]}"} for i, s in enumerate(SAMPLES)]
        inputs = ["--hyp", _write_jsonl(tmp_path / "hyp.jsonl", outputs)]
    _tokenize.cache_clear()
    assert main([command, "--dataset", dataset, *inputs, "--out", str(tmp_path / "out.json")]) == 0
    assert _tokenize.cache_info().currsize == len(_sample_texts(SAMPLES, SAMPLE_SIDE[command]))


def test_reward_functions_cache_only_sample_side_texts():
    s = Sample(**SAMPLES[0])
    _tokenize.cache_clear()
    ocr_reward("think block one", s.slide_text)
    asr_reward("answer block one", s.transcript_gt)
    anchored = extract_anchored("think block two aspirin", s.entities)
    visual_anchoring_reward(anchored, "answer block two aspirin", s.entities)
    assert _tokenize.cache_info().currsize == len(_sample_texts([SAMPLES[0]], SAMPLE_SIDE["reward"]))


def _release_corpus(directory: Path, n: int = 2400) -> dict[str, str]:
    """``n`` records over 40 slides and transcripts, as a built corpus repeats its seeds,
    with a hypothesis and a rollout each; returns the input paths by flag."""
    samples, hyps, rollouts = [], [], []
    for i in range(n):
        base = SAMPLES[i % len(SAMPLES)]
        samples.append(base | {"id": f"r{i:05d}", "slide_text": f"{base['slide_text']} part {i % 40}",
                               "transcript_gt": f"{base['transcript_gt']} part {i % 40}",
                               "audio_ref": f"audio/r{i:05d}.wav"})
        said = f"record {i} mentions {' and '.join(base['entities'])} in clinics"
        hyps.append({"id": f"r{i:05d}", "text": said})
        rollouts.append({"id": f"r{i:05d}", "text": f"<think>{base['slide_text']}</think><answer>{said}</answer>"})
    return {"--dataset": _write_jsonl(directory / "dataset.jsonl", samples),
            "--hyp": _write_jsonl(directory / "hyp.jsonl", hyps),
            "--rollouts": _write_jsonl(directory / "rollouts.jsonl", rollouts)}


@pytest.mark.parametrize("command", list(SAMPLE_SIDE))
def test_records_are_released_pair_by_pair(command, tmp_path, monkeypatch):
    """From pairing on, a command holds each record once, in its pair, and
    drops each pair once its row is made: its peak after pairing stays within
    10% of what it held right after pairing, though the rows grow to a large
    share of the records."""
    inputs = _release_corpus(tmp_path)
    other = "--rollouts" if command == "reward" else "--hyp"
    argv = [command, "--dataset", inputs["--dataset"], other, inputs[other], "--out", str(tmp_path / "out.json")]
    held = []

    def pairing(*args, **kwargs):
        pairs = pair_by_id(*args, **kwargs)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return pairs

    monkeypatch.setattr(cli, "pair_by_id", pairing)
    monkeypatch.setattr(ocr_behavior, "pair_by_id", pairing)
    _tokenize.cache_clear()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (after_pairing,) = held
    assert peak <= 1.1 * after_pairing, (peak, after_pairing)


# ---------------------------------------------------------------------------
# each distinct text once, for one read

COPIES = 4


def write_shared_inputs(directory: Path) -> dict[str, str]:
    """The golden dataset, hypotheses, rollouts and seeds with each record
    repeated under ``COPIES`` ids (copy k of row j is record k * rows + j), as
    a lecture speaks many utterances over one slide: the copies of a row share
    its slide, transcript, entities and audio ref. Returns the paths by flag."""
    inputs = {}
    for flag, name in (("--dataset", "manifest.jsonl"), ("--hyp", "hyp.jsonl"),
                       ("--rollouts", "rollouts.jsonl"), ("--seeds", "seeds.jsonl")):
        rows = [json.loads(line) for line in (GOLDEN / name).read_text(encoding="utf-8").splitlines()]
        copies = []
        for k in range(COPIES):
            for row in rows:
                rid = f"{row['id']}-{k}"
                ref = {"slide_image_ref": f"slides/{rid}.svg"} if "slide_image_ref" in row else {}
                copies.append(row | {"id": rid} | ref)
        path = directory / f"shared_{name}"
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in copies), encoding="utf-8")
        inputs[flag] = str(path)
    return inputs


def write_tiled_seeds(path: Path, tiles: int) -> str:
    """``seeds_60`` repeated ``tiles`` times under new ids, as the benchmark's ``eval-short-en`` seeds are."""
    seeds = [json.loads(line) for line in builtin_path("seeds_60.jsonl").read_text(encoding="utf-8").splitlines()]
    path.write_text("".join(json.dumps(seed | {"id": f"{seed['id']}-t{t:03d}"}) + "\n"
                            for t in range(tiles) for seed in seeds), encoding="utf-8")
    return str(path)


READERS = {"read_samples": read_samples, "read_seed_records": read_seed_records}


def _shared_texts(record: Sample) -> list[str]:
    """The texts a reader shares: every text field but the id and ``slide_image_ref``, and each entity."""
    return [record.domain, record.lang, record.slide_text, record.transcript_gt, record.audio_ref, *record.entities]


@pytest.mark.parametrize("reader", list(READERS))
def test_records_of_one_read_share_their_texts_and_two_reads_share_none(reader, tmp_path):
    path = write_shared_inputs(tmp_path)["--dataset"]
    first, second = READERS[reader](path), READERS[reader](path)
    rows = len(first) // COPIES
    for i in range(rows, len(first)):
        texts, row_texts = _shared_texts(first[i]), _shared_texts(first[i % rows])
        assert len(texts) == len(row_texts) and all(a is b for a, b in zip(texts, row_texts)), first[i].id

    def objects(records):  # CPython keeps one object for "" and for each one-character string anyway
        return {id(text) for record in records for text in _shared_texts(record) if len(text) > 1}

    assert not objects(first) & objects(second)


@pytest.mark.parametrize("reader", list(READERS))
def test_shared_texts_are_released_with_the_records(reader, tmp_path):
    """The table of texts lives for one read: once the records are dropped,
    what the read allocated is freed, its distinct texts included."""
    READERS[reader](write_shared_inputs(tmp_path)["--dataset"])  # the allocations of first use
    # 400 records over 40 slides; the directory's name makes texts that no earlier read met
    rows = [SAMPLES[i % len(SAMPLES)] | {"id": f"u{i:03d}", "slide_text": f"{tmp_path} slide {i % 40}",
                                         "transcript_gt": f"{tmp_path} talk {i} about aspirin",
                                         "audio_ref": f"{tmp_path}/audio/u{i:03d}.wav"} for i in range(400)]
    path = _write_jsonl(tmp_path / "dataset.jsonl", rows)
    tracemalloc.start()
    try:
        records = READERS[reader](path)
        held = tracemalloc.get_traced_memory()[0]
        del records
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert left < held / 10, (left, held)


@pytest.mark.parametrize("reader", list(READERS))
def test_records_that_share_texts_stay_independent(reader, tmp_path):
    path = write_shared_inputs(tmp_path)["--dataset"]
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    shared = READERS[reader](path)
    alone = [Sample.from_dict(json.loads(line)) for line in lines]
    assert shared == alone
    assert [json.dumps(s.to_dict(), ensure_ascii=False) for s in shared] == lines
    rows = len(shared) // COPIES
    shared[0].entities.append("appended")
    assert shared[rows] == alone[rows]
    assert shared[rows].entities is not shared[0].entities


def test_build_holds_one_built_sample_at_a_time(tmp_path):
    """Each manifest row is written as its slide is drawn: beyond what the
    seeds hold, build's peak grows by at most 200 B per added seed, where
    keeping every built sample to the end grows it by about 870 B."""
    extra = {}
    for tiles in (50, 100):
        path = write_tiled_seeds(tmp_path / f"seeds_{tiles}.jsonl", tiles)
        _tokenize.cache_clear()
        tracemalloc.start()
        try:
            seeds = read_seed_records(path)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            build_dataset(seeds, tmp_path / f"built_{tiles}")
            extra[tiles] = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        del seeds
    added = 60 * (100 - 50)
    assert extra[100] - extra[50] <= 200 * added, extra
