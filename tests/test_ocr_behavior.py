from __future__ import annotations

import random

import pytest

from vapokit.data import Hypothesis, Sample
from vapokit.errors import ToolkitError
from vapokit.ocr_behavior import (
    VocabPartition,
    detect,
    detect_all,
    partition_vocab,
    summarize,
)


def make_sample(idx: int, slide: str, transcript: str) -> Sample:
    return Sample(
        id=f"o{idx}",
        domain="general",
        lang="en",
        slide_text=slide,
        transcript_gt=transcript,
        entities=[],
        audio_ref=f"audio/o{idx}.wav",
    )


def test_partition_basic():
    sample = make_sample(0, "alpha beta gamma", "alpha delta")
    part = partition_vocab(sample)
    assert part.v_common == {"alpha"}
    assert part.v_slide_only == {"beta", "gamma"}


def test_partition_slide_subset_of_transcript():
    sample = make_sample(1, "alpha beta", "alpha beta gamma")
    assert partition_vocab(sample).v_slide_only == set()


def test_partition_disjoint():
    sample = make_sample(2, "alpha beta", "gamma delta")
    assert partition_vocab(sample).v_slide_only == {"alpha", "beta"}


def test_partition_empty_slide():
    sample = make_sample(3, "  ", "words here")
    with pytest.raises(ToolkitError) as exc:
        partition_vocab(sample)
    assert exc.value.code == "no-slide"


def test_detect_examples():
    part = VocabPartition(v_common=frozenset({"alpha"}), v_slide_only=frozenset({"beta", "gamma"}))
    assert detect("we saw beta today", part) is True
    assert detect("alpha words only", part) is False
    assert detect("beta gamma", part) is True


def test_detect_monotone_in_output():
    part = VocabPartition(v_common=frozenset(), v_slide_only=frozenset({"beta"}))
    rng = random.Random(14)
    vocab = ["alpha", "beta", "delta", "x"]
    for _ in range(200):
        words = [rng.choice(vocab) for _ in range(rng.randint(0, 6))]
        flagged = detect(" ".join(words), part)
        extended = detect(" ".join(words + [rng.choice(vocab)]), part)
        if flagged:
            assert extended


def test_detect_false_when_no_slide_only_vocab():
    part = VocabPartition(v_common=frozenset({"alpha"}), v_slide_only=frozenset())
    rng = random.Random(15)
    for _ in range(100):
        text = " ".join(rng.choice(["alpha", "beta", "zz"]) for _ in range(5))
        assert detect(text, part) is False


def _fixture_corpus() -> tuple[list[Sample], list[Hypothesis], list[Hypothesis]]:
    samples = [
        make_sample(i, f"slideword{i} shared{i} extra{i}", f"shared{i} spoken{i} words{i} here")
        for i in range(4)
    ]
    ocr_outputs = [Hypothesis(id=s.id, text=s.slide_text) for s in samples]
    faithful_outputs = [Hypothesis(id=s.id, text=s.transcript_gt) for s in samples]
    return samples, ocr_outputs, faithful_outputs


def _rate(samples, outputs) -> float:
    return summarize(detect_all(samples, outputs))["rate_percent"]


def test_dataset_rate_mock_models():
    samples, ocr_outputs, faithful_outputs = _fixture_corpus()
    assert _rate(samples, ocr_outputs) == 100.0
    assert _rate(samples, faithful_outputs) == 0.0
    mixed = faithful_outputs[:3] + [ocr_outputs[3]]
    assert _rate(samples, mixed) == 25.0


def test_dataset_rate_permutation_invariant():
    samples, ocr_outputs, faithful_outputs = _fixture_corpus()
    mixed = faithful_outputs[:2] + ocr_outputs[2:]
    rate = _rate(samples, mixed)
    rng = random.Random(16)
    for _ in range(5):
        s = samples[:]
        rng.shuffle(s)
        m = mixed[:]
        rng.shuffle(m)
        assert _rate(s, m) == rate


def test_dataset_rate_pairing_error():
    samples, ocr_outputs, _ = _fixture_corpus()
    with pytest.raises(ToolkitError) as exc:
        _rate(samples, ocr_outputs[:-1])
    assert exc.value.code == "pairing"
    with pytest.raises(ToolkitError) as exc:
        _rate([], [])
    assert exc.value.code == "pairing"
    with pytest.raises(ToolkitError) as exc:
        summarize([])
    assert exc.value.code == "pairing"


def test_detect_all_rows_sorted_by_id():
    samples, ocr_outputs, _ = _fixture_corpus()
    rows = detect_all(samples[::-1], ocr_outputs)
    assert [r["id"] for r in rows] == sorted(s.id for s in samples)
    assert all(r["ocr_behavior"] for r in rows)


def test_summary_row_shape():
    samples, ocr_outputs, faithful = _fixture_corpus()
    row = summarize(detect_all(samples, faithful[:3] + [ocr_outputs[3]]), name="mock", split="dev")
    assert row == {"name": "mock", "split": "dev", "samples": 4, "detected": 1, "rate_percent": 25.0}
