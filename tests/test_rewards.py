from __future__ import annotations

import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import levenshtein_recursive, reference_total_reward, rollout_soup
from vapokit import grpo
from vapokit.data import Sample, builtin_path, read_samples
from vapokit.errors import ToolkitError
from vapokit.metrics import EntityRef
from vapokit.rewards import (
    RewardWeights,
    asr_reward,
    extract_anchored,
    format_reward,
    ocr_reward,
    total_reward,
    visual_anchoring_reward,
)
from vapokit.structured import parse_structured, serialize_structured


def test_format_reward():
    assert format_reward(parse_structured("<think>a</think><answer>b</answer>")) == 1
    assert format_reward(parse_structured("<think>a</think><answer>b")) == 0
    assert format_reward(parse_structured("")) == 0


def test_ocr_reward_exact():
    assert ocr_reward("alpha beta gamma", "Alpha, beta gamma!") == 1.0


def test_ocr_reward_clips_at_zero():
    slide = "one two"
    think = "xx yy zz qq rr ss"
    assert ocr_reward(think, slide) == 0.0


def test_ocr_reward_two_subs_over_ten():
    slide = "t1 t2 t3 t4 t5 t6 t7 t8 t9 t10"
    think = "t1 qq t3 t4 zz t6 t7 t8 t9 t10"
    ref = tuple(slide.split())
    hyp = tuple(think.split())
    assert levenshtein_recursive(ref, hyp) == 2  # oracle
    assert ocr_reward(think, slide) == pytest.approx(0.8)


def test_ocr_reward_empty_slide():
    assert ocr_reward("anything", "  ...  ") == 0.0


def test_asr_reward_examples():
    assert asr_reward("the same text here", "the same text here") == 1.0
    # 1 error over 4 reference tokens
    assert asr_reward("the same text qq", "the same text here") == 0.75
    # WER 1.5 clips to 0
    assert asr_reward("a b c d e f", "x y z w") == 0.0


def test_extract_anchored():
    entities = ["aspirin", "warfarin", "metformin"]
    assert extract_anchored("we saw aspirin and warfarin", entities) == ["aspirin", "warfarin"]
    assert extract_anchored("", entities) == []
    # fuzzy single-word match within one character
    assert extract_anchored("talk about convert today", ["ConVIRT"]) == ["ConVIRT"]


def test_extract_anchored_dedup():
    assert extract_anchored("aspirin aspirin aspirin", ["aspirin", "Aspirin"]) == ["aspirin"]


def test_va_reward_full_overlap():
    entities = ["aspirin", "warfarin"]
    assert visual_anchoring_reward(["aspirin", "warfarin"], "aspirin and warfarin", entities) == 1.0


def test_va_reward_partial():
    entities = ["aspirin", "warfarin"]
    # answer carries only aspirin: precision 1, recall 0.5
    got = visual_anchoring_reward(["aspirin", "warfarin"], "only aspirin here", entities)
    assert got == pytest.approx(2 / 3)


def test_va_reward_empty_think():
    assert visual_anchoring_reward([], "aspirin here", ["aspirin"]) == 0.0


def test_va_reward_empty_answer():
    assert visual_anchoring_reward(["aspirin"], "nothing relevant", ["aspirin"]) == 0.0


def test_va_reward_penalizes_unanchored_stuffing():
    entities = ["aspirin", "warfarin", "metformin"]
    # the answer stuffs unanchored metformin: precision over the answer's entities penalizes it
    answer = "aspirin warfarin metformin"
    stuffed = visual_anchoring_reward(["aspirin", "warfarin"], answer, entities)
    assert stuffed == pytest.approx(0.8)  # P=2/3, R=1


def test_va_reward_has_no_matching_options():
    # a misspelt option is an error, never a silently different score
    with pytest.raises(TypeError):
        visual_anchoring_reward(
            ["aspirin"], "aspirin warfarin", ["aspirin", "warfarin"], precision_side="answers"
        )
    with pytest.raises(TypeError):
        extract_anchored("aspirin", ["aspirin"], matching="exact")


@pytest.fixture
def sample() -> Sample:
    return Sample(
        id="r1",
        domain="medicine",
        lang="en",
        slide_text="s1 s2 s3 aspirin s5 s6 s7 warfarin s9 s10",
        transcript_gt="t1 t2 t3 aspirin t5 t6 t7 warfarin t9 t10",
        entities=["aspirin", "warfarin"],
        audio_ref="audio/r1.wav",
    )


def test_total_reward_perfect(sample):
    raw = serialize_structured(sample.slide_text, sample.transcript_gt)
    b = total_reward(sample, raw)
    assert (b.r_format, b.r_ocr, b.r_asr, b.r_va) == (1, 1.0, 1.0, 1.0)
    assert b.total == 4.0
    assert b.anchored_entities == ["aspirin", "warfarin"]


def test_total_reward_weighted_sum(sample):
    # r_ocr 0.8 (2 subs / 10), r_asr 0.9 (1 sub / 10), r_va 1.0
    think = "s1 qq s3 aspirin s5 zz s7 warfarin s9 s10"
    answer = "t1 t2 ww aspirin t5 t6 t7 warfarin t9 t10"
    b = total_reward(sample, serialize_structured(think, answer))
    assert (b.r_format, b.r_ocr, b.r_asr, b.r_va) == (1, 0.8, 0.9, 1.0)
    assert b.total == pytest.approx(3.7)


def test_total_reward_malformed_zeroes_content(sample):
    b = total_reward(sample, "<think>junk only")
    assert b.r_format == 0
    assert b.r_ocr == 0.0 and b.r_asr == 0.0 and b.r_va == 0.0
    assert b.total == 0.0
    assert "malformed-format" in b.diagnostics


def test_total_reward_disjoint_anchors_score_no_va(sample):
    # the think block anchors aspirin, the answer holds only warfarin: F1 0
    b = total_reward(sample, serialize_structured("s1 aspirin", "t1 warfarin"))
    assert b.anchored_entities == ["aspirin"]
    assert b.r_format == 1 and b.r_va == 0.0


def test_total_reward_empty_transcript_is_a_diagnostic(sample):
    sample.transcript_gt = " ... "
    b = total_reward(sample, serialize_structured(sample.slide_text, "t1 aspirin warfarin"))
    assert b.diagnostics == ["empty-transcript"]
    assert b.r_asr == 0.0 and b.r_ocr == 1.0


def test_total_reward_monotone_answer_corruption(sample):
    answer = sample.transcript_gt
    raw = serialize_structured(sample.slide_text, answer)
    prev = total_reward(sample, raw).r_asr
    tokens = answer.split()
    for i in (1, 4, 6):
        tokens[i] = f"qz{i}"
        cur = total_reward(sample, serialize_structured(sample.slide_text, " ".join(tokens))).r_asr
        assert cur <= prev
        prev = cur


def test_total_reward_removing_anchor_never_raises_va(sample):
    full = serialize_structured(sample.slide_text, sample.transcript_gt)
    dropped = serialize_structured(
        sample.slide_text, sample.transcript_gt.replace("warfarin", "qqq")
    )
    assert total_reward(sample, dropped).r_va <= total_reward(sample, full).r_va


def test_total_reward_weight_scaling(sample):
    rng = random.Random(12)
    rollouts = [rollout_soup(rng) for _ in range(50)]
    rollouts.append(serialize_structured(sample.slide_text, sample.transcript_gt))
    w1 = RewardWeights()
    w2 = RewardWeights(2.0, 2.0, 2.0, 2.0)
    totals1 = [total_reward(sample, r, w1).total for r in rollouts]
    totals2 = [total_reward(sample, r, w2).total for r in rollouts]
    assert all(t2 == 2.0 * t1 for t1, t2 in zip(totals1, totals2))
    assert max(range(len(totals1)), key=totals1.__getitem__) == max(
        range(len(totals2)), key=totals2.__getitem__
    )


def test_total_reward_bounded_fuzz(sample):
    rng = random.Random(13)
    weights = RewardWeights(1.0, 0.5, 2.0, 0.25)
    for _ in range(3000):
        raw = rollout_soup(rng)
        b = total_reward(sample, raw, weights)
        assert b.r_format in (0, 1)
        assert 0.0 <= b.r_ocr <= 1.0
        assert 0.0 <= b.r_asr <= 1.0
        assert 0.0 <= b.r_va <= 1.0
        assert b.total == (
            weights.lambda_format * b.r_format
            + weights.lambda_ocr * b.r_ocr
            + weights.lambda_asr * b.r_asr
            + weights.lambda_va * b.r_va
        )
        assert 0.0 <= b.total <= weights.total


def test_total_is_at_most_the_weight_sum_on_every_python(monkeypatch):
    """``weights.total`` folds the weights as every total does, so the bound is
    exact however the interpreter's ``sum`` rounds: ``math.fsum`` stands in for
    the compensated ``sum`` of Python 3.12 on, which puts the weight sum of
    these weights one bit below the perfect rollout's total."""
    monkeypatch.setattr("vapokit.rewards.sum", math.fsum, raising=False)
    weights = RewardWeights(7.970401736741176, 0.3, 0.3, 0.3)
    sample = read_samples(builtin_path("grpo_samples.jsonl"))[0]
    b = total_reward(sample, grpo.render(grpo.OPTIMAL_TUPLE, sample), weights)
    assert (b.r_format, b.r_ocr, b.r_asr, b.r_va) == (1, 1.0, 1.0, 1.0)
    assert b.total == 8.870401736741178 != math.fsum(weights)
    assert b.total <= weights.total


# The builtin samples plus the golden manifest, whose last record is Chinese.
_SAMPLES = read_samples(builtin_path("grpo_samples.jsonl")) + read_samples(Path(__file__).resolve().parent / "golden" / "manifest.jsonl")


def _oracle_fields(b) -> dict:
    """The fields of a RewardBreakdown that ``reference_total_reward`` computes."""
    return {
        "r_format": b.r_format,
        "r_ocr": b.r_ocr,
        "r_asr": b.r_asr,
        "r_va": b.r_va,
        "anchored_entities": b.anchored_entities,
    }


def _word_rollout(rng: random.Random, sample: Sample) -> str:
    """A well-formed rollout whose blocks draw from the sample's own words and
    entities, some with the last character changed, so that anchoring,
    one-edit matches and partial F1s are common."""
    words = f"{sample.slide_text} {sample.transcript_gt}".split() + list(sample.entities) + ["qq", "zz"]

    def block() -> str:
        picked = rng.choices(words, k=rng.randint(0, 12))
        return " ".join(w[:-1] + "q" if rng.random() < 0.15 else w for w in picked)

    return serialize_structured(block(), block())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(sample=st.sampled_from(_SAMPLES), seed=st.integers(0, 2**32 - 1), words=st.booleans())
def test_total_reward_equals_the_reference(sample, seed, words):
    rng = random.Random(seed)
    raw = _word_rollout(rng, sample) if words else rollout_soup(rng)
    assert _oracle_fields(total_reward(sample, raw)) == reference_total_reward(sample, raw), raw


def test_total_reward_equals_the_reference_on_every_rendered_rollout():
    for sample in read_samples(builtin_path("grpo_samples.jsonl")):
        for tup in grpo.ALL_TUPLES:
            raw = grpo.render(tup, sample)
            assert _oracle_fields(total_reward(sample, raw)) == reference_total_reward(sample, raw), (sample.id, tup)


def test_total_reward_tokenizes_each_entity_once(monkeypatch):
    """One EntityRef per entity per call serves both the think and the answer search."""
    built = []
    from_surface = EntityRef.from_surface

    def counting(surface):
        built.append(surface)
        return from_surface(surface)

    monkeypatch.setattr(EntityRef, "from_surface", staticmethod(counting))
    sample = read_samples(builtin_path("grpo_samples.jsonl"))[0]
    for tup in grpo.ALL_TUPLES:
        raw = grpo.render(tup, sample)  # render builds its own EntityRefs
        built.clear()
        total_reward(sample, raw)
        assert built == sample.entities, tup


def test_ocr_behavior_scores_worse_than_truth():
    # slide and transcript share < 50% vocabulary; copying the slide into the
    # answer must score below answering with the transcript
    sample = Sample(
        id="r2",
        domain="biology",
        lang="en",
        slide_text="crispr plasmid overview with numbered bullet points galore",
        transcript_gt="today we explain crispr and plasmid edits in periodic lab work",
        entities=["crispr", "plasmid"],
        audio_ref="audio/r2.wav",
    )
    ocr_copy = total_reward(sample, serialize_structured(sample.slide_text, sample.slide_text))
    faithful = total_reward(sample, serialize_structured(sample.slide_text, sample.transcript_gt))
    assert ocr_copy.r_asr < faithful.r_asr


def test_weights_from_file_json(tmp_path):
    p = tmp_path / "w.json"
    p.write_text('{"lambda_va": 2.0, "lambda_ocr": 0.5}')
    w = RewardWeights.from_file(p)
    assert w == RewardWeights(1.0, 0.5, 1.0, 2.0)


def test_weights_from_file_key_value(tmp_path):
    p = tmp_path / "w.cfg"
    p.write_text("# comment\nlambda_format = 1.0\nlambda_asr=2\n")
    w = RewardWeights.from_file(p)
    assert w == RewardWeights(1.0, 1.0, 2.0, 1.0)


def test_weights_reject_bad_values(tmp_path):
    p = tmp_path / "w.json"
    p.write_text('{"lambda_va": -1}')
    with pytest.raises(ToolkitError) as exc:
        RewardWeights.from_file(p)
    assert exc.value.code == "bad-weights"
    p.write_text('{"lambda_nope": 1}')
    with pytest.raises(ToolkitError):
        RewardWeights.from_file(p)
