from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from vapokit import grpo
from vapokit.bench import TemplateGenerator, generate_slide_text
from vapokit.data import Sample
from vapokit.errors import ToolkitError
from vapokit.grpo import (
    ALL_TUPLES,
    GRADES,
    NUM_TUPLES,
    OPTIMAL_INDEX,
    OPTIMAL_TUPLE,
    REWARD_COLUMNS,
    BehaviorTuple,
    SimConfig,
    ToyPolicy,
    expected_grades,
    group_advantages,
    policy_step,
    render,
    reward_matrix,
    surrogate_gradient,
    surrogate_objective,
    train,
)
from vapokit.rewards import RewardWeights, total_reward


def test_tuple_grid_is_54():
    assert NUM_TUPLES == 54
    assert len(set(ALL_TUPLES)) == 54
    assert ALL_TUPLES[OPTIMAL_INDEX] == OPTIMAL_TUPLE


def test_policy_probs_normalize():
    rng = np.random.default_rng(0)
    pol = ToyPolicy(rng.normal(0, 50, NUM_TUPLES))
    assert abs(pol.probs().sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# render


def ten_token_sample() -> Sample:
    return Sample(
        id="g1",
        domain="medicine",
        lang="en",
        slide_text="w1 w2 w3 w4 aspirin w6 w7 warfarin w9 w10",
        transcript_gt="u1 u2 u3 u4 aspirin u6 u7 warfarin u9 u10",
        entities=["aspirin", "warfarin"],
        audio_ref="audio/g1.wav",
    )


def test_render_clean_tuple_scores_perfect(fixture_samples):
    for sample in fixture_samples:
        b = total_reward(sample, render(OPTIMAL_TUPLE, sample))
        assert (b.r_format, b.r_ocr, b.r_asr, b.r_va) == (1, 1.0, 1.0, 1.0)


def test_render_format_broken(fixture_samples):
    tup = BehaviorTuple(False, 1.0, 1.0, 1.0)
    b = total_reward(fixture_samples[0], render(tup, fixture_samples[0]))
    assert b.r_format == 0


def test_render_half_ocr_on_ten_token_slide():
    sample = ten_token_sample()
    b = total_reward(sample, render(BehaviorTuple(True, 0.5, 1.0, 1.0), sample))
    # corruption substitutes ceil(5) of 10 slide tokens
    assert b.r_ocr == pytest.approx(0.5, abs=0.1 + 1e-9)
    assert b.r_ocr == 0.5


def test_render_corrupts_entities_then_plain_positions_ascending():
    sample = ten_token_sample()
    slide = "w1 w2 w3 w4 aspirin w6 w7 warfarin w9 w10"
    # think: the entity positions 4 and 7, then plain positions 0, 1, 2
    assert render(BehaviorTuple(True, 0.5, 1.0, 1.0), sample) == (
        "<think>xq0z xq1z xq2z w4 xq4z w6 w7 xq7z w9 w10</think>"
        "<answer>u1 u2 u3 u4 aspirin u6 u7 warfarin u9 u10</answer>"
    )
    # answer: the anchoring grade drops warfarin (7); the ASR grade tops up
    # with the remaining entity position 4, then plain positions 0, 1, 2
    assert render(BehaviorTuple(False, 1.0, 0.5, 0.5), sample) == (
        f"<think>{slide}</think><answer>xq0z xq1z xq2z u4 xq4z u6 u7 xq7z u9 u10"
    )


def test_render_too_small():
    sample = Sample(
        id="tiny",
        domain="medicine",
        lang="en",
        slide_text="aspirin here",
        transcript_gt="short aspirin",
        entities=["aspirin"],
        audio_ref="a.wav",
    )
    with pytest.raises(ToolkitError) as exc:
        render(OPTIMAL_TUPLE, sample)
    assert exc.value.code == "sample-too-small"


def _component(breakdown, axis: str) -> float:
    return {
        "ocr": breakdown.r_ocr,
        "asr": breakdown.r_asr,
        "anchor": breakdown.r_va,
        "format": float(breakdown.r_format),
    }[axis]


def test_render_reward_monotone_per_axis():
    # raising any grade never lowers its own reward component, on 10 samples
    generator = TemplateGenerator()
    samples = []
    pools = [
        ["aspirin", "warfarin"],
        ["crispr", "plasmid", "ribosome"],
        ["benzene", "acetonitrile"],
        ["transformer", "perceptron", "tokenizer"],
        ["metformin", "ibuprofen"],
    ]
    for i in range(10):
        entities = pools[i % len(pools)]
        joined = " and ".join(entities)
        slide = generate_slide_text("medicine", entities, generator)
        samples.append(
            Sample(
                id=f"mono{i}",
                domain="medicine",
                lang="en",
                slide_text=slide.full_text(),
                transcript_gt=f"sample {i} talk covers {joined} with extra plain words around",
                entities=list(entities),
                audio_ref=f"a{i}.wav",
            )
        )
    for sample in samples:
        scores = {}
        for k, tup in enumerate(ALL_TUPLES):
            scores[tup] = total_reward(sample, render(tup, sample))
        for axis, field in (("ocr_level", "ocr"), ("asr_level", "asr"), ("anchor_level", "anchor")):
            for fmt in (False, True):
                others = [
                    (o, a, v)
                    for o, a, v in itertools.product(GRADES, GRADES, GRADES)
                ]
                for o, a, v in others:
                    base = {"format_ok": fmt, "ocr_level": o, "asr_level": a, "anchor_level": v}
                    lo, mid, hi = (
                        scores[BehaviorTuple(**{**base, axis: g})] for g in GRADES
                    )
                    assert _component(lo, field) <= _component(mid, field) + 1e-12
                    assert _component(mid, field) <= _component(hi, field) + 1e-12


def test_render_unique_optimum(fixture_samples):
    for sample in fixture_samples:
        totals = {t: total_reward(sample, render(t, sample)).total for t in ALL_TUPLES}
        best = max(totals.values())
        argmax = [t for t, v in totals.items() if v == best]
        assert argmax == [OPTIMAL_TUPLE]


@pytest.fixture(scope="module")
def components(fixture_samples):
    return reward_matrix(fixture_samples)


@pytest.mark.parametrize(
    "weights",
    [RewardWeights(), RewardWeights(lambda_va=2.0), RewardWeights(0.0, 0.0, 1.0, 0.0)],
    ids=["balanced", "va-doubled", "asr-only"],
)
def test_reward_matrix_matches_fresh_scoring(fixture_samples, components, weights):
    # one weight-free table serves every weight setting: each entry equals a
    # fresh scoring, and weighing its columns gives each fresh total bitwise
    assert components.shape == (len(fixture_samples), NUM_TUPLES, len(REWARD_COLUMNS))
    weighted = weights.weigh(*np.moveaxis(components, -1, 0))
    for si, sample in enumerate(fixture_samples):
        for k, tup in enumerate(ALL_TUPLES):
            fresh = total_reward(sample, render(tup, sample), weights)
            assert list(components[si, k]) == [getattr(fresh, c) for c in REWARD_COLUMNS]
            assert float(weighted[si, k]).hex() == fresh.total.hex()


@pytest.mark.parametrize("steps", [50, 500])
def test_train_scores_each_pair_once(fixture_samples, monkeypatch, steps):
    calls = []

    def counting_total_reward(*args, **kwargs):
        calls.append(1)
        return total_reward(*args, **kwargs)

    monkeypatch.setattr(grpo, "total_reward", counting_total_reward)
    train(SimConfig(steps=steps, seed=3, samples=fixture_samples))
    assert len(calls) == len(fixture_samples) * NUM_TUPLES


# ---------------------------------------------------------------------------
# advantages and the update


def test_group_advantages_hand_values():
    got = group_advantages([1.0, 2.0, 3.0])
    expected = np.array([-1.0, 0.0, 1.0]) * math.sqrt(3.0 / 2.0)  # population std sqrt(2/3)
    assert np.allclose(got, expected, atol=1e-9)
    assert got[0] == pytest.approx(-1.2247, abs=1e-4)


def test_group_advantages_flat_group():
    assert np.array_equal(group_advantages([5.0, 5.0, 5.0, 5.0]), np.zeros(4))


def test_group_advantages_pair():
    assert np.allclose(group_advantages([0.0, 4.0]), [-1.0, 1.0])


def test_group_advantages_degenerate():
    with pytest.raises(ToolkitError) as exc:
        group_advantages([1.0])
    assert exc.value.code == "degenerate-group"


def test_group_advantages_zero_mean_unit_var():
    rng = np.random.default_rng(6)
    for _ in range(200):
        r = rng.uniform(0, 4, size=rng.integers(2, 12))
        a = group_advantages(r)
        if r.std() >= 1e-8:
            assert abs(a.mean()) < 1e-6
            assert a.std() == pytest.approx(1.0, abs=1e-6)


def test_policy_step_zero_advantages_noop():
    pol = ToyPolicy(np.linspace(-1, 1, NUM_TUPLES))
    out = policy_step(pol, [3, 9, 11], np.zeros(3), lr=0.1)
    assert np.array_equal(out.logits, pol.logits)


def test_policy_step_positive_advantage_increases_probability():
    pol = ToyPolicy()
    before = pol.probs()[7]
    out = policy_step(pol, [7], np.array([1.0]), lr=0.1)
    assert out.probs()[7] > before


def test_policy_step_rejects_nonfinite():
    pol = ToyPolicy()
    with pytest.raises(ToolkitError) as exc:
        policy_step(pol, [1], np.array([float("nan")]), lr=0.1)
    assert exc.value.code == "numerical"


def test_surrogate_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    logits = rng.normal(0, 0.5, NUM_TUPLES)
    indices = [int(k) for k in rng.integers(NUM_TUPLES, size=8)]
    advantages = group_advantages(rng.uniform(0, 4, size=8))
    analytic = surrogate_gradient(logits, indices, advantages)
    h = 1e-3
    for j in range(NUM_TUPLES):
        lp = logits.copy()
        lp[j] += h
        lm = logits.copy()
        lm[j] -= h
        numeric = (
            surrogate_objective(lp, indices, advantages)
            - surrogate_objective(lm, indices, advantages)
        ) / (2 * h)
        rel = abs(analytic[j] - numeric) / max(abs(analytic[j]), abs(numeric), 1e-6)
        assert rel < 1e-4


# ---------------------------------------------------------------------------
# training


def test_train_trace_shape_and_determinism(fixture_samples):
    config = SimConfig(steps=120, seed=9, samples=fixture_samples)
    t1 = train(config)
    t2 = train(SimConfig(steps=120, seed=9, samples=fixture_samples))
    assert len(t1.steps) == 120
    assert [vars(s) for s in t1.steps] == [vars(s) for s in t2.steps]
    assert np.array_equal(t1.final_policy.logits, t2.final_policy.logits)


def test_train_rejects_bad_config(fixture_samples):
    with pytest.raises(ToolkitError):
        train(SimConfig(steps=0, samples=fixture_samples))
    with pytest.raises(ToolkitError):
        train(SimConfig(group_size=1, samples=fixture_samples))
    with pytest.raises(ToolkitError):
        train(SimConfig(lr=0.0, samples=fixture_samples))


def test_train_expected_reward_nondecreasing_windows(balanced_runs):
    for trace, _elapsed in balanced_runs:
        values = [s.expected_reward for s in trace.steps]
        windows = [
            sum(values[i : i + 100]) / 100 for i in range(0, len(values), 100)
        ]
        for prev, cur in zip(windows, windows[1:]):
            assert cur >= prev - 0.05
        assert windows[-1] > windows[0]


def test_train_asr_only_weights_prefer_intact_answers(fixture_samples):
    # with weights (0,0,1,0) the argmax set is {format-true, any ocr grade,
    # asr=1, anchor=1}: a broken format still zeroes the extracted answer, and
    # a degraded anchor corrupts answer tokens
    trace = train(
        SimConfig(steps=800, seed=0, samples=fixture_samples, weights=RewardWeights(0.0, 0.0, 1.0, 0.0))
    )
    grades = expected_grades(trace.final_policy)
    assert grades["format_rate"] > 0.95
    assert grades["asr_level"] > 0.95
    assert grades["anchor_level"] > 0.95
    probs = trace.final_policy.probs()
    tied = [
        i
        for i, t in enumerate(ALL_TUPLES)
        if t.format_ok and t.asr_level == 1.0 and t.anchor_level == 1.0
    ]
    assert probs[tied].sum() > 0.9


def test_sim_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "steps": 10,
                "group_size": 4,
                "lr": 0.05,
                "seed": 3,
                "weights": {"lambda_va": 2.0},
                "samples": "builtin:grpo_samples.jsonl",
            }
        )
    )
    cfg = SimConfig.from_file(path)
    assert cfg.steps == 10 and cfg.group_size == 4 and cfg.lr == 0.05 and cfg.seed == 3
    assert cfg.weights.lambda_va == 2.0
    assert len(cfg.samples) >= 2
    with pytest.raises(ToolkitError):
        SimConfig.from_file(tmp_path / "missing.json")


def test_config_record_round_trips(tmp_path):
    # the trace's config record, loaded back as a config, gives the same snapshot:
    # every key the snapshot writes is accepted and parsed into the same value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"steps": 3, "group_size": 4, "lr": 0.05, "seed": 2, "weights": {"lambda_ocr": 0.5, "lambda_va": 2.0}}
        )
    )
    trace = train(SimConfig.from_file(cfg))
    trace.write_jsonl(tmp_path / "trace.jsonl")
    record = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[0])
    again = tmp_path / "again.json"
    again.write_text(json.dumps(record["config"]))
    assert SimConfig.from_file(again).snapshot() == record["config"] == trace.config


def test_trace_files(tmp_path, fixture_samples):
    trace = train(SimConfig(steps=25, seed=2, samples=fixture_samples))
    out = tmp_path / "trace.jsonl"
    trace.write_jsonl(out)
    trace.write_csv(tmp_path / "trace.csv")
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["record"] == "config" and header["seed"] == 2
    assert len(lines) == 26
    csv_lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert csv_lines[0].startswith("step,mean_reward,expected_reward")
    assert len(csv_lines) == 26


@pytest.mark.parametrize("rewards", [[1e308, 1e308, 0.0], [1e200, 0.0]])
def test_group_advantages_overflow_is_numerical_error(rewards, recwarn):
    with pytest.raises(ToolkitError) as exc:
        group_advantages(rewards)
    assert exc.value.code == "numerical"
    assert not recwarn.list
