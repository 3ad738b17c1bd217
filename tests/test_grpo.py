from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import statistics
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import train_reference
from vapokit import grpo
from vapokit.bench import TemplateGenerator, generate_slide_text
from vapokit.data import Sample, builtin_path, read_samples, resolve_data_path, write_jsonl
from vapokit.errors import ToolkitError
from vapokit.grpo import (
    ALL_TUPLES,
    GRADES,
    OPTIMAL_TUPLE,
    REWARD_COLUMNS,
    BehaviorTuple,
    SimConfig,
    TraceStep,
    expected_grades,
    group_advantages,
    policy_step,
    render,
    reward_matrix,
    train,
)
from vapokit.metrics import EntityRef
from vapokit.rewards import RewardBreakdown, RewardWeights, total_reward


def test_tuple_grid_is_54():
    assert len(ALL_TUPLES) == len(set(ALL_TUPLES)) == 54
    assert OPTIMAL_TUPLE in ALL_TUPLES


def test_policy_probs_normalize():
    # logits far apart leave no exp overflowing: the largest is subtracted first
    rng = random.Random(0)
    for _ in range(4):
        probs = grpo._softmax([rng.gauss(0, 50) for _ in ALL_TUPLES])
        assert abs(math.fsum(probs) - 1.0) < 1e-9
    assert grpo._softmax([1000.0, 0.0, 1000.0]) == [0.5, 0.0, 0.5]


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


def test_render_overlapping_and_repeated_entities():
    # "a b" occurs twice and overlaps "b c"; each entity's occurrences are
    # found on their own, so a dropped "b c" also breaks the first "a b"
    sample = Sample(id="ov", domain="d", lang="en", slide_text="p a b c q a b r s",
                    transcript_gt="t0 a b c t4 a b t7 t8 t9", entities=["a b", "b c"], audio_ref="a.wav")
    slide = "p a b c q a b r s"
    assert render(BehaviorTuple(True, 0.5, 1.0, 0.5), sample) == (
        "<think>p xq1z xq2z xq3z q xq5z xq6z r s</think><answer>t0 a xq2z xq3z t4 a b t7 t8 t9</answer>"
    )
    assert render(BehaviorTuple(True, 1.0, 1.0, 0.0), sample) == (
        f"<think>{slide}</think><answer>t0 xq1z xq2z xq3z t4 xq5z xq6z t7 t8 t9</answer>"
    )
    assert render(BehaviorTuple(True, 1.0, 0.5, 1.0), sample) == (
        f"<think>{slide}</think><answer>t0 xq1z xq2z xq3z t4 xq5z xq6z t7 t8 t9</answer>"
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


# sha256 of every rendering, one line per (sample, tuple), as render wrote
# them before it read a per-sample plan
RENDER_SHA256 = {
    "builtin:grpo_samples.jsonl": "b98518a0036e5e797b564cd2b468cfc50b0c741d101e8ecc78cab75b34fdb5f6",
    "golden/manifest.jsonl": "4393127deca010bcbdaf6a3af6e83ac38e7446f67ca2e41d393057661c7208fa",
}


@pytest.mark.parametrize("name", sorted(RENDER_SHA256))
def test_render_output_is_unchanged(name):
    path = resolve_data_path(name) if name.startswith("builtin:") else Path(__file__).parent / name
    digest = hashlib.sha256()
    for sample in read_samples(path):
        for tup in ALL_TUPLES:
            digest.update(render(tup, sample).encode("utf-8") + b"\n")
    assert digest.hexdigest() == RENDER_SHA256[name]


def test_render_plan_follows_the_sample_content():
    """The plan is keyed on the content, not the id: a changed transcript or
    entity list under the same id renders anew."""
    sample = ten_token_sample()
    half_anchored = BehaviorTuple(True, 1.0, 1.0, 0.5)  # drops the trailing entity
    assert render(half_anchored, sample).endswith("<answer>u1 u2 u3 u4 aspirin u6 u7 xq7z u9 u10</answer>")
    sample.transcript_gt = sample.transcript_gt.replace("u1 ", "v1 ")
    assert render(half_anchored, sample).endswith("<answer>v1 u2 u3 u4 aspirin u6 u7 xq7z u9 u10</answer>")
    sample.entities = ["warfarin", "aspirin"]
    assert render(half_anchored, sample).endswith("<answer>v1 u2 u3 u4 xq4z u6 u7 warfarin u9 u10</answer>")


def test_render_empty_entity_wins_over_too_small():
    sample = Sample(id="tiny", domain="medicine", lang="en", slide_text="aspirin here",
                    transcript_gt="short aspirin", entities=["!!"], audio_ref="a.wav")
    with pytest.raises(ToolkitError) as exc:
        render(OPTIMAL_TUPLE, sample)
    assert exc.value.code == "empty-entity"


def test_reward_matrix_plans_each_sample_once(fixture_samples, monkeypatch):
    """Rendering the 54 tuples of a sample derives its entity tokens once;
    ``total_reward`` is stubbed out, so only render's lookups are counted."""
    grpo._render_plan.cache_clear()
    built = []
    from_surface = EntityRef.from_surface
    monkeypatch.setattr(EntityRef, "from_surface",
                        staticmethod(lambda surface: built.append(surface) or from_surface(surface)))
    monkeypatch.setattr(grpo, "total_reward", lambda sample, raw: RewardBreakdown(1, 1.0, 1.0, 1.0, 4.0))
    assert len(reward_matrix(fixture_samples)) == len(fixture_samples)
    assert built == [entity for sample in fixture_samples for entity in sample.entities]


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
    assert len(components) == len(fixture_samples)
    for si, sample in enumerate(fixture_samples):
        assert len(components[si]) == len(ALL_TUPLES)
        for k, tup in enumerate(ALL_TUPLES):
            fresh = total_reward(sample, render(tup, sample), weights)
            assert components[si][k] == tuple(getattr(fresh, c) for c in REWARD_COLUMNS)
            assert weights.weigh(*components[si][k]).hex() == fresh.total.hex()


@pytest.mark.parametrize("steps", [50, 500])
def test_train_scores_each_pair_once(fixture_samples, monkeypatch, steps):
    calls = []

    def counting_total_reward(*args, **kwargs):
        calls.append(1)
        return total_reward(*args, **kwargs)

    monkeypatch.setattr(grpo, "total_reward", counting_total_reward)
    train(SimConfig(steps=steps, seed=3))
    assert len(calls) == len(fixture_samples) * len(ALL_TUPLES)


# ---------------------------------------------------------------------------
# advantages and the update


def test_group_advantages_hand_values():
    got = group_advantages([1.0, 2.0, 3.0])
    expected = [-math.sqrt(1.5), 0.0, math.sqrt(1.5)]  # population std sqrt(2/3)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got[0] == pytest.approx(-1.2247, abs=1e-4)


def test_group_advantages_flat_group():
    assert group_advantages([5.0, 5.0, 5.0, 5.0]) == [0.0] * 4


def test_group_advantages_pair():
    assert group_advantages([0.0, 4.0]) == pytest.approx([-1.0, 1.0])


def test_group_advantages_degenerate():
    with pytest.raises(ToolkitError) as exc:
        group_advantages([1.0])
    assert exc.value.code == "degenerate-group"


def test_group_advantages_zero_mean_unit_var():
    rng = random.Random(6)
    for _ in range(200):
        r = [rng.uniform(0, 4) for _ in range(rng.randint(2, 11))]
        a = group_advantages(r)
        if statistics.pstdev(r) >= 1e-8:
            assert abs(statistics.fmean(a)) < 1e-6
            assert statistics.pstdev(a) == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    rows=st.integers(2, 120).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(0.0, 16.0), min_size=n, max_size=n) | st.floats(0.0, 16.0).map(lambda r: [r] * n),
            min_size=1,
            max_size=4,
        )
    )
)
def test_group_advantages_rows_sum_to_zero(rows):
    """Each group's advantages sum to zero, which lets ``train`` drop the
    gradient's ``-softmax(logits) * sum(advantages)`` term. The rounded mean is
    off by at most about n * eps * max|r|, which the n centered rewards carry n
    times, divided by the std; the n rounded quotients add at most about
    n * eps * sqrt(n). A flat row's advantages are exactly zero."""
    eps = sys.float_info.epsilon
    for row in rows:
        n, std = len(row), statistics.pstdev(row)
        total = abs(math.fsum(group_advantages(row)))
        if std < 1e-8:
            assert total == 0
        else:
            assert total <= n * eps * (math.sqrt(n) + n * max(map(abs, row)) / std)


def test_policy_step_zero_advantages_noop():
    logits = [-1 + 2 * i / (len(ALL_TUPLES) - 1) for i in range(len(ALL_TUPLES))]
    out = policy_step(logits, [3, 9, 11], [0.0] * 3, lr=0.1)
    assert out == logits and out is not logits


def test_policy_step_positive_advantage_increases_probability():
    logits = [0.0] * len(ALL_TUPLES)
    out = policy_step(logits, [7], [1.0], lr=0.1)
    assert grpo._softmax(out)[7] > grpo._softmax(logits)[7]


def test_policy_step_adds_lr_times_each_advantage_to_its_arm():
    # an arm dealt twice gets both advantages; the arms not dealt keep their logits
    logits = [0.5] * len(ALL_TUPLES)
    out = policy_step(logits, [7, 3, 7], [1.0, -1.5, 0.5], lr=0.3)
    assert out[7] == pytest.approx(0.5 + 0.3 * 1.5, abs=1e-15)
    assert out[3] == pytest.approx(0.5 - 0.3 * 1.5, abs=1e-15)
    assert [z for k, z in enumerate(out) if k not in (3, 7)] == [0.5] * (len(ALL_TUPLES) - 2)


def test_policy_step_rejects_nonfinite():
    with pytest.raises(ToolkitError) as exc:
        policy_step([0.0] * len(ALL_TUPLES), [1], [float("nan")], lr=0.1)
    assert exc.value.code == "numerical"


@pytest.mark.parametrize("lr, code", [(1e308, "numerical"), (0.0, "bad-config"), (-0.1, "bad-config")])
def test_policy_step_rejects_an_overflowing_or_non_positive_lr(lr, code, recwarn):
    with pytest.raises(ToolkitError) as exc:
        policy_step([0.0] * len(ALL_TUPLES), [1, 1], [1.0, 1.0], lr=lr)
    assert exc.value.code == code
    assert not recwarn.list


# ---------------------------------------------------------------------------
# training


def test_train_trace_shape_and_determinism():
    config = SimConfig(steps=120, seed=9)
    t1 = train(config)
    t2 = train(SimConfig(steps=120, seed=9))
    assert len(t1.steps) == 120
    assert t1.steps == t2.steps
    assert t1.final_logits == t2.final_logits


def test_train_first_draws_of_seed_0(monkeypatch):
    """Each step draws its sample index, then its group, all with
    ``Random.random()``, whose sequence Python keeps for a given seed; these
    literals pin the first three steps of seed 0. Each table entry names its
    sample, so a step's mean_format is its sample index."""
    monkeypatch.setattr(grpo, "reward_matrix", lambda samples: [
        [(si, k, 0.0, 0.0) for k in range(len(ALL_TUPLES))] for si in range(len(samples))
    ])
    dealt = []

    def recording_policy_step(logits, indices, advantages, lr):
        dealt.extend(indices)
        return policy_step(logits, indices, advantages, lr)

    monkeypatch.setattr(grpo, "policy_step", recording_policy_step)
    trace = train(SimConfig(steps=3, group_size=8, seed=0))
    assert [step.mean_format for step in trace.steps] == [2.0, 1.0, 2.0]
    assert dealt == [15, 28, 16, 18, 41, 43, 9, 4, 1, 8, 48, 2, 23, 6, 19, 34, 30, 7, 51, 0, 45, 27, 5, 49]


_WEIGHT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 4.0)


@pytest.fixture
def cached_reward_matrix(monkeypatch, fixture_samples, components):
    """Patch ``grpo.reward_matrix`` to return the module's table, so each
    example trains without rendering and scoring the 162 pairs again."""

    def cached(samples):
        assert samples == fixture_samples
        return components

    monkeypatch.setattr(grpo, "reward_matrix", cached)


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    steps=st.integers(1, 300),
    group_size=st.integers(2, 120),
    seed=st.integers(0, 2**32 - 1),
    lr=st.floats(1e-3, 5.0),
    weights=st.tuples(_WEIGHT, _WEIGHT, _WEIGHT, _WEIGHT),
)
@example(steps=4, group_size=27, seed=5, lr=0.1, weights=(1.0, 1.0, 1.0, 1.0))  # cycles end where steps end
@example(steps=2000, group_size=8, seed=0, lr=0.1, weights=(1.0, 1.0, 1.0, 1.0))  # the shipped config
@example(steps=2000, group_size=8, seed=4, lr=0.1, weights=(1.0, 1.0, 1.0, 2.0))  # an acceptance ablation
def test_train_matches_the_per_step_reference(fixture_samples, cached_reward_matrix,
                                              steps, group_size, seed, lr, weights):
    # The mean columns add the same table rows in the same order, so they are
    # bit-equal. The reference also applies the gradient's zero-sum term
    # -softmax(logits) * sum(advantages), which train drops: it is zero up to
    # rounding, so the logits and the columns computed from them agree within
    # a bound.
    config = SimConfig(steps=steps, group_size=group_size, lr=lr, seed=seed,
                       weights=RewardWeights(*weights))
    trace = train(config)
    expected, logits = train_reference(config)
    assert len(trace.steps) == len(expected)
    exact = ("mean_reward", "mean_format", "mean_ocr", "mean_asr", "mean_va")
    for got, want in zip(trace.steps, expected):
        assert got.step == want["step"]
        assert {k: getattr(got, k).hex() for k in exact} == {k: want[k].hex() for k in exact}
        assert abs(got.p_optimal - want["p_optimal"]) <= 1e-11
        assert abs(got.expected_reward - want["expected_reward"]) <= 1e-11
    worst = max(abs(got - want) for got, want in zip(trace.final_logits, logits))
    assert worst <= 1e-12 * max(1.0, *map(abs, logits))


def _train_with_a_softmax_per_step(config: SimConfig):
    """``train``'s loop with a fresh ``_softmax`` of the logits each step and the
    expected reward summed from its probabilities, as ``train`` computed them
    before it kept the exponentials across steps. Returns the trace rows, the
    final logits and the number of steps in which the largest logit fell."""
    samples = read_samples(resolve_data_path(config.samples))
    table = [[(*row, config.weights.weigh(*row)) for row in rows] for rows in grpo.reward_matrix(samples)]
    rng = random.Random(config.seed)
    deals = grpo._balanced_deals(rng, len(table[0]))
    optimum = ALL_TUPLES.index(OPTIMAL_TUPLE)
    logits, steps, falls = [0.0] * len(table[0]), [], 0
    for step in range(config.steps):
        rows = table[int(rng.random() * len(table))]
        indices = list(itertools.islice(deals, config.group_size))
        group = [rows[k] for k in indices]
        new = policy_step(logits, indices, group_advantages([row[-1] for row in group]), config.lr)
        falls += max(new) < max(logits)
        logits = new
        probs = grpo._softmax(logits)
        r_format, r_ocr, r_asr, r_va, total = (math.fsum(column) / len(group) for column in zip(*group))
        expected = math.fsum(p * row[-1] for p, row in zip(probs, rows))
        steps.append(TraceStep(step, total, expected, r_format, r_ocr, r_asr, r_va, probs[optimum]))
    return steps, logits, falls


def _random_table(seed: int, samples: int) -> list[list[tuple]]:
    """A reward table of random components, one row per sample and one tuple
    per arm: an arm's reward changes with the sample, so the leading arm's
    logit falls whenever it is dealt into a group that outscores it."""
    rng = random.Random(seed)
    return [[tuple(rng.random() for _ in REWARD_COLUMNS) for _ in ALL_TUPLES] for _ in range(samples)]


def _assert_train_is_bit_equal_to_a_softmax_per_step(config: SimConfig) -> int:
    trace = train(config)
    steps, logits, falls = _train_with_a_softmax_per_step(config)
    assert [[value.hex() for value in row[1:]] for row in trace.steps] == \
        [[value.hex() for value in row[1:]] for row in steps]
    assert [step.step for step in trace.steps] == list(range(config.steps))
    assert [z.hex() for z in trace.final_logits] == [z.hex() for z in logits]
    return falls


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    table_seed=st.none() | st.integers(0, 2**32 - 1),
    table_samples=st.integers(1, 4),
    steps=st.integers(1, 300),
    group_size=st.integers(2, 120),
    seed=st.integers(0, 2**32 - 1),
    lr=st.floats(1e-3, 40.0),
    weights=st.tuples(_WEIGHT, _WEIGHT, _WEIGHT, _WEIGHT),
)
@example(table_seed=None, table_samples=1, steps=2000, group_size=8, seed=0, lr=0.1,
         weights=(1.0, 1.0, 1.0, 1.0))  # the shipped config
def test_train_is_bit_equal_to_a_softmax_per_step(monkeypatch, components, table_seed, table_samples,
                                                  steps, group_size, seed, lr, weights):
    """Keeping each arm's exponential across steps and refreshing the dealt
    ones, or all of them when the max moves, reproduces every trace bit of a
    fresh softmax per step. ``table_seed`` None is the builtin samples' table;
    otherwise the table is random, so the max logit also falls."""
    table = components if table_seed is None else _random_table(table_seed, table_samples)
    monkeypatch.setattr(grpo, "reward_matrix", lambda samples: table)
    _assert_train_is_bit_equal_to_a_softmax_per_step(
        SimConfig(steps=steps, group_size=group_size, lr=lr, seed=seed, weights=RewardWeights(*weights)))


@pytest.mark.parametrize("random_table", [False, True], ids=["builtin", "random"])
def test_the_max_logit_falls_only_on_the_random_table(monkeypatch, components, random_table):
    """On the builtin samples the optimum leads every sample, so the largest
    logit never falls and a cache rebased only when the max rises would pass;
    the random table makes it fall, so the exactness test above sees both."""
    table = _random_table(7, 3) if random_table else components
    monkeypatch.setattr(grpo, "reward_matrix", lambda samples: table)
    falls = _assert_train_is_bit_equal_to_a_softmax_per_step(SimConfig(steps=300, seed=1, lr=5.0))
    assert (falls > 0) == random_table


def test_train_rejects_bad_config():
    with pytest.raises(ToolkitError):
        train(SimConfig(steps=0))
    with pytest.raises(ToolkitError):
        train(SimConfig(group_size=1))
    with pytest.raises(ToolkitError):
        train(SimConfig(lr=0.0))


def test_train_expected_reward_nondecreasing_windows(balanced_runs):
    for trace, _elapsed in balanced_runs:
        values = [s.expected_reward for s in trace.steps]
        windows = [
            sum(values[i : i + 100]) / 100 for i in range(0, len(values), 100)
        ]
        for prev, cur in zip(windows, windows[1:]):
            assert cur >= prev - 0.05
        assert windows[-1] > windows[0]


def test_train_asr_only_weights_prefer_intact_answers():
    # with weights (0,0,1,0) the argmax set is {format-true, any ocr grade,
    # asr=1, anchor=1}: a broken format still zeroes the extracted answer, and
    # a degraded anchor corrupts answer tokens
    trace = train(
        SimConfig(steps=800, seed=0, weights=RewardWeights(0.0, 0.0, 1.0, 0.0))
    )
    grades = expected_grades(trace.final_logits)
    assert grades["format_rate"] > 0.95
    assert grades["asr_level"] > 0.95
    assert grades["anchor_level"] > 0.95
    probs = grpo._softmax(trace.final_logits)
    tied = [
        i
        for i, t in enumerate(ALL_TUPLES)
        if t.format_ok and t.asr_level == 1.0 and t.anchor_level == 1.0
    ]
    assert math.fsum(probs[i] for i in tied) > 0.9


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
    assert cfg == SimConfig(steps=10, group_size=4, lr=0.05, seed=3, weights=RewardWeights(lambda_va=2.0))
    # the samples file is named, not read: train reads it
    missing = str(tmp_path / "missing.jsonl")
    path.write_text(json.dumps({"samples": missing}))
    cfg = SimConfig.from_file(path)
    assert cfg.samples == missing
    with pytest.raises(ToolkitError) as exc:
        train(cfg)
    assert exc.value.code == "manifest-parse"
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
    trace.write(tmp_path / "trace.jsonl", tmp_path / "trace.csv")
    record = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[0])
    again = tmp_path / "again.json"
    again.write_text(json.dumps(record["config"]))
    assert SimConfig.from_file(again).snapshot() == record["config"] == trace.config


def test_config_record_replays_a_library_run(tmp_path):
    # a run on a samples file of its own records that file, so the trace's
    # config record, loaded back as a config, trains the same run
    samples = tmp_path / "reversed.jsonl"
    write_jsonl(samples, [s.to_dict() for s in read_samples(builtin_path("grpo_samples.jsonl"))[::-1]])
    trace = train(SimConfig(steps=50, samples=str(samples)))
    trace.write(tmp_path / "trace.jsonl", tmp_path / "trace.csv")
    record = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[0])
    assert record["config"]["samples"] == str(samples)
    again = tmp_path / "again.json"
    again.write_text(json.dumps(record["config"]))
    replay = train(SimConfig.from_file(again))
    assert replay.steps == trace.steps
    assert replay.final_logits == trace.final_logits


def test_trace_files(tmp_path):
    trace = train(SimConfig(steps=25, seed=2))
    out = tmp_path / "trace.jsonl"
    trace.write(out, tmp_path / "trace.csv")
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["record"] == "config" and header["seed"] == 2
    assert len(lines) == 26
    csv_lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert csv_lines[0].startswith("step,mean_reward,expected_reward")
    assert len(csv_lines) == 26


@pytest.mark.parametrize("rewards", [[1e308, 1e308, 0.0], [1e200, 0.0], [0.0, 1e200], [1e308, 1e308]])
def test_group_advantages_overflow_is_numerical_error(rewards, recwarn):
    with pytest.raises(ToolkitError) as exc:
        group_advantages(rewards)
    assert exc.value.code == "numerical"
    assert not recwarn.list
