"""Acceptance suite: one test per release criterion, with a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Heavy policy-optimization runs are shared session fixtures.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

import numpy as np
import pytest

from oracles import levenshtein_recursive, reference_well_formed, rollout_soup, tag_soup
from vapokit.bench import build_dataset, read_seed_records, validate_manifest
from vapokit.cli import main
from vapokit.data import Hypothesis, Sample, builtin_path, write_jsonl
from vapokit.grpo import (
    NUM_TUPLES,
    expected_grades,
    group_advantages,
    surrogate_gradient,
    surrogate_objective,
)
from vapokit.metrics import align, aggregate_reports, sample_report
from vapokit.ocr_behavior import detect_all, summarize
from vapokit.rewards import RewardWeights, asr_reward, total_reward
from vapokit.structured import parse_structured


def _report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------


def test_criterion_alignment_oracle():
    """10^4 random pairs (len <= 6, alphabet 4): DP cost == oracle minimum, < 10 s."""
    rng = random.Random(100)
    alphabet = ["a", "b", "c", "d"]
    start = time.perf_counter()
    mismatches = 0
    for _ in range(10_000):
        ref = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        hyp = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        if align(ref, hyp).errors != levenshtein_recursive(ref, hyp):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        "alignment oracle equivalence (10^4 pairs)",
        mismatches == 0 and elapsed < 10.0,
        f"mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_criterion_reward_fuzz():
    """10^5 arbitrary rollouts: bounds hold and total is the exact weighted sum, < 30 s."""
    sample = Sample(
        id="fz",
        domain="medicine",
        lang="en",
        slide_text="slide talk covers aspirin and warfarin in ten short tokens",
        transcript_gt="talk sample mentions aspirin and warfarin twice for everyone today",
        entities=["aspirin", "warfarin"],
        audio_ref="audio/fz.wav",
    )
    weights = RewardWeights(1.0, 0.5, 2.0, 0.25)
    rng = random.Random(101)
    start = time.perf_counter()
    violations = 0
    for _ in range(100_000):
        b = total_reward(sample, rollout_soup(rng), weights)
        expected_total = (
            weights.lambda_format * b.r_format
            + weights.lambda_ocr * b.r_ocr
            + weights.lambda_asr * b.r_asr
            + weights.lambda_va * b.r_va
        )
        if not (
            b.r_format in (0, 1)
            and 0.0 <= b.r_ocr <= 1.0
            and 0.0 <= b.r_asr <= 1.0
            and 0.0 <= b.r_va <= 1.0
            and b.total == expected_total
            and 0.0 <= b.total <= weights.total
        ):
            violations += 1
    elapsed = time.perf_counter() - start
    _report(
        "reward definitions fuzz (10^5 rollouts)",
        violations == 0 and elapsed < 30.0,
        f"violations={violations}, {elapsed:.1f}s",
    )


def test_criterion_clipping():
    """Constructed WER {0, 0.5, 1.0, 1.5, 3.0} -> rewards {1, 0.5, 0, 0, 0} exactly."""
    cases = [
        ("a b c d", "a b c d", 1.0),  # WER 0
        ("a b c d", "a b x y", 0.5),  # 2 subs / 4
        ("a b c d", "x y z w", 0.0),  # WER 1.0
        ("a b c d", "x y z w v u", 0.0),  # 4 subs + 2 ins = WER 1.5
        ("a", "x y z", 0.0),  # WER 3.0
    ]
    ok = True
    for ref, hyp, expected in cases:
        got = asr_reward(hyp, ref)
        ok = ok and got == expected
    _report("clipping of error-rate rewards", ok)


def test_criterion_format_grammar():
    """10^5 generated tag soups: parser agrees with the reference recognizer."""
    rng = random.Random(102)
    disagreements = 0
    for _ in range(100_000):
        raw = tag_soup(rng)
        if parse_structured(raw).well_formed != reference_well_formed(raw):
            disagreements += 1
    _report(
        "format grammar fuzz (10^5 soups)",
        disagreements == 0,
        f"disagreements={disagreements}",
    )


def test_criterion_detector():
    """Mock-OCR model -> 100%; faithful model -> 0%; 1-of-4 -> exactly 25%."""
    samples = [
        Sample(
            id=f"d{i}",
            domain="general",
            lang="en",
            slide_text=f"slideonly{i} shared{i} bullet{i}",
            transcript_gt=f"shared{i} spoken{i} sentence{i} here",
            entities=[],
            audio_ref=f"audio/d{i}.wav",
        )
        for i in range(4)
    ]
    ocr_model = [Hypothesis(id=s.id, text=s.slide_text) for s in samples]
    faithful = [Hypothesis(id=s.id, text=s.transcript_gt) for s in samples]
    mixed = faithful[:3] + [ocr_model[3]]
    r100, r0, r25 = (
        summarize(detect_all(samples, outputs))["rate_percent"] for outputs in (ocr_model, faithful, mixed)
    )
    _report(
        "slide-copy detector rates",
        (r100, r0, r25) == (100.0, 0.0, 25.0),
        f"{r100}/{r0}/{r25}",
    )


def test_criterion_grpo_convergence(balanced_runs):
    """Seeds 0..4: final mass on the optimal tuple >= 0.9 within 2000 steps, < 60 s each."""
    finals = [trace.final.p_optimal for trace, _ in balanced_runs]
    times = [elapsed for _, elapsed in balanced_runs]
    ok = all(p >= 0.9 for p in finals) and all(t < 60.0 for t in times)
    _report(
        "policy optimization convergence (5 seeds)",
        ok,
        "p_opt=" + ",".join(f"{p:.4f}" for p in finals) + f"; max {max(times):.1f}s",
    )


def test_criterion_gradient_check():
    """Surrogate gradient matches central differences within 1e-4 on all 54 params."""
    rng = np.random.default_rng(103)
    logits = rng.normal(0.0, 0.5, NUM_TUPLES)
    indices = [int(k) for k in rng.integers(NUM_TUPLES, size=8)]
    advantages = group_advantages(rng.uniform(0.0, 4.0, size=8))
    analytic = surrogate_gradient(logits, indices, advantages)
    h = 1e-3
    worst = 0.0
    for j in range(NUM_TUPLES):
        lp = logits.copy()
        lp[j] += h
        lm = logits.copy()
        lm[j] -= h
        numeric = (
            surrogate_objective(lp, indices, advantages)
            - surrogate_objective(lm, indices, advantages)
        ) / (2 * h)
        worst = max(worst, abs(analytic[j] - numeric) / max(abs(analytic[j]), abs(numeric), 1e-6))
    _report("policy gradient finite-difference check", worst < 1e-4, f"worst rel err {worst:.2e}")


def test_criterion_ablation_direction(balanced_runs, va_doubled_runs, asr_doubled_runs):
    """Doubling the anchoring weight raises converged anchoring; doubling the
    ASR weight does not raise converged OCR beyond noise (0.05), 5 seeds each."""
    anchor_balanced = float(
        np.mean([expected_grades(t.final_policy)["anchor_level"] for t, _ in balanced_runs])
    )
    anchor_va2 = float(
        np.mean([expected_grades(t.final_policy)["anchor_level"] for t, _ in va_doubled_runs])
    )
    ocr_balanced = float(
        np.mean([expected_grades(t.final_policy)["ocr_level"] for t, _ in balanced_runs])
    )
    ocr_asr2 = float(
        np.mean([expected_grades(t.final_policy)["ocr_level"] for t, _ in asr_doubled_runs])
    )
    ok = anchor_va2 >= anchor_balanced and ocr_asr2 <= ocr_balanced + 0.05
    _report(
        "reward-weight ablation direction",
        ok,
        f"anchor {anchor_va2:.6f} vs {anchor_balanced:.6f}; ocr {ocr_asr2:.6f} vs {ocr_balanced:.6f}",
    )


def _tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_criterion_builder(tmp_path):
    """Bundled 60-seed set builds samples=60 / entities=200, byte-identical on
    rebuild, and validates with zero violations."""
    seeds = read_seed_records(builtin_path("seeds_60.jsonl"))
    m1 = build_dataset(seeds, tmp_path / "one")
    m2 = build_dataset(seeds, tmp_path / "two")
    report = validate_manifest(tmp_path / "one" / "manifest.jsonl")
    identical = _tree_digest(tmp_path / "one") == _tree_digest(tmp_path / "two")
    ok = (
        m1["samples"] == 60
        and m1["entities"] == 200
        and m2["samples"] == 60
        and identical
        and report.ok
    )
    _report(
        "benchmark builder counts/rebuild/validation",
        ok,
        f"samples={m1['samples']} entities={m1['entities']} identical={identical} violations={len(report.violations)}",
    )


# ---------------------------------------------------------------------------
# metric cross-check corpus with planted errors


def _planted_corpus():
    """20 samples with planted errors and independent expected tallies."""
    samples: list[Sample] = []
    hyps: list[str] = []
    tally = {
        "errors": 0,
        "ref": 0,
        "kw_err": 0,
        "kw_tok": 0,
        "u_err": 0,
        "u_tok": 0,
        "recalled": 0,
        "occurrences": 0,
        "ne_err": 0,
        "ne_tok": 0,
        "found": 0,
        "total_entities": 0,
    }
    for i in range(20):
        e1 = f"drugone{i}"
        e2a, e2b = f"alpha{i}", f"beta{i}"
        tokens = [
            f"intro{i}", f"start{i}", f"talks{i}", e1, f"middle{i}", f"more{i}",
            e2a, e2b, f"tail{i}", f"words{i}", f"close{i}", f"end{i}",
        ]
        sample = Sample(
            id=f"x{i:02d}",
            domain="medicine",
            lang="en",
            slide_text="slide " + " ".join(tokens),
            transcript_gt=" ".join(tokens),
            entities=[e1, f"{e2a} {e2b}"],
            audio_ref=f"audio/x{i:02d}.wav",
        )
        hyp = list(tokens)
        planted_errors = 0
        kw_err = u_err = 0
        recalled, found, ne_err = 2, 2, 0
        pattern = i % 5
        if pattern == 1:  # substitution on a plain token
            hyp[1] = f"qzk{i}a"
            planted_errors, u_err = 1, 1
        elif pattern == 2:  # substitution on the single-token entity
            hyp[3] = f"qzk{i}b"
            planted_errors, kw_err = 1, 1
            recalled, found, ne_err = 1, 1, 1
        elif pattern == 3:  # deletion + insertion on plain tokens
            del hyp[8]
            hyp.insert(10, f"qzk{i}c")  # after close{i}
            planted_errors, u_err = 2, 2
        elif pattern == 4:  # corrupt one token of the two-token entity
            hyp[6] = f"qzk{i}d"
            planted_errors, kw_err = 1, 1
            recalled, found, ne_err = 1, 1, 2
        samples.append(sample)
        hyps.append(" ".join(hyp))
        tally["errors"] += planted_errors
        tally["ref"] += len(tokens)
        tally["kw_err"] += kw_err
        tally["kw_tok"] += 3
        tally["u_err"] += u_err
        tally["u_tok"] += len(tokens) - 3
        tally["recalled"] += recalled
        tally["occurrences"] += 2
        tally["ne_err"] += ne_err
        tally["ne_tok"] += 3
        tally["found"] += found
        tally["total_entities"] += 2
    return samples, hyps, tally


def test_criterion_metric_crosscheck():
    """20-sample corpus with planted errors reproduces the hand-computed
    aggregates to 4 decimal places; per-sample costs confirmed by the oracle."""
    samples, hyps, tally = _planted_corpus()
    reports = []
    for sample, hyp, expected_cost in zip(
        samples, hyps, [0, 1, 1, 2, 1] * 4
    ):
        ref_tokens = tuple(sample.transcript_gt.split())
        hyp_tokens = tuple(hyp.split())
        assert levenshtein_recursive(ref_tokens, hyp_tokens) == expected_cost
        reports.append(sample_report(sample, hyp))
    agg = aggregate_reports(reports)
    expected = {
        "wer": tally["errors"] / tally["ref"],
        "b_wer": tally["kw_err"] / tally["kw_tok"],
        "u_wer": tally["u_err"] / tally["u_tok"],
        "recall": tally["recalled"] / tally["occurrences"],
        "ne_wer": tally["ne_err"] / tally["ne_tok"],
        "ne_fnr": 1.0 - tally["found"] / tally["total_entities"],
    }
    got = agg.as_dict()
    deltas = {k: abs(got[k] - v) for k, v in expected.items()}
    ok = all(d <= 1e-4 for d in deltas.values())
    _report(
        "metric cross-check on planted corpus",
        ok,
        " ".join(f"{k}={got[k]:.4f}" for k in expected),
    )


def test_criterion_end_to_end_determinism(tmp_path):
    """simulate, build, and score produce bit-identical outputs across runs."""
    # simulate
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"steps": 200, "seed": 0}))
    sim_digests = []
    for run in ("a", "b"):
        out = tmp_path / f"trace_{run}.jsonl"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        sim_digests.append(
            hashlib.sha256(out.read_bytes() + out.with_suffix(".csv").read_bytes()).hexdigest()
        )
    # build
    build_digests = []
    for run in ("a", "b"):
        outdir = tmp_path / f"built_{run}"
        assert main(
            ["build", "--seeds", str(builtin_path("seeds_60.jsonl")), "--outdir", str(outdir)]
        ) == 0
        build_digests.append(_tree_digest(outdir))
    # score
    samples, hyps, _ = _planted_corpus()
    dataset = tmp_path / "dataset.jsonl"
    write_jsonl(dataset, [s.to_dict() for s in samples])
    hyp_path = tmp_path / "hyp.jsonl"
    write_jsonl(hyp_path, [{"id": s.id, "text": h} for s, h in zip(samples, hyps)])
    score_digests = []
    for run in ("a", "b"):
        out = tmp_path / f"score_{run}.json"
        assert main(
            ["score", "--dataset", str(dataset), "--hyp", str(hyp_path), "--out", str(out)]
        ) == 0
        score_digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    ok = (
        sim_digests[0] == sim_digests[1]
        and build_digests[0] == build_digests[1]
        and score_digests[0] == score_digests[1]
    )
    _report("end-to-end determinism (simulate/build/score)", ok)
