from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from vapokit.data import Sample, builtin_path, read_samples
from vapokit.grpo import SimConfig, train
from vapokit.rewards import RewardWeights


@pytest.fixture(scope="session")
def fixture_samples() -> list[Sample]:
    return read_samples(builtin_path("grpo_samples.jsonl"))


def _sweep(weights):
    runs = []
    for seed in range(5):
        start = time.perf_counter()
        trace = train(SimConfig(seed=seed, weights=weights))
        runs.append((trace, time.perf_counter() - start))
    return runs


@pytest.fixture(scope="session")
def balanced_runs():
    """(trace, elapsed_s) for seeds 0..4 with weights 1:1:1:1."""
    return _sweep(RewardWeights())


@pytest.fixture(scope="session")
def va_doubled_runs():
    return _sweep(RewardWeights(lambda_va=2.0))


@pytest.fixture(scope="session")
def asr_doubled_runs():
    return _sweep(RewardWeights(lambda_asr=2.0))


@pytest.fixture
def sample_en() -> Sample:
    return Sample(
        id="s1",
        domain="medicine",
        lang="en",
        slide_text="Medicine Overview\nKey topics include aspirin and ibuprofen for pain management today.",
        transcript_gt="today we discuss aspirin and ibuprofen for routine pain management in clinics",
        entities=["aspirin", "ibuprofen"],
        audio_ref="audio/s1.wav",
    )
