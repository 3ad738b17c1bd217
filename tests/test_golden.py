"""Byte-identity of the CLI outputs on a small committed fixture.

``tests/golden/seeds.jsonl`` is the bundled ``seeds_5`` plus one Chinese
record whose entities are one, two and three Han characters long. Its build
output (``manifest.jsonl``, ``stats.json``) is the dataset that ``score``,
``reward`` and ``detect`` read, with the fixed hypotheses in ``hyp.jsonl``
and rollouts in ``rollouts.jsonl``. They hold one-character typos in
single-word entities (found), multi-word entities hit and missed, a
two-edit single-word miss, slide-only words (flagged by ``detect``), a
malformed rollout, a slide-copy rollout and a Chinese line.

The expected files were written by the CLI itself, from the repository root:

    PYTHONPATH=src python -m vapokit.cli score --dataset tests/golden/manifest.jsonl \
        --hyp tests/golden/hyp.jsonl --out tests/golden/score.json

and likewise for ``reward --rollouts``, ``detect --hyp`` and ``build --seeds``.
``simulate_trace.jsonl`` and ``simulate_trace.csv`` come from a 60-step run of
the builtin samples at seed 0:

    PYTHONPATH=src python -m vapokit.cli simulate --config tests/golden/simulate.json \
        --out tests/golden/simulate_trace.jsonl

A change that alters one of them changes a result; say what and why before
regenerating.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from vapokit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DATASET = str(GOLDEN / "manifest.jsonl")


@pytest.mark.parametrize(
    "command, inputs",
    [
        ("score", ["--hyp", str(GOLDEN / "hyp.jsonl")]),
        ("reward", ["--rollouts", str(GOLDEN / "rollouts.jsonl")]),
        ("detect", ["--hyp", str(GOLDEN / "hyp.jsonl")]),
    ],
)
def test_golden_output(command, inputs, tmp_path):
    out = tmp_path / f"{command}.json"
    assert main([command, "--dataset", DATASET, *inputs, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{command}.json").read_bytes()


def test_golden_build(tmp_path, capsys):
    assert main(["build", "--seeds", str(GOLDEN / "seeds.jsonl"), "--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == '{"samples": 6, "entities": 23, "hours": 0.03666666666666667}\n'
    for name in ("manifest.jsonl", "stats.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_golden_simulate(tmp_path, capsys):
    out = tmp_path / "simulate_trace.jsonl"
    assert main(["simulate", "--config", str(GOLDEN / "simulate.json"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == '{"steps": 60, "p_optimal": 0.07044549581819541}\n'
    for name in ("simulate_trace.jsonl", "simulate_trace.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
