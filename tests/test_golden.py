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
The slides that build writes and the ``report`` tables of the three outputs
(markdown and TSV) are pinned by their sha256.
``simulate_trace.jsonl`` and ``simulate_trace.csv`` come from a 60-step run of
the builtin samples at seed 0:

    PYTHONPATH=src python -m vapokit.cli simulate --config tests/golden/simulate.json \
        --out tests/golden/simulate_trace.jsonl

The benchmark's own ``simulate`` run, the shipped ``simulate_default.json``
(2000 steps) at seed 0, is pinned by the sha256 of its two trace files, both
in-process and from a fresh ``python -m vapokit.cli``. The benchmark's
``eval-long-mixed`` and ``eval-short-en`` outputs at seed 0, from inputs made
by ``bench/corpus.py``, are checked against ``bench/golden.json``.

A change that alters one of them changes a result; say what and why before
regenerating.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vapokit.cli import main
from vapokit.data import builtin_path

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


# sha256 of ``vapokit report --in tests/golden/<command>.json --format <fmt>``'s stdout.
REPORT_SHA256 = {
    ("score", "md"): "059fe9b7ab4098acc697844f0119a06fbf2d96597f66960a3acdd5e376e44c65",
    ("score", "tsv"): "49e8d4a9a60fde2e1979be580b533597d5aa58076e3f40c01d4d49734608bbc0",
    ("reward", "md"): "1b23580cc32c191a25746c77256248318c92866eaf85a5b02bf00b96d38250b5",
    ("reward", "tsv"): "881e2eec65145e6f1b4485da47ec9cee20b3bdc9b94a0a109457e49f9f89d91b",
    ("detect", "md"): "9e59dc5c651883668d8cb96da9c5e1406ee12625089f4290491e2af41a47dc45",
    ("detect", "tsv"): "c4426b3a02be0ca0d822b09c39eddf12269be8d68deb71a77d9ef73e1fb38557",
}


@pytest.mark.parametrize("command, fmt", list(REPORT_SHA256))
def test_golden_report(command, fmt, capsys):
    assert main(["report", "--in", str(GOLDEN / f"{command}.json"), "--format", fmt]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == REPORT_SHA256[command, fmt]


# sha256 of the built slides/*.svg, concatenated in name order.
SLIDES_SHA256 = "24b1edd0df02308a4b776e23931bbed20cd6a3cb884731c0a3966604f0f36a1c"


def test_golden_build(tmp_path, capsys):
    assert main(["build", "--seeds", str(GOLDEN / "seeds.jsonl"), "--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == '{"samples": 6, "entities": 23, "hours": 0.03666666666666667}\n'
    for name in ("manifest.jsonl", "stats.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
    slides = sorted((tmp_path / "slides").iterdir())
    assert [p.name for p in slides] == [f"chem-00{i}.svg" for i in range(5)] + ["zh-000.svg"]
    assert hashlib.sha256(b"".join(p.read_bytes() for p in slides)).hexdigest() == SLIDES_SHA256


def test_golden_simulate(tmp_path, capsys):
    out = tmp_path / "simulate_trace.jsonl"
    assert main(["simulate", "--config", str(GOLDEN / "simulate.json"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == '{"steps": 60, "p_optimal": 0.07168234236583221}\n'
    for name in ("simulate_trace.jsonl", "simulate_trace.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


SHIPPED_SIMULATE_SHA256 = {
    "trace.jsonl": "11cf07c9b8745270d4a7300d834db869a4f0164d2e8ed23014d1a57df9af0422",
    "trace.csv": "fa1c668b342ffcb7ce5c0d62f576798f350d057bfc0626c574dec92cb5bbcbd2",
}


def test_golden_simulate_shipped_config(tmp_path, capsys):
    config = str(builtin_path("simulate_default.json"))
    assert main(["simulate", "--config", config, "--seed", "0", "--out", str(tmp_path / "trace.jsonl")]) == 0
    assert capsys.readouterr().out == '{"steps": 2000, "p_optimal": 0.9956772411656688}\n'
    for name, digest in SHIPPED_SIMULATE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_golden_simulate_shipped_config_cli(tmp_path):
    """A fresh process writes the same traces as the in-process run."""
    env = dict(os.environ, PYTHONPATH=str(GOLDEN.parent.parent / "src"))
    config = str(builtin_path("simulate_default.json"))
    proc = subprocess.run(
        [sys.executable, "-m", "vapokit.cli", "simulate", "--config", config, "--seed", "0",
         "--out", str(tmp_path / "trace.jsonl")],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{"steps": 2000, "p_optimal": 0.9956772411656688}\n'
    for name, digest in SHIPPED_SIMULATE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


BENCH = GOLDEN.parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_inputs():
    """``bench/corpus.py`` and ``bench/checks.py``, which need only the standard library."""
    sys.path.insert(0, str(BENCH))
    try:
        import checks
        import corpus
    finally:
        sys.path.remove(str(BENCH))
    return corpus, checks


@pytest.mark.parametrize("workload", ["eval-long-mixed", "eval-short-en"])
def test_benchmark_seed_0_outputs_match_its_golden_digests(workload, bench_inputs, tmp_path):
    """The benchmark's seed-0 inputs, made by ``bench/corpus.py``, give the
    ``build``, ``score``, ``reward`` and ``detect`` digests of
    ``bench/golden.json``, so one drifted output byte fails here and not
    first in a benchmark run."""
    corpus, checks = bench_inputs
    corpus.write_jsonl(tmp_path / "seeds.jsonl", corpus.seed_records(workload, BENCH.parent))
    built = tmp_path / "built"
    assert main(["build", "--seeds", str(tmp_path / "seeds.jsonl"), "--outdir", str(built)]) == 0
    manifest = built / "manifest.jsonl"
    hyps, rollouts = corpus.hypotheses_and_rollouts(corpus.read_jsonl(manifest), workload, checks.DEFAULT_SEED)
    corpus.write_jsonl(tmp_path / "hyp.jsonl", hyps)
    corpus.write_jsonl(tmp_path / "rollouts.jsonl", rollouts)
    digests = {"build": checks.tree_digest(built)}
    for command, flag, source in (("score", "--hyp", "hyp"), ("reward", "--rollouts", "rollouts"),
                                  ("detect", "--hyp", "hyp")):
        out = tmp_path / f"{command}.json"
        argv = [command, "--dataset", str(manifest), flag, str(tmp_path / f"{source}.jsonl"), "--out", str(out)]
        assert main(argv) == 0
        digests[command] = checks.file_digest(out)
    assert digests == checks.golden_digests()[workload]
