"""Tests of the benchmark's own pieces: corpora, tracing and BENCHMARK.json.

    python3 -m pytest bench -q

Run from the repository root. The corpus tests build the real workloads with
the CLI, so they take a few seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import corpus
import run
from traced_cli import read_spans

ROOT = Path(__file__).resolve().parent.parent
EVAL_WORKLOADS = ("eval-short-en", "eval-long-mixed")


def vapokit(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "vapokit.cli", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module", params=EVAL_WORKLOADS)
def built(request, tmp_path_factory):
    """(workload, seed records, build output dir) for each eval workload."""
    work = tmp_path_factory.mktemp(request.param)
    seeds = corpus.seed_records(request.param, ROOT)
    corpus.write_jsonl(work / "seeds.jsonl", seeds)
    proc = vapokit("build", "--seeds", str(work / "seeds.jsonl"), "--outdir", str(work / "built"))
    assert proc.returncode == 0, proc.stderr
    return request.param, seeds, work / "built"


def test_build_rejects_no_record(built):
    workload, seeds, outdir = built
    assert not checks.check_build(outdir, len(seeds), checks.golden_digests()[workload]["build"])


def test_same_seed_gives_identical_inputs(built, tmp_path):
    workload, _, outdir = built
    manifest = corpus.read_jsonl(outdir / "manifest.jsonl")
    files = []
    for attempt in range(2):
        hyps, rollouts = corpus.hypotheses_and_rollouts(manifest, workload, 7)
        corpus.write_jsonl(tmp_path / f"hyp{attempt}.jsonl", hyps)
        corpus.write_jsonl(tmp_path / f"roll{attempt}.jsonl", rollouts)
        files.append(((tmp_path / f"hyp{attempt}.jsonl").read_bytes(), (tmp_path / f"roll{attempt}.jsonl").read_bytes()))
    assert files[0] == files[1]
    assert corpus.seed_records(workload, ROOT) == corpus.seed_records(workload, ROOT)


def test_other_seed_changes_hypotheses(built):
    workload, _, outdir = built
    manifest = corpus.read_jsonl(outdir / "manifest.jsonl")
    a, _ = corpus.hypotheses_and_rollouts(manifest, workload, 0)
    b, _ = corpus.hypotheses_and_rollouts(manifest, workload, 1)
    assert [h["id"] for h in a] == [h["id"] for h in b]
    assert sum(x["text"] != y["text"] for x, y in zip(a, b)) > len(a) // 2


def test_rollouts_mix_malformed_and_well_formed(built):
    workload, _, outdir = built
    oracles = checks.load_oracles(ROOT)
    manifest = corpus.read_jsonl(outdir / "manifest.jsonl")
    _, rollouts = corpus.hypotheses_and_rollouts(manifest, workload, 0)
    malformed = sum(not oracles.reference_well_formed(r["output"]) for r in rollouts) / len(rollouts)
    assert 0.02 < malformed < 0.2


def test_short_corpus_tiles_seeds_with_unique_ids():
    records = corpus.seed_records("eval-short-en", ROOT)
    assert len(records) == 60 * corpus.SHORT_TILES
    assert len({r["id"] for r in records}) == len(records)


def test_long_transcripts_are_long_and_mixed():
    records = corpus.seed_records("eval-long-mixed", ROOT)
    assert len(records) == corpus.LONG_RECORDS
    for rec in records:
        toks = checks.normalize(rec["transcript"])
        han = sum(len(t) == 1 and "\u4e00" <= t <= "\u9fff" for t in toks)
        assert len(toks) >= corpus.LONG_MIN_TOKENS
        assert 0.3 < han / len(toks) < 0.9
        assert rec["lang"] == "zh" and 1 <= len(rec["entities"]) <= corpus.LONG_MAX_ENTITIES
        for entity in rec["entities"]:
            assert f" {entity} " in f" {rec['transcript']} "


def test_traced_command_counts(tmp_path):
    """Tracing a three-record score run sees two alignments and two fuzzy matches per entity."""
    rows = [
        {"id": f"r{i}", "domain": "medicine", "lang": "en", "slide_text": "Medicine Overview\naspirin and warfarin",
         "transcript_gt": f"talk {i} compares aspirin with warfarin", "entities": ["aspirin", "warfarin"]}
        for i in range(3)
    ]
    corpus.write_jsonl(tmp_path / "d.jsonl", rows)
    corpus.write_jsonl(tmp_path / "h.jsonl", [{"id": r["id"], "text": r["transcript_gt"]} for r in rows])
    prefix = tmp_path / "spans"
    proc = subprocess.run(
        run.traced_argv(["score", "--dataset", str(tmp_path / "d.jsonl"), "--hyp", str(tmp_path / "h.jsonl"),
                         "--out", str(tmp_path / "out.json")], prefix),
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, arrays = read_spans(prefix)
    agg = run.aggregate_spans(prefix)
    assert agg["calls"]["metrics.align"] == 6
    assert agg["calls"]["metrics.fuzzy_find"] == 12
    assert agg["calls"]["cli.score"] == 1
    assert all(s >= -1e-9 for s in agg["self_s"].values())
    assert abs(sum(agg["self_s"].values()) - agg["root_s"]) < 1e-6
    assert len(arrays["start"]) == header["spans"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    fake = {"calls": {}, "self_s": {}, "root_s": 1.0, "outcomes": {}, "tokenize_cache": {"hits": 0, "misses": 0}}
    plan = run.Plan("simulate-default", 0, ROOT / "nonexistent", [])
    assert [m["name"] for m in spec["per_layer"]] == list(run.layer_metrics(plan, {"simulate": fake}, 1.0, 1.0))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert units == {k: u for k, (_, u) in run.layer_metrics(plan, {"simulate": fake}, 1.0, 1.0).items()}


def test_spawned_command_reports_its_own_peak_rss(tmp_path):
    """A command started while the runner holds 100 MB still reports its own, smaller peak."""
    ballast = bytearray(100 * 1024 * 1024)
    ballast[:: 4096] = b"\1" * len(ballast[:: 4096])
    wall, rss_kb, code = run.run_child([sys.executable, "-c", "pass"], tmp_path / "child.log")
    assert code == 0 and wall > 0
    assert rss_kb < 50 * 1024


def test_reset_output_empties_a_tree_in_place_and_deletes_a_file(tmp_path):
    """A command that skips a write leaves an empty file behind, which fails the byte-for-byte check."""
    (tmp_path / "built" / "slides").mkdir(parents=True)
    slide = tmp_path / "built" / "slides" / "s1.svg"
    slide.write_text("<svg/>")
    inode = slide.stat().st_ino
    (tmp_path / "score.json").write_text("{}")
    run.reset_output(tmp_path / "built")
    run.reset_output(tmp_path / "score.json")
    assert slide.stat().st_ino == inode and slide.stat().st_size == 0
    assert not (tmp_path / "score.json").exists()
