"""Output checks for the benchmark's CLI runs.

Each check returns a list of problems (empty means the output is correct).
They never import vapokit: rows are checked against invariants, against
committed digests of the seed commit's output (``golden.json``), and, for a
seeded sample of records, against the independent oracles in
``tests/oracles.py`` with a tokenizer written here from the documented
normalization rules.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import random
import re
import unicodedata
from pathlib import Path

ORACLES_FILE = Path("tests") / "oracles.py"
GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0
ORACLE_SAMPLE = 12  # records per command checked against the oracles
ORACLE_MAX_TOKENS = 64  # the sample prefers records this short; else the shortest
MIN_P_OPTIMAL = 0.9

_PUNCT_RE = re.compile(r"[^\w\s]|_")
_CJK_RE = re.compile("([\u3040-\u30ff\u3400-\u4dbf\u4e00-\u9fff\uac00-\ud7af\uf900-\ufaff\U00020000-\U0002a6df])")


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("vapokit_bench_oracles", root / ORACLES_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_digests() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def normalize(text: str) -> tuple[str, ...]:
    """NFC, lowercase, punctuation as separator, one token per CJK character."""
    text = _PUNCT_RE.sub(" ", unicodedata.normalize("NFC", text).lower())
    return tuple(_CJK_RE.sub(r" \1 ", text).split())


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _rows_problems(rows: list[dict], expected_ids: list[str], what: str) -> list[str]:
    ids = [r.get("id") for r in rows]
    problems = []
    if len(rows) != len(expected_ids):
        problems.append(f"{what}: {len(rows)} rows for {len(expected_ids)} paired records")
    if ids != sorted(set(ids)):
        problems.append(f"{what}: row ids are not sorted and unique")
    if sorted(ids) != sorted(expected_ids):
        problems.append(f"{what}: row ids differ from the paired records")
    return problems


def _oracle_sample(samples: dict[str, dict], seed: int, what: str) -> list[str]:
    short = sorted(i for i, s in samples.items() if len(normalize(s["transcript_gt"])) <= ORACLE_MAX_TOKENS)
    if not short:
        short = sorted(samples, key=lambda i: (len(normalize(samples[i]["transcript_gt"])), i))[:ORACLE_SAMPLE]
    rng = random.Random(f"vapokit-bench/oracle/{what}/{seed}")
    return rng.sample(short, min(ORACLE_SAMPLE, len(short)))


def _close(a: float | None, b: float) -> bool:
    return a is not None and math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_build(outdir: Path, seed_count: int, golden: str | None) -> list[str]:
    problems = []
    manifest = outdir / "manifest.jsonl"
    rows = manifest.read_text(encoding="utf-8").splitlines() if manifest.exists() else []
    if len(rows) != seed_count:
        problems.append(f"build: {len(rows)} manifest rows for {seed_count} seed records")
    if (outdir / "errors.jsonl").exists():
        problems.append("build: rejected records (errors.jsonl written)")
    if golden is not None and tree_digest(outdir) != golden:
        problems.append("build: output tree differs from the golden digest")
    return problems


def check_score(out: Path, samples: dict[str, dict], hyps: dict[str, str], seed: int, oracles) -> list[str]:
    payload = json.loads(out.read_text(encoding="utf-8"))
    rows = payload["rows"]
    problems = _rows_problems(rows, list(samples), "score")
    by_id = {r["id"]: r for r in rows}
    for sid in _oracle_sample(samples, seed, "score"):
        ref = normalize(samples[sid]["transcript_gt"])
        hyp = normalize(hyps[sid])
        want = oracles.levenshtein_recursive(ref, hyp) / len(ref)
        if not _close(by_id.get(sid, {}).get("wer"), want):
            problems.append(f"score: {sid} wer {by_id.get(sid, {}).get('wer')} != oracle {want}")
    return problems


def check_reward(out: Path, samples: dict[str, dict], rollouts: dict[str, str], seed: int, oracles) -> list[str]:
    payload = json.loads(out.read_text(encoding="utf-8"))
    rows = payload["rows"]
    w = payload["weights"]
    problems = _rows_problems(rows, list(samples), "reward")
    for r in rows:
        weighted = (
            w["lambda_format"] * r["r_format"]
            + w["lambda_ocr"] * r["r_ocr"]
            + w["lambda_asr"] * r["r_asr"]
            + w["lambda_va"] * r["r_va"]
        )
        if not _close(r["total"], weighted):
            problems.append(f"reward: {r['id']} total {r['total']} != weighted sum {weighted}")
            break
    by_id = {r["id"]: r for r in rows}
    for sid in _oracle_sample(samples, seed, "reward"):
        row = by_id.get(sid)
        raw = rollouts[sid]
        if row is None:
            continue
        well_formed = oracles.reference_well_formed(raw)
        if row["r_format"] != int(well_formed):
            problems.append(f"reward: {sid} r_format {row['r_format']} != oracle {int(well_formed)}")
            continue
        if not well_formed:
            continue
        answer = raw.split("<answer>", 1)[1].rsplit("</answer>", 1)[0]
        ref = normalize(samples[sid]["transcript_gt"])
        want = max(1.0 - oracles.levenshtein_recursive(ref, normalize(answer)) / len(ref), 0.0)
        if not _close(row["r_asr"], want):
            problems.append(f"reward: {sid} r_asr {row['r_asr']} != oracle {want}")
    return problems


def check_detect(out: Path, samples: dict[str, dict], hyps: dict[str, str], seed: int) -> list[str]:
    payload = json.loads(out.read_text(encoding="utf-8"))
    rows = payload["rows"]
    summary = payload["summary"]
    problems = _rows_problems(rows, list(samples), "detect")
    flagged = sum(bool(r["ocr_behavior"]) for r in rows)
    if summary["samples"] != len(rows) or summary["detected"] != flagged:
        problems.append(f"detect: summary {summary} disagrees with {len(rows)} rows, {flagged} flagged")
    by_id = {r["id"]: r for r in rows}
    for sid in _oracle_sample(samples, seed, "detect"):
        sample = samples[sid]
        slide_only = set(normalize(sample["slide_text"])) - set(normalize(sample["transcript_gt"]))
        want = bool(set(normalize(hyps[sid])) & slide_only)
        if by_id.get(sid, {}).get("ocr_behavior") is not want:
            problems.append(f"detect: {sid} flag {by_id.get(sid, {}).get('ocr_behavior')} != {want}")
    return problems


def check_simulate(trace_path: Path, steps: int) -> list[str]:
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    step_records = [r for r in records if r.get("record") == "step"]
    problems = []
    if len(step_records) != steps:
        problems.append(f"simulate: {len(step_records)} step records for {steps} configured steps")
    if not step_records or step_records[-1]["p_optimal"] < MIN_P_OPTIMAL:
        final = step_records[-1]["p_optimal"] if step_records else None
        problems.append(f"simulate: final p_optimal {final} < {MIN_P_OPTIMAL}")
    return problems
