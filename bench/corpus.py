"""Deterministic benchmark corpora built from the bundled seed records.

The seed records a workload builds from are fixed; the hypotheses and
rollouts scored against the built manifest are a pure function of
(workload, seed). The same pair therefore gives byte-identical input files,
a different seed gives different hypotheses, and every seed costs about the
same, because each seed draws the same mix of perturbation rates.

This module reads the seed file as plain JSON and never imports vapokit:
the program under test only ever sees the files written here.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from checks import normalize

SEEDS_FILE = Path("src") / "vapokit" / "data" / "seeds_60.jsonl"

SHORT_TILES = 50  # seeds_60 x 50 = 3000 seed records
LONG_RECORDS = 80
LONG_MIN_TOKENS = 200
LONG_MAX_ENTITIES = 8
PERTURB_RATES = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
MALFORMED_SHARE = 0.1

_HAN_FIRST, _HAN_SPAN = 0x4E00, 0x5000


def load_seeds(root: Path) -> list[dict]:
    with open(root / SEEDS_FILE, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def pseudo_han(word: str) -> str | None:
    """Map about half of all words to a fixed 2-3 character Han string, the rest to None."""
    h = hashlib.sha256(word.encode("utf-8")).digest()
    if h[0] % 2:
        return None
    n = 2 + h[1] % 2
    return "".join(chr(_HAN_FIRST + int.from_bytes(h[2 + 2 * i : 4 + 2 * i], "big") % _HAN_SPAN) for i in range(n))


def short_seed_records(seeds: list[dict]) -> list[dict]:
    """seeds_60 tiled SHORT_TILES times; ids stay unique."""
    return [{**rec, "id": f"{rec['id']}-t{t:02d}"} for t in range(SHORT_TILES) for rec in seeds]


def long_seed_records(seeds: list[dict]) -> list[dict]:
    """LONG_RECORDS transcripts of at least LONG_MIN_TOKENS tokens, about half their words in Han.

    Each record concatenates seed transcripts of one domain. Words of any seed
    entity stay Latin, so entity spans survive verbatim; the other words go
    through the fixed pseudo_han mapping.
    """
    entity_words = {w for rec in seeds for e in rec["entities"] for w in e.split()}
    by_domain: dict[str, list[dict]] = {}
    for rec in seeds:
        by_domain.setdefault(rec["domain"], []).append(rec)
    domains = sorted(by_domain)
    rng = random.Random("vapokit-bench/long-seed-records")
    out = []
    for i in range(LONG_RECORDS):
        domain = domains[i % len(domains)]
        pool = by_domain[domain]
        words: list[str] = []
        entities: list[str] = []
        text = ""
        while len(normalize(text)) < LONG_MIN_TOKENS:
            rec = rng.choice(pool)
            words.extend(rec["transcript"].split())
            for e in rec["entities"]:
                if e not in entities and len(entities) < LONG_MAX_ENTITIES:
                    entities.append(e)
            text = " ".join(w if w in entity_words else (pseudo_han(w) or w) for w in words)
        out.append(
            {
                "id": f"long-{i:03d}",
                "domain": domain,
                "lang": "zh",
                "transcript": text,
                "entities": entities,
                "audio_ref": f"audio/long-{i:03d}.wav",
            }
        )
    return out


def seed_records(workload: str, root: Path) -> list[dict]:
    seeds = load_seeds(root)
    if workload == "eval-short-en":
        return short_seed_records(seeds)
    if workload == "eval-long-mixed":
        return long_seed_records(seeds)
    raise ValueError(f"no seed records for workload {workload!r}")


def _typo(word: str, rng: random.Random) -> str:
    """One character substitution, so single-word entities stay within the fuzzy budget."""
    i = rng.randrange(len(word))
    return word[:i] + ("x" if word[i] != "x" else "z") + word[i + 1 :]


def perturb(toks: list[str], rate: float, pool: list[str], protected: set[str], rng: random.Random) -> list[str]:
    """Substitute, delete or insert tokens at ``rate`` per position.

    A substituted ``protected`` (entity) word gets a one-character typo; other
    substitutions and insertions draw from ``pool``.
    """
    out: list[str] = []
    for tok in toks:
        if rng.random() >= rate:
            out.append(tok)
            continue
        op = rng.random()
        if op < 0.6:
            out.append(_typo(tok, rng) if tok in protected and len(tok) > 3 else rng.choice(pool))
        elif op < 0.8:
            continue
        else:
            out.append(tok)
            out.append(rng.choice(pool))
    return out


_MALFORMATIONS = (
    lambda think, answer: f"<think>{think}</think><answer>{answer}",
    lambda think, answer: f"<answer>{answer}</answer>",
    lambda think, answer: f"<think>{think}</think><think></think><answer>{answer}</answer>",
    lambda think, answer: f"<think>{think}</think>note<answer>{answer}</answer>",
    lambda think, answer: f"<Think>{think}</Think><answer>{answer}</answer>",
)


def hypotheses_and_rollouts(manifest: list[dict], workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """Seeded hypotheses and rollouts for every sample of a built manifest.

    A hypothesis is the transcript perturbed at a rate drawn from
    PERTURB_RATES; substitutions draw partly from the sample's slide words, so
    some hypotheses leak slide-only vocabulary. A rollout thinks a perturbed
    slide text and answers the hypothesis; MALFORMED_SHARE of them break the
    think/answer grammar.
    """
    rng = random.Random(f"vapokit-bench/{workload}/{seed}")
    hyps, rollouts = [], []
    for row in manifest:
        ref = list(normalize(row["transcript_gt"]))
        slide = list(normalize(row["slide_text"]))
        protected = {w for e in row["entities"] for w in e.split()}
        pool = ref + slide
        answer = " ".join(perturb(ref, rng.choice(PERTURB_RATES), pool, protected, rng))
        think = " ".join(perturb(slide, rng.choice(PERTURB_RATES), pool, protected, rng))
        if rng.random() < MALFORMED_SHARE:
            output = rng.choice(_MALFORMATIONS)(think, answer)
        else:
            output = f"<think>{think}</think><answer>{answer}</answer>"
        hyps.append({"id": row["id"], "text": answer})
        rollouts.append({"id": row["id"], "output": output})
    return hyps, rollouts


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]
