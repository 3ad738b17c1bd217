"""Desk-scale group-relative policy optimization over a finite behavior grid.

Instead of a language model, the policy is a 54-way categorical over
behavior tuples (format ok? x OCR grade x ASR grade x anchoring grade, grades
in {0, 0.5, 1}). Before training, every (sample, behavior tuple) pair is
rendered once into a concrete <think>/<answer> string by deterministic
corruption operators and scored once with the real reward engine. The
resulting table, one float array from ``reward_matrix``, holds the four
weight-free reward components, so one table serves every weight setting;
``train`` forms the totals once with ``RewardWeights.weigh``. Each step draws
a sample and a group of tuples, reads their rewards from the table, and
updates the policy logits with a likelihood-ratio gradient using the
within-group normalized advantage as the baseline. Random numbers are drawn
only in ``train``.

Desk-scale deviations from full-size GRPO, all deliberate: no KL penalty, no
ratio clipping, and the scoring groups are dealt from shuffled
without-replacement cycles over the grid rather than drawn from the trained
policy. The last one matters: with 54 arms, 8 draws per group, and
std-normalized advantages, sampling from the policy itself collapses onto
whichever high-reward tuple leads early (zero-variance groups then freeze
it), and independent uniform draws leave appearance-count noise large enough
to scramble the top of the ranking. Balanced dealing gives every tuple
the same appearance count, so each logit drifts at a rate ordered by its true
reward and the optimum wins deterministically.

The corruption operators are built so each grade maps monotonically onto its
reward component (substituting k of n tokens with unique garbage gives edit
distance exactly k). Corruption is entity-first, then the plain tokens in
ascending position: a degraded OCR or ASR grade also wipes out the entity
anchors, so every single-grade downgrade costs clearly more than its own
component and the all-ones tuple is the unique optimum under positive weights.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from .data import Sample, _as_number, load_json, read_samples, resolve_data_path
from .errors import ToolkitError
from .rewards import RewardWeights, total_reward
from .textnorm import normalize_tokenize

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that do array math, so that the
# commands that never train (score, reward, detect, build) do not load it.

GRADES = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class BehaviorTuple:
    format_ok: bool
    ocr_level: float
    asr_level: float
    anchor_level: float


ALL_TUPLES: tuple[BehaviorTuple, ...] = tuple(
    BehaviorTuple(f, o, a, v)
    for f, o, a, v in itertools.product((False, True), GRADES, GRADES, GRADES)
)
NUM_TUPLES = len(ALL_TUPLES)  # 54
OPTIMAL_TUPLE = BehaviorTuple(True, 1.0, 1.0, 1.0)
OPTIMAL_INDEX = ALL_TUPLES.index(OPTIMAL_TUPLE)

_OCR_GRADE = tuple(t.ocr_level for t in ALL_TUPLES)
_ASR_GRADE = tuple(t.asr_level for t in ALL_TUPLES)
_ANCHOR_GRADE = tuple(t.anchor_level for t in ALL_TUPLES)
_FORMAT_GRADE = tuple(float(t.format_ok) for t in ALL_TUPLES)


def _softmax(logits: np.ndarray) -> np.ndarray:
    import numpy as np

    e = np.exp(logits - logits.max())
    return e / e.sum()


class ToyPolicy:
    """Categorical policy over the behavior grid, parameterized by logits."""

    def __init__(self, logits: np.ndarray | None = None):
        import numpy as np

        if logits is None:
            logits = np.zeros(NUM_TUPLES)
        self.logits = np.asarray(logits, dtype=float)
        if self.logits.shape != (NUM_TUPLES,):
            raise ToolkitError("bad-config", f"policy needs {NUM_TUPLES} logits")

    def probs(self) -> np.ndarray:
        return _softmax(self.logits)


# ---------------------------------------------------------------------------
# rendering behavior tuples into concrete rollouts


def _garbage(i: int) -> str:
    # Reserved shape: survives normalization, never resembles fixture entities.
    return f"xq{i}z"


def _entity_spans(tokens: tuple[str, ...], entity_token_lists: list[tuple[str, ...]]):
    """All occurrences of each entity span; returns (covered positions, spans per entity)."""
    covered: set[int] = set()
    spans: list[list[tuple[int, int]]] = []
    for needle in entity_token_lists:
        k = len(needle)
        mine = []
        i = 0
        while k and i <= len(tokens) - k:
            if tokens[i : i + k] == needle:
                mine.append((i, i + k))
                covered.update(range(i, i + k))
                i += k
            else:
                i += 1
        spans.append(mine)
    return covered, spans


def _substitute(tokens: list[str], positions: Sequence[int]) -> None:
    for p in positions:
        tokens[p] = _garbage(p)


def render(tup: BehaviorTuple, sample: Sample) -> str:
    """Render a behavior tuple into a rollout string for ``sample``.

    - ocr_level: 1 - (fraction of slide tokens corrupted in the think block);
      corruption hits entity tokens first, so a degraded think also loses its
      anchors
    - asr_level: 1 - (fraction of transcript tokens corrupted in the answer),
      again entity-first; tokens already corrupted by the anchoring grade
      count toward the fraction
    - anchor_level: fraction of entities reproduced intact in the answer (the
      trailing ones are corrupted in every occurrence, list order)
    - format_ok=False drops the closing answer tag

    Each block corrupts entity positions first, then plain positions, each in
    ascending order, with unique garbage, so the error counts (and the rewards)
    follow from the grades alone.
    """
    slide = list(normalize_tokenize(sample.slide_text))
    transcript = list(normalize_tokenize(sample.transcript_gt))
    entity_tokens = [normalize_tokenize(e) for e in sample.entities]
    entity_tokens = [e for e in entity_tokens if e]
    if len(entity_tokens) < 2 or len(transcript) < 8:
        raise ToolkitError(
            "sample-too-small",
            f"sample {sample.id}: need >= 2 entities and >= 8 transcript tokens",
        )

    # think block: corrupt ceil(n * (1 - grade)) slide tokens, entity-first
    think = list(slide)
    if slide:
        k_ocr = math.ceil(len(slide) * (1.0 - tup.ocr_level))
        ent_pos, _ = _entity_spans(tuple(slide), entity_tokens)
        plain = [i for i in range(len(slide)) if i not in ent_pos]
        _substitute(think, (sorted(ent_pos) + plain)[:k_ocr])

    # answer block: the anchoring grade corrupts trailing entities in every
    # occurrence; the ASR grade then tops corruption up to its token fraction,
    # remaining entity tokens first
    answer = list(transcript)
    ent_pos_tr, spans_tr = _entity_spans(tuple(transcript), entity_tokens)
    n_ent = len(entity_tokens)
    n_keep = int(n_ent * tup.anchor_level + 0.5)
    anchored_out: set[int] = set()
    for spans in spans_tr[n_keep:]:
        for start, stop in spans:
            anchored_out.update(range(start, stop))
    _substitute(answer, sorted(anchored_out))
    k_asr = math.ceil(len(transcript) * (1.0 - tup.asr_level))
    extra = k_asr - len(anchored_out)
    if extra > 0:
        remaining_ent = sorted(ent_pos_tr - anchored_out)
        plain_tr = [i for i in range(len(transcript)) if i not in ent_pos_tr]
        _substitute(answer, (remaining_ent + plain_tr)[:extra])

    closing = "</answer>" if tup.format_ok else ""
    return f"<think>{' '.join(think)}</think><answer>{' '.join(answer)}{closing}"


# ---------------------------------------------------------------------------
# group-relative advantages and the policy update

_STD_FLOOR = 1e-8


def group_advantages(rewards: Sequence[float]) -> np.ndarray:
    """(r - mean) / population std; all zeros when the group is flat."""
    import numpy as np

    r = np.asarray(rewards, dtype=float)
    if r.size < 2:
        raise ToolkitError("degenerate-group", "need at least 2 rollouts per group")
    # Rewards above ~1e154 (finite but huge weights) overflow the squares, and
    # a group sum near 1e308 overflows the mean: report it as one error record
    # instead of numpy warnings and, for an infinite std, all-zero advantages.
    with np.errstate(over="ignore", invalid="ignore"):
        std = r.std()
    if not math.isfinite(std):
        raise ToolkitError("numerical", "group reward spread overflows")
    if std < _STD_FLOOR:
        return np.zeros_like(r)
    return (r - r.mean()) / std


def surrogate_objective(logits: np.ndarray, indices: Sequence[int], advantages: Sequence[float]) -> float:
    """Sum_i a_i * log pi(k_i) with advantages treated as constants."""
    import numpy as np

    z = logits - logits.max()
    logp = z - math.log(np.exp(z).sum())
    return float(sum(a * logp[k] for k, a in zip(indices, advantages)))


def surrogate_gradient(logits: np.ndarray, indices: Sequence[int], advantages: Sequence[float]) -> np.ndarray:
    import numpy as np

    adv = np.asarray(advantages, dtype=float)
    grad = np.zeros_like(logits)
    np.add.at(grad, np.asarray(indices, dtype=int), adv)
    grad -= _softmax(logits) * adv.sum()
    return grad


def policy_step(policy: ToyPolicy, indices: Sequence[int], advantages: Sequence[float], lr: float) -> ToyPolicy:
    """One likelihood-ratio ascent step on the group's tuple indices and advantages."""
    import numpy as np

    if lr <= 0:
        raise ToolkitError("bad-config", "lr must be > 0")
    grad = surrogate_gradient(policy.logits, indices, advantages)
    if not np.all(np.isfinite(grad)):
        raise ToolkitError("numerical", "non-finite policy gradient")
    return ToyPolicy(policy.logits + lr * grad)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class SimConfig:
    steps: int = 2000
    group_size: int = 8
    lr: float = 0.1
    seed: int = 0
    weights: RewardWeights = field(default_factory=RewardWeights)
    samples: list[Sample] = field(default_factory=list)
    samples_ref: str = "builtin:grpo_samples.jsonl"

    @classmethod
    def from_file(cls, path: str | Path) -> "SimConfig":
        """Load a JSON config object; it accepts exactly the keys of ``snapshot()``."""
        try:
            raw = load_json(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise ToolkitError("bad-config", f"cannot load config {path}: {e}") from e
        if not isinstance(raw, dict):
            raise ToolkitError("bad-config", f"config {path} is not a JSON object")
        unknown = set(raw) - set(cls().snapshot())
        if unknown:
            raise ToolkitError("bad-config", f"unknown config keys: {sorted(unknown)}")
        weights = RewardWeights.from_mapping(raw.get("weights", {}))
        samples_ref = raw.get("samples", cls.samples_ref)
        if not isinstance(samples_ref, str):
            raise ToolkitError("bad-config", f"samples must be a path string, got {samples_ref!r:.80}")
        samples = read_samples(resolve_data_path(samples_ref))
        return cls(
            steps=_as_number(raw.get("steps", cls.steps), int, "bad-config", "steps"),
            group_size=_as_number(raw.get("group_size", cls.group_size), int, "bad-config", "group_size"),
            lr=_as_number(raw.get("lr", cls.lr), float, "bad-config", "lr"),
            seed=_as_number(raw.get("seed", cls.seed), int, "bad-config", "seed"),
            weights=weights,
            samples=samples,
            samples_ref=samples_ref,
        )

    def snapshot(self) -> dict:
        return {
            "steps": self.steps,
            "group_size": self.group_size,
            "lr": self.lr,
            "seed": self.seed,
            "weights": self.weights.as_dict(),
            "samples": self.samples_ref,
        }


@dataclass
class TraceStep:
    step: int
    mean_reward: float  # mean over the sampled group
    expected_reward: float  # exact expectation under the current policy
    mean_format: float
    mean_ocr: float
    mean_asr: float
    mean_va: float
    p_optimal: float


@dataclass
class TrainTrace:
    steps: list[TraceStep]
    seed: int
    config: dict
    final_policy: ToyPolicy

    @property
    def final(self) -> TraceStep:
        return self.steps[-1]

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"record": "config", "seed": self.seed, "config": self.config}))
            f.write("\n")
            for step in self.steps:
                f.write(json.dumps({"record": "step", **vars(step)}))
                f.write("\n")

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=[column.name for column in fields(TraceStep)])
            writer.writeheader()
            for step in self.steps:
                writer.writerow(vars(step))


def expected_grades(policy: ToyPolicy) -> dict[str, float]:
    """Policy-expected grade per behavior axis plus mass on the optimum."""
    p = policy.probs()
    return {
        "format_rate": float(p @ _FORMAT_GRADE),
        "ocr_level": float(p @ _OCR_GRADE),
        "asr_level": float(p @ _ASR_GRADE),
        "anchor_level": float(p @ _ANCHOR_GRADE),
        "p_optimal": float(p[OPTIMAL_INDEX]),
    }


def default_samples() -> list[Sample]:
    return read_samples(resolve_data_path("builtin:grpo_samples.jsonl"))


def _balanced_deals(rng: np.random.Generator) -> Iterator[int]:
    """Tuple indices from rng-shuffled without-replacement cycles over the grid.

    The next cycle is shuffled only when its first index is requested;
    shuffling earlier would reorder the draws ``train`` shares this rng with.
    """
    while True:
        yield from rng.permutation(NUM_TUPLES).tolist()


# The last axis of the reward_matrix array, in order.
REWARD_COLUMNS = ("r_format", "r_ocr", "r_asr", "r_va")


def reward_matrix(samples: Sequence[Sample]) -> np.ndarray:
    """Render and score every (sample, behavior tuple) pair exactly once.

    Returns a ``(len(samples), NUM_TUPLES, len(REWARD_COLUMNS))`` float array
    whose entry ``[si, k]`` holds the weight-free reward components of sample
    ``si`` rendered under ``ALL_TUPLES[k]``.
    """
    import numpy as np

    rows = []
    for sample in samples:
        breakdowns = (total_reward(sample, render(tup, sample)) for tup in ALL_TUPLES)
        rows.append([[getattr(b, col) for col in REWARD_COLUMNS] for b in breakdowns])
    return np.array(rows, dtype=float)


def train(config: SimConfig) -> TrainTrace:
    """Build the reward table once, then run the sample -> look up -> update loop.

    Every step reads its group's rewards, the trace's mean components and the
    policy's expected reward from the same table. Reproducible from the seed.
    """
    import numpy as np

    if config.steps < 1 or config.group_size < 2 or config.seed < 0:
        raise ToolkitError("bad-config", "need steps >= 1, group_size >= 2 and seed >= 0")
    if not 0 < config.lr < math.inf:
        raise ToolkitError("bad-config", "lr must be finite and > 0")
    samples = config.samples or default_samples()
    components = reward_matrix(samples)
    weighted = config.weights.weigh(*np.moveaxis(components, -1, 0))
    table = np.concatenate([components, weighted[..., None]], axis=-1)
    totals = table[..., -1]  # a strided view: ``probs @`` a contiguous copy can round differently
    rng = np.random.default_rng(config.seed)
    deals = _balanced_deals(rng)
    policy = ToyPolicy()
    trace: list[TraceStep] = []
    for step in range(config.steps):
        si = int(rng.integers(len(samples)))
        indices = list(itertools.islice(deals, config.group_size))
        group = table[si, indices]
        advantages = group_advantages(group[:, -1])
        policy = policy_step(policy, indices, advantages, config.lr)
        probs = policy.probs()
        r_format, r_ocr, r_asr, r_va, total = group.mean(axis=0)
        trace.append(
            TraceStep(
                step=step,
                mean_reward=float(total),
                expected_reward=float(probs @ totals[si]),
                mean_format=float(r_format),
                mean_ocr=float(r_ocr),
                mean_asr=float(r_asr),
                mean_va=float(r_va),
                p_optimal=float(probs[OPTIMAL_INDEX]),
            )
        )
    return TrainTrace(steps=trace, seed=config.seed, config=config.snapshot(), final_policy=policy)
