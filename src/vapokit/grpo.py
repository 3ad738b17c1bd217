"""Desk-scale group-relative policy optimization over a finite behavior grid.

Instead of a language model, the policy is a categorical over the behavior
grid ``ALL_TUPLES`` (format ok? x OCR grade x ASR grade x anchoring grade,
grades in {0, 0.5, 1}: 54 arms). ``SimConfig`` holds the keys of a simulate
config file, the samples file by its reference; ``train`` reads that file.
Before training, every (sample, behavior tuple) pair is rendered once into a
concrete <think>/<answer> string by deterministic corruption operators and
scored once with the real reward engine. The resulting table, one float
array from ``reward_matrix``, holds the four weight-free reward components,
so one table serves every weight setting; ``train`` forms the totals once
with ``RewardWeights.weigh``. The table's second axis is the arm count that
the dealer, ``policy_step`` and the logits use. Each step draws a sample and
a group of tuples, reads their rewards from the table, and normalizes them
within the group into advantages. Random numbers are drawn only in
``train``.

``train`` ascends the likelihood-ratio gradient of the surrogate
``sum_i a_i * log softmax(logits)[k_i]`` without its zero-sum term. A group's
normalized advantages sum to zero, so the term ``-softmax(logits) *
sum(advantages)`` is zero up to rounding, and each step adds ``lr`` times the
advantages summed per arm: the logits after step t are ``lr * sum_{s <= t}
bincount(indices_s, advantages_s)``. The policy never feeds back into its own
updates, so the sandbox is a bandit ranked by each arm's summed advantage,
and the policy is the softmax of that running sum.

The dealer never reads the policy either, so ``train`` deals the steps in
blocks of ``DEAL_BLOCK_ROLLOUTS`` rollouts: each block's draws (in the
per-step order), group advantages, component means, logits (``policy_step``,
one cumulative sum), probabilities and expected rewards are computed with one
array operation each, and its trace rows with one ``map``.
``TrainTrace.write`` writes the JSONL and CSV traces in one pass, formatting
each value once.

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

import itertools
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .data import Record, Sample, _as_number, read_json, read_samples, resolve_data_path
from .errors import ToolkitError
from .metrics import EntityRef, _find_exact_span
from .rewards import RewardWeights, total_reward
from .textnorm import normalize_tokenize

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that do array math, so that the
# commands that never train (score, reward, detect, build) do not load it.

GRADES = (0.0, 0.5, 1.0)


class BehaviorTuple(NamedTuple):
    format_ok: bool
    ocr_level: float
    asr_level: float
    anchor_level: float


ALL_TUPLES: tuple[BehaviorTuple, ...] = tuple(
    BehaviorTuple(f, o, a, v)
    for f, o, a, v in itertools.product((False, True), GRADES, GRADES, GRADES)
)
OPTIMAL_TUPLE = BehaviorTuple(True, 1.0, 1.0, 1.0)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis: of one logits row, or of each row of a 2-D array."""
    import numpy as np

    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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
        i = _find_exact_span(needle, tokens)
        while i >= 0:
            mine.append((i, i + k))
            covered.update(range(i, i + k))
            i = _find_exact_span(needle, tokens, i + k)
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
    # an entity that normalizes to nothing raises "empty-entity", as in scoring
    entity_tokens = [EntityRef.from_surface(e).tokens for e in sample.entities]
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


def group_advantages(rewards: Sequence[float] | np.ndarray) -> np.ndarray:
    """(r - mean) / population std along the last axis; all zeros for a flat group.

    A 1-D input is one group; each row of a 2-D input is a group.
    """
    import numpy as np

    r = np.asarray(rewards, dtype=float)
    if r.ndim == 0 or r.shape[-1] < 2:
        raise ToolkitError("degenerate-group", "need at least 2 rollouts per group")
    # Rewards above ~1e154 (finite but huge weights) overflow the squares, and
    # a group sum near 1e308 overflows the mean: report it as one error record
    # instead of numpy warnings and, for an infinite std, all-zero advantages.
    with np.errstate(over="ignore", invalid="ignore"):
        std = r.std(axis=-1, keepdims=True)
    if not np.isfinite(std).all():
        raise ToolkitError("numerical", "group reward spread overflows")
    flat = std < _STD_FLOOR
    return np.where(flat, 0.0, (r - r.mean(axis=-1, keepdims=True)) / np.where(flat, 1.0, std))


def policy_step(logits: np.ndarray, indices: np.ndarray, advantages: np.ndarray, lr: float) -> np.ndarray:
    """The logits after each step of a block, one row per step.

    Row t of ``indices`` and ``advantages`` is step t's group, and row t of the
    result is ``logits + lr * sum_{s <= t} bincount(indices[s], advantages[s])``:
    the surrogate's gradient ascent step without its zero-sum term (see the
    module docstring). A one-row block is one step.
    """
    import numpy as np

    if lr <= 0:
        raise ToolkitError("bad-config", "lr must be > 0")
    indices = np.asarray(indices, dtype=int)
    rows = np.zeros((1 + len(indices), len(logits)))
    # A non-finite advantage, or a step that overflows (a huge lr), leaves
    # non-finite logits: one error record instead of numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(rows[1:], (np.arange(len(indices))[:, None], indices), advantages)
        rows[1:] *= lr
        rows[0] = logits
        steps = rows.cumsum(axis=0)[1:]
    if not np.isfinite(steps).all():
        raise ToolkitError("numerical", "non-finite policy gradient or logits")
    return steps


# ---------------------------------------------------------------------------
# training loop


class SimConfig(Record):
    """A simulate config: one field per key of the config file.

    ``samples`` names the samples file (a path or a ``builtin:`` reference);
    ``train`` reads it, so a trace's config record replays its run.
    """

    def __init__(
        self,
        steps: int = 2000,
        group_size: int = 8,
        lr: float = 0.1,
        seed: int = 0,
        weights: RewardWeights = RewardWeights(),
        samples: str = "builtin:grpo_samples.jsonl",
    ):
        self.steps = steps
        self.group_size = group_size
        self.lr = lr
        self.seed = seed
        self.weights = weights
        self.samples = samples

    @classmethod
    def from_file(cls, path: str | Path) -> "SimConfig":
        """Load a JSON config object; it accepts exactly the keys of ``snapshot()``, each optional."""
        raw = read_json(path, "bad-config")
        if not isinstance(raw, dict):
            raise ToolkitError("bad-config", f"config {path} is not a JSON object")
        default = vars(cls())
        unknown = set(raw) - set(default)
        if unknown:
            raise ToolkitError("bad-config", f"unknown config keys: {sorted(unknown)}")
        fields = {**default, **raw, "weights": RewardWeights.from_mapping(raw.get("weights", {}))}
        if not isinstance(fields["samples"], str):
            raise ToolkitError("bad-config", f"samples must be a path string, got {fields['samples']!r:.80}")
        for name, value in default.items():
            if type(value) in (int, float):  # the numbers take their default's type
                fields[name] = _as_number(fields[name], type(value), "bad-config", name)
        return cls(**fields)

    def snapshot(self) -> dict:
        return {**vars(self), "weights": self.weights.as_dict()}


class TraceStep(NamedTuple):
    """One step's trace row; the fields are the trace columns, in order."""

    step: int
    mean_reward: float  # mean over the sampled group
    expected_reward: float  # exact expectation under the current policy
    mean_format: float
    mean_ocr: float
    mean_asr: float
    mean_va: float
    p_optimal: float


class TrainTrace(Record):
    def __init__(self, steps: list[TraceStep], seed: int, config: dict, final_logits: np.ndarray):
        self.steps = steps
        self.seed = seed
        self.config = config
        self.final_logits = final_logits  # the policy after the last step, one logits row

    @property
    def final(self) -> TraceStep:
        return self.steps[-1]

    def write(self, jsonl_path: str | Path, csv_path: str | Path) -> None:
        """Write the JSONL trace (a config record, then one record per step) and
        the CSV trace (the step columns) in one pass.

        Each step's values are formatted once, with ``repr``: ``json.dumps`` and
        ``csv`` both write a finite float as its ``repr``, and every trace value
        is finite, because a reward spread that overflows stops training with
        "numerical".
        """
        names = TraceStep._fields
        jsonl_step = '{"record": "step", ' + ", ".join(f'"{name}": %s' for name in names) + "}\n"
        csv_step = ",".join(["%s"] * len(names)) + "\r\n"  # csv's default line terminator
        with open(jsonl_path, "w", encoding="utf-8") as jsonl_file, \
                open(csv_path, "w", encoding="utf-8", newline="") as csv_file:
            jsonl_file.write(json.dumps({"record": "config", "seed": self.seed, "config": self.config}) + "\n")
            csv_file.write(",".join(names) + "\r\n")
            for step in self.steps:
                values = tuple(map(repr, step))
                jsonl_file.write(jsonl_step % values)
                csv_file.write(csv_step % values)


def expected_grades(logits: np.ndarray) -> dict[str, float]:
    """Expected grade per behavior axis under the policy ``softmax(logits)``, plus its mass on the optimum."""
    import numpy as np

    p = _softmax(logits)
    grades = p @ np.array(ALL_TUPLES, dtype=float)  # one column per BehaviorTuple field
    return {
        **dict(zip(("format_rate", "ocr_level", "asr_level", "anchor_level"), grades.tolist())),
        "p_optimal": float(p[ALL_TUPLES.index(OPTIMAL_TUPLE)]),
    }


def _balanced_deals(rng: np.random.Generator, arms: int) -> Iterator[int]:
    """Arm indices from rng-shuffled without-replacement cycles over ``range(arms)``.

    The next cycle is shuffled only when its first index is requested;
    shuffling earlier would reorder the draws ``train`` shares this rng with.
    """
    while True:
        yield from rng.permutation(arms).tolist()


# The last axis of the reward_matrix array, in order.
REWARD_COLUMNS = ("r_format", "r_ocr", "r_asr", "r_va")


def reward_matrix(samples: Sequence[Sample]) -> np.ndarray:
    """Render and score every (sample, behavior tuple) pair exactly once.

    Returns a ``(len(samples), len(ALL_TUPLES), len(REWARD_COLUMNS))`` float array
    whose entry ``[si, k]`` holds the weight-free reward components of sample
    ``si`` rendered under ``ALL_TUPLES[k]``.
    """
    import numpy as np

    rows = []
    for sample in samples:
        breakdowns = (total_reward(sample, render(tup, sample)) for tup in ALL_TUPLES)
        rows.append([[getattr(b, col) for col in REWARD_COLUMNS] for b in breakdowns])
    return np.array(rows, dtype=float)


# Rollouts per dealt block in ``train``: 32 steps of the shipped group size 8.
# A budget in rollouts rather than steps keeps a block's arrays small at any
# group size.
DEAL_BLOCK_ROLLOUTS = 256


def train(config: SimConfig) -> TrainTrace:
    """Read the samples, build the reward table once, then run the sample ->
    look up -> update loop over the table's arms.

    Every step reads its group's rewards, the trace's mean components and the
    policy's expected reward from the same table. The draws for a block of
    steps are made in the per-step order, and the logits are carried from
    block to block and summed in step order, so the trace does not depend on
    the block size. Reproducible from the seed.
    """
    import numpy as np

    samples = read_samples(resolve_data_path(config.samples))
    if not samples:
        raise ToolkitError("bad-config", f"no samples in {config.samples}")
    if config.steps < 1 or config.group_size < 2 or config.seed < 0:
        raise ToolkitError("bad-config", "need steps >= 1, group_size >= 2 and seed >= 0")
    if not 0 < config.lr < math.inf:
        raise ToolkitError("bad-config", "lr must be finite and > 0")
    components = reward_matrix(samples)
    weighted = config.weights.weigh(*np.moveaxis(components, -1, 0))
    table = np.concatenate([components, weighted[..., None]], axis=-1)
    rng = np.random.default_rng(config.seed)
    arms = table.shape[1]
    optimum = ALL_TUPLES.index(OPTIMAL_TUPLE)
    deals = _balanced_deals(rng, arms)
    logits = np.zeros(arms)
    trace: list[TraceStep] = []
    block_steps = max(1, DEAL_BLOCK_ROLLOUTS // config.group_size)
    for start in range(0, config.steps, block_steps):
        block = range(start, min(start + block_steps, config.steps))
        si, dealt = [], []
        for _ in block:
            si.append(int(rng.integers(len(samples))))
            dealt.append(list(itertools.islice(deals, config.group_size)))
        si, indices = np.array(si), np.array(dealt)
        groups = table[si[:, None], indices]  # (block, group, components + total)
        advantages = group_advantages(groups[..., -1])
        # Summed over a middle axis, each mean adds the group's rows in order,
        # as a per-step ``group.mean(axis=0)`` does (a last-axis sum is pairwise).
        r_format, r_ocr, r_asr, r_va, total = groups.mean(axis=1).T.tolist()
        block_logits = policy_step(logits, indices, advantages, config.lr)
        probs = _softmax(block_logits)
        expected = (probs * table[si, :, -1]).sum(axis=1).tolist()
        p_optimal = probs[:, optimum].tolist()
        logits = block_logits[-1]
        trace.extend(map(TraceStep, block, total, expected, r_format, r_ocr, r_asr, r_va, p_optimal))
    return TrainTrace(steps=trace, seed=config.seed, config=config.snapshot(), final_logits=logits)
