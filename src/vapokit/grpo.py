"""Desk-scale group-relative policy optimization over a finite behavior grid.

Instead of a language model, the policy is a categorical over the behavior
grid ``ALL_TUPLES`` (format ok? x OCR grade x ASR grade x anchoring grade,
grades in {0, 0.5, 1}: 54 arms). ``SimConfig`` holds the keys of a simulate
config file, the samples file by its reference; ``train`` reads that file.
Before training, every (sample, behavior tuple) pair is rendered once into a
concrete <think>/<answer> string by deterministic corruption operators and
scored once with the real reward engine. The resulting table from
``reward_matrix``, one list of per-arm component tuples per sample, holds the
four weight-free reward components, so one table serves every weight
setting; ``train`` forms the totals once with ``RewardWeights.weigh``. The
table's arm count is the one the dealer, ``policy_step`` and the logits use.

``train`` is one loop pass per step: draw a sample, deal a group of tuples,
read their rewards from the table, normalize them within the group into
advantages (``group_advantages``), take one ``policy_step`` on the logits,
then record the group's mean components, the policy's expected reward and
its mass on the optimum in one ``TraceStep``. A step moves only the dealt
logits, so ``train`` keeps each arm's ``exp(logit - max(logits))`` across
steps and recomputes it for the dealt arms only, or for every arm when the
max moves. These are the operands ``_softmax`` would use, so each trace value
is bit for bit the one a fresh softmax per step gives. Random numbers are
drawn only in ``train``, and only with ``random.Random.random``, the one
method whose sequence Python guarantees for a given seed across versions.
The sums go through ``math.fsum``, which is correctly rounded on every
Python version (the built-in ``sum`` of floats rounds differently from 3.12
on).

``policy_step`` ascends the likelihood-ratio gradient of the surrogate
``sum_i a_i * log softmax(logits)[k_i]`` without its zero-sum term. A group's
normalized advantages sum to zero, so the term ``-softmax(logits) *
sum(advantages)`` is zero up to rounding, and each step adds ``lr * a_i`` to
the logit of each dealt arm ``k_i``. The policy never feeds back into its own
updates, so the sandbox is a bandit ranked by each arm's summed advantage,
and the policy is the softmax of that running sum.

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
``render`` reads a sample's tokens, its entity spans (``metrics._occurrences``,
the search keyword recall uses) and each block's corruption order from
``_render_plan``, which derives them once per sample content, not once per
tuple.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from operator import mul, truediv
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .data import Record, Sample, _as_number, read_json, read_samples, resolve_data_path
from .errors import ToolkitError
from .metrics import EntityRef, _occurrences
from .rewards import RewardWeights, total_reward
from .structured import ANSWER_CLOSE, serialize_structured
from .textnorm import normalize_tokenize

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


def _softmax(logits: Sequence[float]) -> list[float]:
    """The probabilities of a logits list; the max is subtracted first, so no ``exp`` overflows."""
    top = max(logits)
    e = [math.exp(z - top) for z in logits]
    norm = math.fsum(e)
    return [x / norm for x in e]


# ---------------------------------------------------------------------------
# rendering behavior tuples into concrete rollouts


def _garbage(i: int) -> str:
    # Reserved shape: survives normalization, never resembles fixture entities.
    return f"xq{i}z"


def _entity_spans(tokens: tuple[str, ...], entity_token_lists: list[tuple[str, ...]]):
    """(each entity's occurrence spans, the block's corruption order).

    The spans are ``metrics._occurrences`` of each entity; the order is the
    positions they cover, ascending, then the other positions, ascending.
    """
    spans = tuple(tuple((i, i + len(needle)) for i in _occurrences(needle, tokens))
                  for needle in entity_token_lists)
    covered = {p for mine in spans for start, stop in mine for p in range(start, stop)}
    return spans, tuple(sorted(covered)) + tuple(p for p in range(len(tokens)) if p not in covered)


def _substitute(tokens: list[str], positions: Sequence[int]) -> None:
    for p in positions:
        tokens[p] = _garbage(p)


@functools.lru_cache(maxsize=64)
def _render_plan(sample_id: str, slide_text: str, transcript_gt: str, entities: tuple[str, ...]):
    """``(slide, think_order, transcript, spans_tr, answer_order)``: one sample's
    slide tokens and their corruption order, then its transcript tokens, each
    entity's spans in them and their corruption order (``_entity_spans``).
    This is what ``render`` reads, whatever the tuple."""
    slide = normalize_tokenize(slide_text)
    transcript = normalize_tokenize(transcript_gt)
    # an entity that normalizes to nothing raises "empty-entity", as in scoring
    entity_tokens = [EntityRef.from_surface(e).tokens for e in entities]
    if len(entity_tokens) < 2 or len(transcript) < 8:
        raise ToolkitError(
            "sample-too-small",
            f"sample {sample_id}: need >= 2 entities and >= 8 transcript tokens",
        )
    _, think_order = _entity_spans(slide, entity_tokens)
    return (slide, think_order, transcript, *_entity_spans(transcript, entity_tokens))


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
    follow from the grades alone. ``_render_plan`` is cached on the content.
    """
    slide, think_order, transcript, spans_tr, answer_order = _render_plan(
        sample.id, sample.slide_text, sample.transcript_gt, tuple(sample.entities))

    # think block: corrupt ceil(n * (1 - grade)) slide tokens, entity-first
    think = list(slide)
    _substitute(think, think_order[:math.ceil(len(slide) * (1.0 - tup.ocr_level))])

    # answer block: the anchoring grade corrupts trailing entities in every
    # occurrence; the ASR grade then tops corruption up to its token fraction,
    # remaining entity tokens first
    answer = list(transcript)
    n_keep = int(len(spans_tr) * tup.anchor_level + 0.5)
    anchored_out = {p for spans in spans_tr[n_keep:] for start, stop in spans for p in range(start, stop)}
    _substitute(answer, sorted(anchored_out))
    extra = math.ceil(len(transcript) * (1.0 - tup.asr_level)) - len(anchored_out)
    if extra > 0:
        _substitute(answer, [p for p in answer_order if p not in anchored_out][:extra])

    rollout = serialize_structured(" ".join(think), " ".join(answer))
    return rollout if tup.format_ok else rollout[: -len(ANSWER_CLOSE)]


# ---------------------------------------------------------------------------
# group-relative advantages and the policy update

_STD_FLOOR = 1e-8


def group_advantages(rewards: Sequence[float]) -> list[float]:
    """(r - mean) / population std of one group; all zeros for a flat group."""
    n = len(rewards)
    if n < 2:
        raise ToolkitError("degenerate-group", "need at least 2 rollouts per group")
    # Rewards above ~1e154 (finite but huge weights) overflow the squares, and
    # a group sum near 1e308 overflows the mean (fsum raises OverflowError on
    # an intermediate overflow): report either as one error record instead of,
    # for an infinite std, all-zero advantages.
    try:
        mean = math.fsum(rewards) / n
        deviations = [r - mean for r in rewards]
        std = math.sqrt(math.fsum(d * d for d in deviations) / n)
    except OverflowError:
        std = math.inf
    if not math.isfinite(std):
        raise ToolkitError("numerical", "group reward spread overflows")
    if std < _STD_FLOOR:
        return [0.0] * n
    return [d / std for d in deviations]


def policy_step(logits: Sequence[float], indices: Sequence[int], advantages: Sequence[float],
                lr: float) -> list[float]:
    """The logits after one step: ``lr * a_i`` added to the logit of each dealt arm ``k_i``.

    This is the surrogate's gradient ascent step without its zero-sum term
    (see the module docstring); an arm dealt twice gets both advantages.
    """
    if lr <= 0:
        raise ToolkitError("bad-config", "lr must be > 0")
    new = list(logits)
    for k, a in zip(indices, advantages):
        new[k] += lr * a
    # A non-finite advantage, or a step that overflows (a huge lr), leaves a
    # non-finite logit on a dealt arm: one error record, not a broken trace.
    if not all(math.isfinite(new[k]) for k in indices):
        raise ToolkitError("numerical", "non-finite policy gradient or logits")
    return new


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
    """One step's trace row; the fields are the trace columns, in order.

    The ``mean_*`` columns average the group the balanced dealer dealt, not the
    policy: on the shipped config at seed 0 ``mean_reward`` stays near 1.0 while
    ``expected_reward`` goes 1.747 -> 3.997 (means of steps 0-99 and 1900-1999).
    """

    step: int
    mean_reward: float  # mean over the sampled group
    expected_reward: float  # exact expectation under the current policy
    mean_format: float
    mean_ocr: float
    mean_asr: float
    mean_va: float
    p_optimal: float


class TrainTrace(Record):
    def __init__(self, steps: list[TraceStep], seed: int, config: dict, final_logits: list[float]):
        self.steps = steps
        self.seed = seed
        self.config = config
        self.final_logits = final_logits  # the policy after the last step, one logit per arm

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


def expected_grades(logits: Sequence[float]) -> dict[str, float]:
    """Expected grade per behavior axis under the policy ``softmax(logits)``, plus its mass on the optimum."""
    p = _softmax(logits)
    grades = [math.fsum(map(mul, p, column)) for column in zip(*ALL_TUPLES)]  # one per BehaviorTuple field
    return {
        **dict(zip(("format_rate", "ocr_level", "asr_level", "anchor_level"), grades)),
        "p_optimal": p[ALL_TUPLES.index(OPTIMAL_TUPLE)],
    }


def _balanced_deals(rng: random.Random, arms: int) -> Iterator[int]:
    """Arm indices from rng-shuffled without-replacement cycles over ``range(arms)``.

    Each cycle is a Fisher-Yates shuffle drawn with ``rng.random()`` alone. The
    next cycle is shuffled only when its first index is requested; shuffling
    earlier would reorder the draws ``train`` shares this rng with.
    """
    while True:
        cycle = list(range(arms))
        for i in range(arms - 1, 0, -1):
            j = int(rng.random() * (i + 1))
            cycle[i], cycle[j] = cycle[j], cycle[i]
        yield from cycle


# The fields of each reward_matrix entry, in order.
REWARD_COLUMNS = ("r_format", "r_ocr", "r_asr", "r_va")


def reward_matrix(samples: Sequence[Sample]) -> list[list[tuple]]:
    """Render and score every (sample, behavior tuple) pair exactly once.

    Returns one list per sample of one tuple per arm: entry ``[si][k]`` holds
    the weight-free reward components (``REWARD_COLUMNS``) of sample ``si``
    rendered under ``ALL_TUPLES[k]``.
    """
    return [
        [tuple(getattr(b, col) for col in REWARD_COLUMNS)
         for b in (total_reward(sample, render(tup, sample)) for tup in ALL_TUPLES)]
        for sample in samples
    ]


def train(config: SimConfig) -> TrainTrace:
    """Read the samples, build the reward table once, then run the sample ->
    deal -> update loop over the table's arms, one step per pass.

    Every step reads its group's rewards, the trace's mean components and the
    policy's expected reward from the same table. Each step draws its sample,
    then its group. Reproducible from the seed.
    """
    samples = read_samples(resolve_data_path(config.samples))
    if not samples:
        raise ToolkitError("bad-config", f"no samples in {config.samples}")
    if config.steps < 1 or config.group_size < 2 or config.seed < 0:
        raise ToolkitError("bad-config", "need steps >= 1, group_size >= 2 and seed >= 0")
    if not 0 < config.lr < math.inf:
        raise ToolkitError("bad-config", "lr must be finite and > 0")
    weigh = config.weights.weigh
    table = [[(*row, weigh(*row)) for row in rows] for rows in reward_matrix(samples)]
    totals = [[row[-1] for row in rows] for rows in table]
    rng = random.Random(config.seed)
    arms = len(table[0])
    optimum = ALL_TUPLES.index(OPTIMAL_TUPLE)
    deals = _balanced_deals(rng, arms)
    logits = [0.0] * arms
    top, e = 0.0, [1.0] * arms  # e[k] = exp(logits[k] - top), as _softmax computes it
    trace: list[TraceStep] = []
    for step in range(config.steps):
        si = int(rng.random() * len(table))
        rows = table[si]
        indices = list(itertools.islice(deals, config.group_size))
        group = [rows[k] for k in indices]
        advantages = group_advantages([row[-1] for row in group])
        logits = policy_step(logits, indices, advantages, config.lr)
        last, top = top, max(logits)
        if top == last:  # only the dealt logits moved
            for k in indices:
                e[k] = math.exp(logits[k] - top)
        else:
            e = [math.exp(z - top) for z in logits]
        norm = math.fsum(e)
        r_format, r_ocr, r_asr, r_va, total = (math.fsum(column) / len(group) for column in zip(*group))
        expected = math.fsum(map(mul, map(truediv, e, itertools.repeat(norm)), totals[si]))
        trace.append(TraceStep(step, total, expected, r_format, r_ocr, r_asr, r_va, e[optimum] / norm))
    return TrainTrace(steps=trace, seed=config.seed, config=config.snapshot(), final_logits=logits)
