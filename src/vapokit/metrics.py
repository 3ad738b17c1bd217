"""Edit-distance alignment and the error-rate metric family.

Covers plain WER, the keyword-partitioned B-WER/U-WER pair with keyword
recall, and the entity metrics NE-WER / NE-FNR built on fuzzy entity
matching. All functions are pure; metrics whose reference set is empty are
reported as absent (None), never as zero.

Each metric is a ratio of raw tallies: ``_tally`` counts one sample (one
alignment, one fuzzy match per entity) as a (numerator, denominator) pair per
metric, and ``_ratios`` divides. Reports, corpus aggregates and every
standalone metric but ``wer`` share both.

Every edit distance comes from one bit-parallel kernel, ``_columns`` (Myers
1999, in Hyyro's 2001 Levenshtein form): each hypothesis token advances the
vertical-delta bit vectors (VP, VN) of one DP column, with the reference
positions as bits of a Python int, so there is no length limit.
``token_edit_distance`` trims the common prefix and suffix and keeps the last
column only; ``align`` trims the common suffix, keeps every column and traces
back, reading each DP cell from its column's popcounts.

Where a token span occurs is answered in one place: ``_find_exact_span``
finds the leftmost occurrence, and ``_occurrences`` enumerates the leftmost
non-overlapping ones. Fuzzy matching, keyword recall, the builder's coverage
checks and the policy sandbox's render plan all read these two.
``_keyword_spans`` is the exception: greedy leftmost-longest matching over
several keywords needs overlapping candidates, so it keeps its own index.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .data import Record
from .errors import ToolkitError
from .textnorm import normalize_tokenize, tokenize_output

Op = tuple[str, int | None, int | None]  # ("hit"|"sub"|"del"|"ins", ref_i, hyp_i)


def _columns(reference: tuple[str, ...], hypothesis: tuple[str, ...]):
    """Yield the vertical deltas (VP_j, VN_j) of DP columns j = 0..len(hypothesis).

    Bit-parallel Levenshtein (Myers 1999, in Hyyro's 2001 form). Bit i-1 of
    VP_j (VN_j) is set when d[i][j] - d[i-1][j] is +1 (-1), where d[i][j] is
    the distance between reference[:i] and hypothesis[:j]. Python ints hold
    any reference length; every complement is masked to len(reference) bits.
    """
    mask = (1 << len(reference)) - 1
    peq: dict[str, int] = {}
    for i, tok in enumerate(reference):
        peq[tok] = peq.get(tok, 0) | (1 << i)
    vp, vn = mask, 0
    yield vp, vn
    for tok in hypothesis:
        eq = peq.get(tok, 0)
        d0 = ((((eq & vp) + vp) ^ vp) | eq | vn) & mask
        hp = vn | ~(d0 | vp) & mask
        hn = d0 & vp
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(d0 | hp)) & mask
        vn = hp & d0
        yield vp, vn


def token_edit_distance(reference: Sequence[str], hypothesis: Sequence[str]) -> int:
    """Levenshtein distance between token sequences (unit costs).

    A common prefix or suffix leaves the distance unchanged, so both are
    trimmed first; the kernel runs on what differs.
    """
    a = tuple(reference)
    b = tuple(hypothesis)
    n = min(len(a), len(b))
    lo = 0
    while lo < n and a[lo] == b[lo]:
        lo += 1
    hi = 0
    while hi < n - lo and a[-1 - hi] == b[-1 - hi]:
        hi += 1
    a = a[lo : len(a) - hi]
    b = b[lo : len(b) - hi]
    if not a or not b:
        return len(a) + len(b)
    if len(a) < len(b):  # one kernel step per token of the shorter sequence
        a, b = b, a
    for vp, vn in _columns(a, b):
        pass
    return len(b) + vp.bit_count() - vn.bit_count()


class Alignment(NamedTuple):
    """Minimum-cost token alignment with per-op trace.

    Satisfies hits + substitutions + deletions == len(reference) and
    hits + substitutions + insertions == len(hypothesis).
    """

    substitutions: int
    deletions: int
    insertions: int
    hits: int
    ops: tuple[Op, ...]

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions


def align(reference, hypothesis) -> Alignment:
    """Minimum-cost alignment under unit costs with a deterministic trace.

    Tie-break during traceback: hit/substitution (diagonal) first, then
    deletion (consumes the reference token), then insertion.

    Under unit costs, equal tokens at (i, j) give d(i, j) = d(i-1, j-1), so
    the traceback takes them as a hit without reading the table. A common
    suffix is such a run of hits, aligned without running the kernel over it.
    A common prefix is not trimmed, because the traceback may pair a prefix
    token with a later equal one: ("a",) against ("a", "a") is an insertion
    of hypothesis token 0, then a hit on token 1.
    """
    ref = tuple(reference)
    hyp = tuple(hypothesis)
    n = min(len(ref), len(hyp))
    # Trimmed for speed: the 3000 seed-0 eval-short-en pairs align in 32-33 ms, and in 39 ms untrimmed.
    suffix = 0
    while suffix < n and ref[-1 - suffix] == hyp[-1 - suffix]:
        suffix += 1
    tail = [("hit", len(ref) - k, len(hyp) - k) for k in range(suffix, 0, -1)]
    ref = ref[: len(ref) - suffix]
    hyp = hyp[: len(hyp) - suffix]
    cols = list(_columns(ref, hyp))

    def d(i: int, j: int) -> int:
        vp, vn = cols[j]
        low = (1 << i) - 1
        return j + (vp & low).bit_count() - (vn & low).bit_count()

    ops: list[Op] = []
    i, j = len(ref), len(hyp)
    cost = d(i, j)
    subs = dels = ins = hits = 0
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            if ref[i - 1] == hyp[j - 1]:
                ops.append(("hit", i - 1, j - 1))
                hits += 1
                i -= 1
                j -= 1
                continue
            if cost == d(i - 1, j - 1) + 1:
                ops.append(("sub", i - 1, j - 1))
                subs += 1
                i -= 1
                j -= 1
                cost -= 1
                continue
        if i > 0 and cols[j][0] >> (i - 1) & 1:  # d[i][j] == d[i-1][j] + 1
            ops.append(("del", i - 1, None))
            dels += 1
            i -= 1
            cost -= 1
            continue
        ops.append(("ins", None, j - 1))
        ins += 1
        j -= 1
        cost -= 1
    ops.reverse()
    return Alignment(subs, dels, ins, hits + suffix, tuple(ops + tail))


def wer(reference, hypothesis) -> float:
    """(S + D + I) / len(reference). May exceed 1."""
    ref = tuple(reference)
    if not ref:
        raise ToolkitError("undefined-wer", "WER needs a nonempty reference")
    return token_edit_distance(ref, tuple(hypothesis)) / len(ref)


# ---------------------------------------------------------------------------
# entity references and fuzzy matching


class _EntityFields(NamedTuple):
    surface: str
    tokens: tuple[str, ...]


class EntityRef(_EntityFields):
    """A keyword/entity surface with its tokenization.

    The edit budget follows from the token count alone: a single-token
    entity may be one character edit away, a longer one must match exactly.
    An entity without tokens is "empty-entity".
    """

    __slots__ = ()

    def __new__(cls, surface: str, tokens: tuple[str, ...]) -> "EntityRef":
        if not tokens:
            raise ToolkitError("empty-entity", f"entity normalizes to nothing: {surface!r}")
        return tuple.__new__(cls, (surface, tokens))

    @property
    def token_count(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_surface(cls, surface: str) -> "EntityRef":
        return cls(surface=surface, tokens=normalize_tokenize(surface))


class FuzzyMatch(NamedTuple):
    start: int
    stop: int  # exclusive token index
    distance: int  # 0 or 1


def _within_one_edit(a: str, b: str) -> bool:
    """True when at most one character insertion, deletion or substitution turns a into b."""
    if len(a) > len(b):
        a, b = b, a
    if len(b) - len(a) > 1:
        return False
    i = 0
    while i < len(a) and a[i] == b[i]:
        i += 1
    return a[i + (len(a) == len(b)) :] == b[i + 1 :]


def fuzzy_find(entity: EntityRef, text) -> FuzzyMatch | None:
    """Where ``entity`` occurs in the token sequence ``text``, or None.

    A single-token entity matches the leftmost equal token, else the leftmost
    token one character edit away (distance 1). A longer entity matches only
    its leftmost exact span. The paper's one-edit budget is loose on short
    tokens: "rna" matches "dna", and a one-character entity (a single Han
    character, say) matches any one-character token.
    """
    toks = tuple(text)
    if entity.token_count > 1:
        start = _find_exact_span(entity.tokens, toks)
        return None if start < 0 else FuzzyMatch(start, start + entity.token_count, 0)
    ent = entity.tokens[0]
    # ``in`` and ``index`` beat ``_find_exact_span`` here: 33-35 against 38-39 ms on eval-short-en's calls.
    if ent in toks:
        i = toks.index(ent)
        return FuzzyMatch(i, i + 1, 0)
    for i, tok in enumerate(toks):
        if _within_one_edit(ent, tok):
            return FuzzyMatch(i, i + 1, 1)
    return None


def _find_exact_span(needle: tuple[str, ...], toks: tuple[str, ...], start: int = 0) -> int:
    """Start of the leftmost occurrence of the nonempty ``needle`` in ``toks``
    at or after ``start``, or -1."""
    k = len(needle)
    stop = len(toks) - k + 1  # past the last start with room for the needle
    i = start
    try:
        while True:
            i = toks.index(needle[0], i, stop)
            if toks[i : i + k] == needle:
                return i
            i += 1
    except ValueError:  # no candidate start left
        return -1


def _occurrences(needle: tuple[str, ...], toks: tuple[str, ...]):
    """Yield the starts of the leftmost non-overlapping occurrences of the
    nonempty ``needle`` in ``toks``, ascending: each search resumes past the
    last match."""
    i = _find_exact_span(needle, toks)
    while i >= 0:
        yield i
        i = _find_exact_span(needle, toks, i + len(needle))


# ---------------------------------------------------------------------------
# keyword partition: B-WER / U-WER / Recall


def _keyword_spans(ref: tuple[str, ...], keywords: Sequence[EntityRef]) -> list[tuple[int, int, EntityRef]]:
    """Greedy leftmost-longest, non-overlapping keyword spans in ``ref``.

    The keywords are indexed by first token, longest first (ties in list
    order), so each position tries only the keywords that can start there.
    """
    by_first: dict[str, list[tuple[int, EntityRef]]] = {}
    for ent in sorted(keywords, key=lambda e: -len(e.tokens)):
        by_first.setdefault(ent.tokens[0], []).append((len(ent.tokens), ent))
    spans: list[tuple[int, int, EntityRef]] = []
    i = 0
    while i < len(ref):
        for k, ent in by_first.get(ref[i], ()):
            if ref[i : i + k] == ent.tokens:
                spans.append((i, i + k, ent))
                i += k
                break
        else:
            i += 1
    return spans


def _partition_counts(ref: tuple[str, ...], spans: Sequence[tuple[int, int, EntityRef]], alignment: Alignment):
    """(keyword_errors, keyword_tokens, other_errors, other_tokens).

    ``spans`` are the reference's keyword spans from ``_keyword_spans`` and
    ``alignment`` is ``align(ref, hypothesis)``. Each edit takes the label of
    the last reference position at or before it: a substitution or deletion
    its own token, an insertion the nearest preceding one (-1, non-keyword,
    before the first).
    """
    keyword = {i for start, stop, _ in spans for i in range(start, stop)}
    kw_err = other_err = 0
    last_ref = -1
    for kind, ri, _hi in alignment.ops:
        if ri is not None:
            last_ref = ri
        if kind != "hit":
            if last_ref in keyword:
                kw_err += 1
            else:
                other_err += 1
    return kw_err, len(keyword), other_err, len(ref) - len(keyword)


def partitioned_wer(reference, hypothesis, keywords: Iterable[EntityRef]) -> tuple[float | None, float | None]:
    """(B-WER over keyword tokens, U-WER over the rest).

    Either side is None when its reference partition is empty.
    """
    report = _ratios(_tally(tuple(reference), tuple(hypothesis), list(keywords), ("bwer", "uwer")))
    return report.b_wer, report.u_wer


def _recall_counts(hyp, spans: Sequence[tuple[int, int, EntityRef]]) -> tuple[int, int]:
    """(occurrences reproduced verbatim in ``hyp``, occurrences) of the reference's keyword ``spans``.

    Each keyword takes its leftmost non-overlapping occurrences in ``hyp``
    (``_occurrences``), up to its count in the reference.
    """
    occurrences: dict[tuple[str, ...], int] = {}
    for _, _, ent in spans:
        occurrences[ent.tokens] = occurrences.get(ent.tokens, 0) + 1
    recalled = 0
    for needle, count in occurrences.items():
        for _ in zip(range(count), _occurrences(needle, hyp)):
            recalled += 1
    return recalled, len(spans)


def keyword_recall(reference, hypothesis, keywords: Iterable[EntityRef]) -> float | None:
    """Fraction of keyword occurrences in the reference reproduced verbatim.

    Hypothesis occurrences are consumed: a keyword appearing twice in the
    reference needs two hypothesis occurrences for full credit. None when the
    reference contains no keyword occurrence.
    """
    kws = list(keywords)
    if not kws:
        raise ToolkitError("no-keywords", "keyword recall needs a nonempty keyword set")
    return _ratios(_tally(tuple(reference), tuple(hypothesis), kws, ("recall",))).recall


# ---------------------------------------------------------------------------
# entity metrics: NE-WER / NE-FNR


def _entity_counts(entities: Sequence[EntityRef], hyp: tuple[str, ...]) -> tuple[int, int, int]:
    """(entity-span errors, entity tokens, entities found), one fuzzy match per entity."""
    errors = tokens = found = 0
    for ent in entities:
        tokens += ent.token_count
        match = fuzzy_find(ent, hyp)
        if match is None:
            errors += ent.token_count
        else:
            found += 1
            errors += match.distance
    return errors, tokens, found


def ne_wer(entities: Iterable[EntityRef], hypothesis) -> float:
    """Token error rate restricted to entity spans.

    Each entity occurrence either contributes the edit distance of its fuzzy
    match in the hypothesis, or counts as fully deleted; the denominator is
    the total entity token count.
    """
    ents = list(entities)
    if not ents:
        raise ToolkitError("no-entities", "NE-WER needs a nonempty entity list")
    return _ratios(_tally((), tuple(hypothesis), ents, ("newer",))).ne_wer


def ne_fnr(entities: Iterable[EntityRef], hypothesis) -> float:
    """1 - (entities fuzzily found in the hypothesis) / (all entities)."""
    ents = list(entities)
    if not ents:
        raise ToolkitError("no-entities", "NE-FNR needs a nonempty entity list")
    return _ratios(_tally((), tuple(hypothesis), ents, ("nefnr",))).ne_fnr


# ---------------------------------------------------------------------------
# tallies, ratios, per-sample reports and corpus aggregation

# Each ``--metrics`` name and the MetricReport field that holds its value.
_FIELDS = {
    "wer": "wer",
    "bwer": "b_wer",
    "uwer": "u_wer",
    "recall": "recall",
    "newer": "ne_wer",
    "nefnr": "ne_fnr",
}
ALL_METRICS = tuple(_FIELDS)


def check_metrics(metrics: Sequence[str]) -> None:
    """Raise "unknown-metric" for an empty request or a name outside ``ALL_METRICS``."""
    if not metrics:
        raise ToolkitError("unknown-metric", "no metrics requested")
    unknown = set(metrics) - set(_FIELDS)
    if unknown:
        raise ToolkitError("unknown-metric", f"unknown metrics: {sorted(unknown)}")


class MetricReport(Record):
    """Metric values plus the raw tallies they were derived from.

    ``counts`` maps each requested metric name to its (numerator,
    denominator) pair, and the values are ``_ratios(counts)``, for one sample
    and for a corpus aggregate alike (pairs summed, then divided: a
    micro-average). NE-FNR's numerator counts the entities found, and its
    value is one minus the ratio. Absent metrics (not requested, empty
    reference partition, no entities) are None.
    """

    def __init__(
        self,
        wer: float | None = None,
        b_wer: float | None = None,
        u_wer: float | None = None,
        recall: float | None = None,
        ne_wer: float | None = None,
        ne_fnr: float | None = None,
        counts: dict[str, tuple[int, int]] | None = None,
    ):
        self.wer = wer
        self.b_wer = b_wer
        self.u_wer = u_wer
        self.recall = recall
        self.ne_wer = ne_wer
        self.ne_fnr = ne_fnr
        self.counts = {} if counts is None else counts

    def as_dict(self) -> dict:
        return {field: getattr(self, field) for field in _FIELDS.values()}


def _tally(
    ref: tuple[str, ...], hyp: tuple[str, ...], ents: Sequence[EntityRef], metrics: Sequence[str]
) -> dict[str, tuple[int, int]]:
    """One (numerator, denominator) pair per requested metric, computing only what they need.

    One alignment serves WER and the B/U partition; one keyword-span pass
    serves the B/U partition and recall; one fuzzy match per entity serves
    NE-WER and NE-FNR. The entity list doubles as the keyword list.
    """
    pairs: dict[str, tuple[int, int]] = {}
    if "wer" in metrics or "bwer" in metrics or "uwer" in metrics:
        alignment = align(ref, hyp)
        pairs["wer"] = (alignment.errors, len(ref))
    if "bwer" in metrics or "uwer" in metrics or "recall" in metrics:
        spans = _keyword_spans(ref, ents)
    if "bwer" in metrics or "uwer" in metrics:
        kw_err, kw_tok, other_err, other_tok = _partition_counts(ref, spans, alignment)
        pairs["bwer"] = (kw_err, kw_tok)
        pairs["uwer"] = (other_err, other_tok)
    if "recall" in metrics:
        pairs["recall"] = _recall_counts(hyp, spans)
    if "newer" in metrics or "nefnr" in metrics:
        errors, tokens, found = _entity_counts(ents, hyp)
        pairs["newer"] = (errors, tokens)
        pairs["nefnr"] = (found, len(ents))
    return {name: pairs[name] for name in metrics}


def _ratios(counts: dict[str, tuple[int, int]]) -> MetricReport:
    """Metric values for the pairs present; None where a denominator is 0."""
    report = MetricReport(counts=counts)
    for name, (numerator, denominator) in counts.items():
        if denominator:
            value = numerator / denominator
            setattr(report, _FIELDS[name], 1.0 - value if name == "nefnr" else value)
    return report


def sample_report(
    sample,
    hypothesis_text: str,
    *,
    metrics: Sequence[str] = ALL_METRICS,
) -> MetricReport:
    """Score one hypothesis against one Sample.

    The sample's entity list doubles as the keyword list for the partitioned
    metrics.
    """
    check_metrics(metrics)
    ref = normalize_tokenize(sample.transcript_gt)
    hyp = tokenize_output(hypothesis_text)
    if not ref:
        raise ToolkitError("undefined-wer", f"sample {sample.id}: empty reference transcript")
    ents = [EntityRef.from_surface(e) for e in sample.entities]
    return _ratios(_tally(ref, hyp, ents, metrics))


def aggregate_reports(reports: Iterable[MetricReport]) -> MetricReport:
    """Micro-average: sum each metric's pairs across samples, then ``_ratios``.

    ``reports`` is read once, so it may be a generator.
    """
    sums: dict[str, tuple[int, int]] = {}
    for rep in reports:
        for name, (numerator, denominator) in rep.counts.items():
            total = sums.get(name, (0, 0))
            sums[name] = (total[0] + numerator, total[1] + denominator)
    return _ratios(sums)
