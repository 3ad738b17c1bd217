"""Edit-distance alignment and the error-rate metric family.

Covers plain WER, the keyword-partitioned B-WER/U-WER pair with keyword
recall, and the entity metrics NE-WER / NE-FNR built on fuzzy entity
matching. All functions are pure; metrics whose reference set is empty are
reported as absent (None), never as zero.

Each metric is a ratio of raw tallies: ``_tally`` counts one sample (one
alignment, one fuzzy match per entity) and ``_ratios`` divides. Reports,
corpus aggregates and every standalone metric but ``wer`` share both.

Every edit distance comes from one bit-parallel kernel, ``_columns`` (Myers
1999, in Hyyro's 2001 Levenshtein form): each hypothesis token advances the
vertical-delta bit vectors (VP, VN) of one DP column, with the reference
positions as bits of a Python int, so there is no length limit.
``token_edit_distance`` keeps the last column only; ``align`` keeps them all
and traces back, reading each DP cell from its column's popcounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ToolkitError
from .textnorm import normalize_tokenize

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
    """Levenshtein distance between token sequences (unit costs)."""
    a = tuple(reference)
    b = tuple(hypothesis)
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):  # one kernel step per token of the shorter sequence
        a, b = b, a
    for vp, vn in _columns(a, b):
        pass
    return len(b) + vp.bit_count() - vn.bit_count()


@dataclass(frozen=True)
class Alignment:
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
    """
    ref = tuple(reference)
    hyp = tuple(hypothesis)
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
            diag = d(i - 1, j - 1)
            if ref[i - 1] == hyp[j - 1] and cost == diag:
                ops.append(("hit", i - 1, j - 1))
                hits += 1
                i -= 1
                j -= 1
                continue
            if cost == diag + 1:
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
    return Alignment(subs, dels, ins, hits, tuple(ops))


def wer(reference, hypothesis) -> float:
    """(S + D + I) / len(reference). May exceed 1."""
    ref = tuple(reference)
    if not ref:
        raise ToolkitError("undefined-wer", "WER needs a nonempty reference")
    return token_edit_distance(ref, tuple(hypothesis)) / len(ref)


# ---------------------------------------------------------------------------
# entity references and fuzzy matching


@dataclass(frozen=True)
class EntityRef:
    """A keyword/entity surface with its tokenization.

    The edit budget follows from the token count alone: a single-token
    entity may be one character edit away, a longer one must match exactly.
    """

    surface: str
    tokens: tuple[str, ...]

    @property
    def token_count(self) -> int:
        return len(self.tokens)

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ToolkitError("empty-entity", f"entity normalizes to nothing: {self.surface!r}")

    @classmethod
    def from_surface(cls, surface: str) -> "EntityRef":
        return cls(surface=surface, tokens=normalize_tokenize(surface))


@dataclass(frozen=True)
class FuzzyMatch:
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
    if ent in toks:
        i = toks.index(ent)
        return FuzzyMatch(i, i + 1, 0)
    for i, tok in enumerate(toks):
        if _within_one_edit(ent, tok):
            return FuzzyMatch(i, i + 1, 1)
    return None


def _find_exact_span(needle: tuple[str, ...], toks: tuple[str, ...], start: int = 0) -> int:
    k = len(needle)
    for i in range(start, len(toks) - k + 1):
        if toks[i : i + k] == needle:
            return i
    return -1


# ---------------------------------------------------------------------------
# keyword partition: B-WER / U-WER / Recall


def _keyword_spans(ref: tuple[str, ...], keywords: Sequence[EntityRef]) -> list[tuple[int, int, EntityRef]]:
    """Greedy leftmost-longest, non-overlapping keyword spans in ``ref``."""
    by_len = sorted(((len(e.tokens), e) for e in keywords), key=lambda pair: -pair[0])
    spans: list[tuple[int, int, EntityRef]] = []
    i = 0
    while i < len(ref):
        for k, ent in by_len:
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
    ``alignment`` is ``align(ref, hypothesis)``. Substitutions and deletions
    take the label of their reference token; insertions take the label of the
    nearest preceding reference token (sentence-initial insertions count as
    non-keyword).
    """
    is_kw = [False] * len(ref)
    for start, stop, _ in spans:
        for i in range(start, stop):
            is_kw[i] = True
    kw_err = other_err = 0
    last_ref = -1
    for kind, ri, _hi in alignment.ops:
        if kind == "hit":
            last_ref = ri
        elif kind in ("sub", "del"):
            if is_kw[ri]:
                kw_err += 1
            else:
                other_err += 1
            last_ref = ri
        else:  # ins
            if last_ref >= 0 and is_kw[last_ref]:
                kw_err += 1
            else:
                other_err += 1
    kw_tokens = sum(is_kw)
    return kw_err, kw_tokens, other_err, len(ref) - kw_tokens


def partitioned_wer(reference, hypothesis, keywords: Iterable[EntityRef]) -> tuple[float | None, float | None]:
    """(B-WER over keyword tokens, U-WER over the rest).

    Either side is None when its reference partition is empty.
    """
    report = _ratios(_tally(tuple(reference), tuple(hypothesis), list(keywords), ("bwer", "uwer")))
    return report.b_wer, report.u_wer


def _recall_counts(hyp, spans: Sequence[tuple[int, int, EntityRef]]) -> tuple[int, int]:
    """(occurrences reproduced verbatim in ``hyp``, occurrences) of the reference's keyword ``spans``."""
    occurrences: dict[tuple[str, ...], int] = {}
    for _, _, ent in spans:
        occurrences[ent.tokens] = occurrences.get(ent.tokens, 0) + 1
    recalled = 0
    total = 0
    for needle, count in occurrences.items():
        total += count
        found = 0
        pos = 0
        while found < count:
            pos = _find_exact_span(needle, hyp, pos)
            if pos < 0:
                break
            found += 1
            pos += len(needle)
        recalled += found
    return recalled, total


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

ALL_METRICS = ("wer", "bwer", "uwer", "recall", "newer", "nefnr")


@dataclass
class MetricReport:
    """Metric values plus the raw tallies they were derived from.

    Values are ``_ratios(counts)``, for one sample and for a corpus aggregate
    alike (tallies summed, then divided: a micro-average). Absent metrics
    (empty reference partition, no entities) are None.
    """

    wer: float | None = None
    b_wer: float | None = None
    u_wer: float | None = None
    recall: float | None = None
    ne_wer: float | None = None
    ne_fnr: float | None = None
    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "wer": self.wer,
            "b_wer": self.b_wer,
            "u_wer": self.u_wer,
            "recall": self.recall,
            "ne_wer": self.ne_wer,
            "ne_fnr": self.ne_fnr,
        }


def _tally(
    ref: tuple[str, ...], hyp: tuple[str, ...], ents: Sequence[EntityRef], metrics: Sequence[str]
) -> dict[str, dict[str, int]]:
    """Raw counts for the requested metrics, computing only what they need.

    One alignment serves WER and the B/U partition; one keyword-span pass
    serves the B/U partition and recall; one fuzzy match per entity serves
    NE-WER and NE-FNR. The entity list doubles as the keyword list.
    """
    counts: dict[str, dict[str, int]] = {}
    if "wer" in metrics or "bwer" in metrics or "uwer" in metrics:
        alignment = align(ref, hyp)
    if "wer" in metrics:
        counts["wer"] = {
            "sub": alignment.substitutions,
            "del": alignment.deletions,
            "ins": alignment.insertions,
            "hits": alignment.hits,
            "ref": len(ref),
        }
    if "bwer" in metrics or "uwer" in metrics or "recall" in metrics:
        spans = _keyword_spans(ref, ents)
    if "bwer" in metrics or "uwer" in metrics:
        kw_err, kw_tok, other_err, other_tok = _partition_counts(ref, spans, alignment)
        if "bwer" in metrics:
            counts["bwer"] = {"errors": kw_err, "ref": kw_tok}
        if "uwer" in metrics:
            counts["uwer"] = {"errors": other_err, "ref": other_tok}
    if "recall" in metrics:
        recalled, total = _recall_counts(hyp, spans)
        counts["recall"] = {"recalled": recalled, "occurrences": total}
    if "newer" in metrics or "nefnr" in metrics:
        errors, tokens, found = _entity_counts(ents, hyp)
        if "newer" in metrics:
            counts["newer"] = {"errors": errors, "tokens": tokens}
        if "nefnr" in metrics:
            counts["nefnr"] = {"found": found, "total": len(ents)}
    return counts


def _ratios(counts: dict[str, dict[str, int]]) -> MetricReport:
    """Metric values for the tallies present; None where a denominator is 0."""
    report = MetricReport(counts=counts)
    if "wer" in counts:
        c = counts["wer"]
        report.wer = (c["sub"] + c["del"] + c["ins"]) / c["ref"] if c["ref"] else None
    if "bwer" in counts:
        c = counts["bwer"]
        report.b_wer = c["errors"] / c["ref"] if c["ref"] else None
    if "uwer" in counts:
        c = counts["uwer"]
        report.u_wer = c["errors"] / c["ref"] if c["ref"] else None
    if "recall" in counts:
        c = counts["recall"]
        report.recall = c["recalled"] / c["occurrences"] if c["occurrences"] else None
    if "newer" in counts:
        c = counts["newer"]
        report.ne_wer = c["errors"] / c["tokens"] if c["tokens"] else None
    if "nefnr" in counts:
        c = counts["nefnr"]
        report.ne_fnr = 1.0 - c["found"] / c["total"] if c["total"] else None
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
    unknown = set(metrics) - set(ALL_METRICS)
    if unknown:
        raise ToolkitError("unknown-metric", f"unknown metrics: {sorted(unknown)}")
    ref = normalize_tokenize(sample.transcript_gt)
    hyp = normalize_tokenize(hypothesis_text)
    if not ref:
        raise ToolkitError("undefined-wer", f"sample {sample.id}: empty reference transcript")
    ents = [EntityRef.from_surface(e) for e in sample.entities]
    return _ratios(_tally(ref, hyp, ents, metrics))


def aggregate_reports(reports: Sequence[MetricReport]) -> MetricReport:
    """Micro-average: pool raw tallies across samples, then ``_ratios``."""
    sums: dict[str, dict[str, int]] = {}
    for rep in reports:
        for key, tallies in rep.counts.items():
            bucket = sums.setdefault(key, {})
            for name, value in tallies.items():
                bucket[name] = bucket.get(name, 0) + value
    return _ratios(sums)
