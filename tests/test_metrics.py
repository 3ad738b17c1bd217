from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    char_distance,
    enumerate_alignments_min,
    levenshtein_recursive,
    reference_alignment_ops,
    reference_fuzzy_find,
    reference_keyword_spans,
    reference_recall,
)
from vapokit.data import Sample
from vapokit.errors import ToolkitError
from vapokit.metrics import (
    ALL_METRICS,
    EntityRef,
    FuzzyMatch,
    _find_exact_span,
    _keyword_spans,
    _occurrences,
    _recall_counts,
    aggregate_reports,
    align,
    check_metrics,
    fuzzy_find,
    keyword_recall,
    ne_fnr,
    ne_wer,
    partitioned_wer,
    sample_report,
    token_edit_distance,
    wer,
)
from vapokit.textnorm import normalize_tokenize


def ent(surface: str) -> EntityRef:
    return EntityRef.from_surface(surface)


# ---------------------------------------------------------------------------
# alignment


def test_align_identity():
    a = align(("a", "b", "c"), ("a", "b", "c"))
    assert (a.substitutions, a.deletions, a.insertions, a.hits) == (0, 0, 0, 3)


def test_align_sub_and_insert():
    ref, hyp = ("a", "b", "c"), ("a", "x", "c", "d")
    assert enumerate_alignments_min(ref, hyp) == 2  # oracle for the frozen counts
    a = align(ref, hyp)
    assert (a.substitutions, a.deletions, a.insertions) == (1, 0, 1)


def test_align_single_deletion():
    a = align(("a",), ())
    assert (a.substitutions, a.deletions, a.insertions, a.hits) == (0, 1, 0, 0)
    assert a.ops == (("del", 0, None),)


def test_align_prefers_substitution_over_del_ins():
    a = align(("a",), ("b",))
    assert a.ops == (("sub", 0, 0),)


def test_align_count_identities_and_cost_random():
    rng = random.Random(3)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(2000):
        ref = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        hyp = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        a = align(ref, hyp)
        assert a.hits + a.substitutions + a.deletions == len(ref)
        assert a.hits + a.substitutions + a.insertions == len(hyp)
        assert a.errors == levenshtein_recursive(ref, hyp)


def test_align_cost_equals_full_enumeration_small():
    rng = random.Random(4)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(400):
        ref = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        hyp = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        assert align(ref, hyp).errors == enumerate_alignments_min(ref, hyp)


def test_align_deterministic_ops():
    ref = tuple("abcabc")
    hyp = tuple("axcbcd")
    assert align(ref, hyp).ops == align(ref, hyp).ops


def _kernel_pairs():
    """Seeded (ref, hyp) pairs: lengths 0-150 (across the 64- and 128-bit word
    edges) over 1-6 symbols, random or as edits of the reference, plus 200-token
    pairs, short pairs (where deletion/insertion ties on the trace are common),
    and pairs over 2-3 symbols with a shared prefix and suffix forced on, whose
    middles may be empty or extend them (token_edit_distance trims a common
    prefix and suffix, align a common suffix)."""
    rng = random.Random(11)
    pairs = []
    for _ in range(1000):
        alphabet = "abcdef"[: rng.randint(1, 3)]
        ref = tuple(rng.choices(alphabet, k=rng.randint(0, 8)))
        pairs.append((ref, tuple(rng.choices(alphabet, k=rng.randint(0, 8)))))
    for trial in range(100):
        alphabet = "abcdef"[: rng.randint(1, 6)]
        n = rng.choice((63, 64, 65, 127, 128, 129)) if trial % 4 == 0 else rng.randint(0, 150)
        ref = tuple(rng.choices(alphabet, k=n))
        if trial % 2:
            hyp = tuple(rng.choices(alphabet, k=rng.randint(0, 150)))
        else:
            hyp = tuple(t for t in ref if rng.random() > 0.1)
            hyp = tuple(rng.choice(alphabet) if rng.random() < 0.15 else t for t in hyp)
        pairs.append((ref, hyp))
    for _ in range(3):
        ref = tuple(rng.choices("abcdefghij", k=200))
        hyp = tuple(t for t in ref if rng.random() > 0.05)
        hyp = tuple(rng.choice("abcdefghijk") if rng.random() < 0.2 else t for t in hyp)
        pairs.append((ref, hyp))
    rng = random.Random(31)
    for _ in range(3000):
        alphabet = "abc"[: rng.randint(2, 3)]
        prefix, suffix = (tuple(rng.choices(alphabet, k=rng.randint(0, 4))) for _ in range(2))
        pairs.append(tuple(prefix + tuple(rng.choices(alphabet, k=rng.randint(0, 4))) + suffix for _ in range(2)))
    return pairs


def test_align_and_distance_equal_oracles_random():
    for ref, hyp in _kernel_pairs():
        a = align(ref, hyp)
        ops = reference_alignment_ops(ref, hyp)
        assert a.ops == ops, (ref, hyp)
        kinds = [op[0] for op in ops]
        assert (a.hits, a.substitutions, a.deletions, a.insertions) == tuple(
            kinds.count(k) for k in ("hit", "sub", "del", "ins")
        )
        expected = levenshtein_recursive(ref, hyp)
        assert token_edit_distance(ref, hyp) == expected
        assert token_edit_distance(hyp, ref) == expected


def test_find_exact_span_equals_naive_scan():
    """Leftmost start at or after ``start`` of a nonempty needle, or -1; the
    needle may be longer than the text, sit at its very end, or start with a
    token that recurs, and ``start`` may pass the last room for it."""
    rng = random.Random(32)
    for _ in range(5000):
        toks = tuple(rng.choices("ab", k=rng.randint(0, 8)))
        needle = tuple(rng.choices("ab", k=rng.randint(1, 4)))
        naive = next((i for i in range(len(toks)) if toks[i : i + len(needle)] == needle), -1)
        assert _find_exact_span(needle, toks) == naive, (needle, toks)
        start = rng.randint(0, len(toks) + 1)
        naive = next((i for i in range(start, len(toks)) if toks[i : i + len(needle)] == needle), -1)
        assert _find_exact_span(needle, toks, start) == naive, (needle, toks, start)


def _naive_occurrences(needle: tuple[str, ...], toks: tuple[str, ...]) -> list[int]:
    """Leftmost non-overlapping starts, one position at a time."""
    starts, i = [], 0
    while i + len(needle) <= len(toks):
        if toks[i : i + len(needle)] == needle:
            starts.append(i)
            i += len(needle)
        else:
            i += 1
    return starts


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    needle=st.lists(st.sampled_from(("a", "b")), min_size=1, max_size=4).map(tuple),
    toks=st.lists(st.sampled_from(("a", "b")), max_size=12).map(tuple),
)
# A self-overlapping needle: "a a" occurs at 0 and 1 in "a a a", but only 0 is disjoint.
@example(needle=("a", "a"), toks=("a", "a", "a"))
@example(needle=("a", "b", "a"), toks=("a", "b", "a", "b", "a", "b", "a"))
@example(needle=("a",), toks=("a", "a", "b", "a"))
def test_occurrences_equal_a_naive_scan(needle, toks):
    """Every leftmost non-overlapping occurrence, in order, and no other."""
    assert list(_occurrences(needle, toks)) == _naive_occurrences(needle, toks)


# ---------------------------------------------------------------------------
# wer


def test_wer_identity():
    assert wer(("a", "b"), ("a", "b")) == 0.0


def test_wer_mixed_errors():
    assert wer(("a", "b", "c"), ("a", "x", "c", "d")) == pytest.approx(2 / 3)


def test_wer_exceeds_one():
    assert wer(("a",), ("x", "y", "z")) == 3.0


def test_wer_empty_reference():
    with pytest.raises(ToolkitError) as exc:
        wer((), ("a",))
    assert exc.value.code == "undefined-wer"


def test_wer_append_invariance_and_monotonicity():
    rng = random.Random(5)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(300):
        ref = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        hyp = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        base = token_edit_distance(ref, hyp)
        appended = token_edit_distance(ref + ("zz",), hyp + ("zz",))
        assert appended == base
        if hyp:
            i = rng.randrange(len(hyp))
            corrupted = hyp[:i] + ("<!>",) + hyp[i + 1 :]
            assert token_edit_distance(ref, corrupted) >= base


# ---------------------------------------------------------------------------
# partitioned wer / recall


def test_partitioned_no_errors():
    ref = ("the", "drug", "aspirin", "works")
    assert partitioned_wer(ref, ref, [ent("aspirin")]) == (0.0, 0.0)


def test_partitioned_keyword_substitution():
    ref = ("the", "drug", "aspirin", "works")
    hyp = ("the", "drug", "qqq", "works")
    b, u = partitioned_wer(ref, hyp, [ent("aspirin")])
    assert b == 1.0  # 1 error over 1 keyword token
    assert u == 0.0


def test_partitioned_empty_keywords():
    ref = ("a", "b", "c")
    hyp = ("a", "x", "c")
    b, u = partitioned_wer(ref, hyp, [])
    assert b is None
    assert u == pytest.approx(wer(ref, hyp))


def test_partitioned_all_keyword():
    b, u = partitioned_wer(("aspirin",), ("aspirin",), [ent("aspirin")])
    assert b == 0.0
    assert u is None


def test_partitioned_insertion_attribution():
    # insertion after a keyword token counts against the keyword side
    ref = ("aspirin", "works")
    hyp = ("aspirin", "xx", "works")
    b, u = partitioned_wer(ref, hyp, [ent("aspirin")])
    assert b == 1.0 and u == 0.0
    # sentence-initial insertion counts against the non-keyword side
    hyp2 = ("xx", "aspirin", "works")
    b2, u2 = partitioned_wer(ref, hyp2, [ent("aspirin")])
    assert b2 == 0.0 and u2 == 1.0
    # a repeated keyword token: the trace pairs the reference's keyword with
    # the later copy, so the earlier copy is a sentence-initial insertion
    assert partitioned_wer(("a", "b"), ("a", "a", "b"), [ent("a")]) == (0.0, 1.0)


def test_partition_is_exhaustive_random():
    rng = random.Random(6)
    vocab = ["a", "b", "kw", "c", "d"]
    kws = [ent("kw")]
    for _ in range(300):
        ref = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        hyp = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
        a = align(ref, hyp)
        from vapokit.metrics import _keyword_spans, _partition_counts

        kw_err, kw_tok, other_err, other_tok = _partition_counts(ref, _keyword_spans(ref, kws), a)
        assert kw_err + other_err == a.errors
        assert kw_tok + other_tok == len(ref)


def test_keyword_recall_identity():
    ref = ("we", "like", "aspirin", "a", "lot")
    assert keyword_recall(ref, ref, [ent("aspirin")]) == 1.0


def test_keyword_recall_consumes_occurrences():
    ref = ("aspirin", "then", "more", "aspirin")
    hyp = ("aspirin", "then", "more", "stuff")
    assert keyword_recall(ref, hyp, [ent("aspirin")]) == 0.5


def test_keyword_recall_dropped():
    ref = ("take", "aspirin", "now")
    hyp = ("take", "nothing", "now")
    assert keyword_recall(ref, hyp, [ent("aspirin")]) == 0.0


def test_keyword_recall_requires_keywords():
    with pytest.raises(ToolkitError) as exc:
        keyword_recall(("a",), ("a",), [])
    assert exc.value.code == "no-keywords"


def test_keyword_recall_absent_when_no_occurrence():
    assert keyword_recall(("a", "b"), ("a", "b"), [ent("aspirin")]) is None


# Three tokens, so keywords repeat, overlap and are prefixes of each other.
_TOKENS = st.sampled_from(("a", "b", "c"))
_KEYWORD = st.lists(_TOKENS, min_size=1, max_size=3).map(tuple)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    ref=st.lists(_TOKENS, max_size=12).map(tuple),
    hyp=st.lists(_TOKENS, max_size=12).map(tuple),
    keywords=st.lists(_KEYWORD, min_size=1, max_size=5),
)
# Two reference occurrences of "a a", but only one disjoint one in "a a a".
@example(ref=("a", "a", "a", "a"), hyp=("a", "a", "a"), keywords=[("a", "a")])
# A keyword, a repeat of it, and a longer keyword it is a prefix of.
@example(ref=("a", "b", "a", "c", "a", "b"), hyp=("a", "b", "a"), keywords=[("a",), ("a", "b"), ("a",)])
def test_keyword_spans_and_recall_equal_oracles(ref, hyp, keywords):
    """``_keyword_spans`` keeps greedy leftmost-longest spans, and recall consumes ``_occurrences``."""
    ents = [EntityRef(" ".join(kw), kw) for kw in keywords]
    spans = _keyword_spans(ref, ents)
    assert [(start, stop) for start, stop, _ in spans] == reference_keyword_spans(ref, keywords)
    assert all(ent.tokens == ref[start:stop] for start, stop, ent in spans)
    assert _recall_counts(hyp, spans) == reference_recall(hyp, [ent.tokens for _, _, ent in spans])


# ---------------------------------------------------------------------------
# entities and fuzzy matching


def test_tolerance_formula():
    # max(0, floor(2 / k - 1)) edits for a k-token entity: 1 for one token, 0 beyond
    assert fuzzy_find(ent("convirt"), ("convert",)).distance == 1
    assert fuzzy_find(ent("convirt"), ("conver",)) is None
    assert fuzzy_find(ent("new york"), ("new", "york")).distance == 0
    assert fuzzy_find(ent("new york"), ("new", "yorks")) is None
    assert fuzzy_find(ent("graph neural network"), ("graph", "neural", "networks")) is None


def test_entity_empty_surface():
    with pytest.raises(ToolkitError) as exc:
        ent("!!!")
    assert exc.value.code == "empty-entity"
    with pytest.raises(ToolkitError) as exc:
        EntityRef(surface="", tokens=())
    assert exc.value.code == "empty-entity"
    with pytest.raises(ToolkitError) as exc:
        EntityRef("x", ())
    assert exc.value.code == "empty-entity"


def test_fuzzy_single_token_within_budget():
    # single-word entity, one character off
    entity = ent("ConVIRT")
    assert entity.tokens == ("convirt",)
    assert char_distance("convirt", "convert") == 1  # oracle
    match = fuzzy_find(entity, ("we", "say", "convert", "here"))
    assert match is not None
    assert (match.start, match.stop, match.distance) == (2, 3, 1)


def test_fuzzy_verbatim():
    match = fuzzy_find(ent("aspirin"), ("take", "aspirin", "now"))
    assert match is not None and match.distance == 0


def test_fuzzy_three_word_entity_requires_exact():
    entity = ent("graph neural network")
    text = ("a", "graph", "neural", "model", "here")
    assert fuzzy_find(entity, text) is None
    assert fuzzy_find(entity, ("a", "graph", "neural", "network")) is not None


def test_fuzzy_tolerance_zero_is_exact_substring():
    rng = random.Random(7)
    vocab = ["aa", "bb", "cc", "dd"]
    for _ in range(300):
        text = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
        needle = tuple(rng.choice(vocab) for _ in range(2))
        entity = EntityRef(surface=" ".join(needle), tokens=needle)
        found = fuzzy_find(entity, text)
        exact = any(text[i : i + 2] == needle for i in range(len(text) - 1))
        assert (found is not None) == exact
        if found:
            assert text[found.start : found.stop] == needle and found.distance == 0


def test_fuzzy_leftmost_tie():
    match = fuzzy_find(ent("aspirin"), ("aspirin", "x", "aspirin"))
    assert match is not None and match.start == 0
    assert fuzzy_find(ent("aspirin"), ("asprin", "x", "aspirn")) == FuzzyMatch(0, 1, 1)


def test_fuzzy_exact_beats_earlier_one_edit():
    assert fuzzy_find(ent("aspirin"), ("asprin", "x", "aspirin")) == FuzzyMatch(2, 3, 0)


def test_fuzzy_find_equals_reference_random():
    """fuzzy_find against the general window search on short random tokens.

    Tokens of 1-3 characters over two or three letters, or single Han
    characters, make one-edit neighbours, repeated tokens and exact-vs-near
    ties common; texts of 0-8 tokens include the empty one.
    """
    rng = random.Random(2025)
    latin = ["a", "b", "ab", "ba", "aa", "abc", "bca", "ca", "c", "aab"]
    han = list("苯钠乙腈")
    for trial in range(3000):
        vocab = han if trial % 4 == 0 else latin
        text = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
        entity = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
        match = fuzzy_find(EntityRef(" ".join(entity), entity), text)
        expected = reference_fuzzy_find(entity, text)
        assert (None if match is None else (match.start, match.stop, match.distance)) == expected, (
            entity,
            text,
        )
        if match is not None:
            assert match.distance == levenshtein_recursive(entity, text[match.start : match.stop])


def test_short_entities_keep_the_one_edit_budget():
    """The paper's rule, kept as is: a single-token entity of any length may be one edit off."""
    strand = normalize_tokenize("the dna strand")
    assert fuzzy_find(ent("RNA"), strand) == FuzzyMatch(1, 2, 1)
    assert ne_fnr([ent("RNA")], strand) == 0.0
    assert fuzzy_find(ent("AI"), normalize_tokenize("an old model")) == FuzzyMatch(0, 1, 1)
    lecture = normalize_tokenize("今天讨论钾和氯的性质")
    for i, han in enumerate(lecture):
        assert fuzzy_find(ent("钠"), (han,)) == FuzzyMatch(0, 1, 1)
        assert fuzzy_find(ent("钠"), lecture[i:]) == FuzzyMatch(0, 1, 1)


def test_ne_wer_all_verbatim():
    ref = ("aspirin", "and", "warfarin", "help")
    assert ne_wer([ent("aspirin"), ent("warfarin")], ref) == 0.0
    with pytest.raises(TypeError):  # the reference is not an input
        ne_wer([ent("aspirin")], ref, ref)


def test_ne_wer_one_missing_of_two():
    entities = [ent("new york"), ent("los angeles")]
    hyp = ("new", "york", "and", "nothing", "else")
    # 2 deletions / 4 entity tokens
    assert ne_wer(entities, hyp) == 0.5


def test_ne_wer_fuzzy_match_counts_token_errors():
    entities = [ent("convirt")]
    hyp = ("convert", "is", "discussed")
    assert ne_wer(entities, hyp) == 1.0


def test_ne_wer_requires_entities():
    with pytest.raises(ToolkitError) as exc:
        ne_wer([], ("a",))
    assert exc.value.code == "no-entities"
    with pytest.raises(ToolkitError) as exc:
        ne_fnr([], ("a",))
    assert exc.value.code == "no-entities"


def test_ne_fnr_values():
    entities = [ent(e) for e in ("aspirin", "warfarin", "metformin", "ibuprofen")]
    hyp_all = ("aspirin", "warfarin", "metformin", "ibuprofen")
    assert ne_fnr(entities, hyp_all) == 0.0
    hyp_three = ("aspirin", "warfarin", "metformin", "nothing")
    assert ne_fnr(entities, hyp_three) == 0.25
    assert ne_fnr(entities, ("zzz",)) == 1.0


def test_ne_fnr_bounds_random():
    rng = random.Random(8)
    vocab = ["aspirin", "warfarin", "brr", "zzz", "metformin"]
    entities = [ent(e) for e in ("aspirin", "warfarin", "metformin")]
    for _ in range(200):
        hyp = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 6)))
        assert 0.0 <= ne_fnr(entities, hyp) <= 1.0


# ---------------------------------------------------------------------------
# CJK behavior


def test_pure_cjk_wer_equals_cer():
    rng = random.Random(9)
    chars = "你好写字天地人口"
    for _ in range(200):
        ref_s = "".join(rng.choice(chars) for _ in range(rng.randint(1, 8)))
        hyp_s = "".join(rng.choice(chars) for _ in range(rng.randint(0, 8)))
        ref = normalize_tokenize(ref_s)
        hyp = normalize_tokenize(hyp_s)
        cer = levenshtein_recursive(tuple(ref_s), tuple(hyp_s)) / len(ref_s)
        assert wer(ref, hyp) == pytest.approx(cer)


# ---------------------------------------------------------------------------
# reports and aggregation


def _mini_sample(idx: int, transcript: str, entities: list[str]) -> Sample:
    return Sample(
        id=f"m{idx}",
        domain="medicine",
        lang="en",
        slide_text="slide " + transcript,
        transcript_gt=transcript,
        entities=entities,
        audio_ref=f"audio/m{idx}.wav",
    )


def test_sample_report_perfect():
    sample = _mini_sample(0, "we take aspirin daily", ["aspirin"])
    report = sample_report(sample, "we take aspirin daily")
    assert report.wer == 0.0
    assert report.b_wer == 0.0 and report.u_wer == 0.0
    assert report.recall == 1.0
    assert report.ne_wer == 0.0 and report.ne_fnr == 0.0


def test_sample_report_absent_metrics_without_entities():
    sample = _mini_sample(1, "plain words only here", [])
    sample.domain = "general"
    report = sample_report(sample, "plain words only here")
    assert report.b_wer is None
    assert report.recall is None and report.ne_wer is None and report.ne_fnr is None


def test_aggregate_is_micro_average():
    s1 = _mini_sample(2, "one two three four", [])
    s2 = _mini_sample(3, "five six", [])
    r1 = sample_report(s1, "one two three four", metrics=("wer",))  # 0 errors / 4
    r2 = sample_report(s2, "qq six", metrics=("wer",))  # 1 error / 2
    agg = aggregate_reports([r1, r2])
    # pooled: 1 error over 6 reference tokens, not mean of (0, 0.5)
    assert agg.wer == pytest.approx(1 / 6)


def test_sample_report_unknown_metric():
    """The library rejects what ``score --metrics`` rejects, with the same record."""
    sample = _mini_sample(4, "a b c d", [])
    for metrics in ((), ("wer", "nope")):
        with pytest.raises(ToolkitError) as lib:
            sample_report(sample, "a b c d", metrics=metrics)
        with pytest.raises(ToolkitError) as cli:
            check_metrics(metrics)
        assert lib.value.code == "unknown-metric"
        assert (lib.value.code, str(lib.value)) == (cli.value.code, str(cli.value))


def test_sample_report_chinese_per_character():
    sample = Sample(
        id="zh1",
        domain="medicine",
        lang="zh",
        slide_text="今天讨论阿司匹林的用法",
        transcript_gt="今天我们讨论阿司匹林",
        entities=["阿司匹林"],
        audio_ref="audio/zh1.wav",
    )
    perfect = sample_report(sample, "今天我们讨论阿司匹林")
    assert perfect.wer == 0.0 and perfect.ne_fnr == 0.0
    # one wrong character out of ten; the damaged entity (exact-match budget) is lost
    report = sample_report(sample, "今天我们讨论阿司匹苹")
    assert report.wer == pytest.approx(0.1)
    assert report.ne_fnr == 1.0
    assert report.b_wer == pytest.approx(1 / 4)
    assert report.u_wer == 0.0


def test_sample_report_aligns_once_and_matches_each_entity_once(monkeypatch):
    import vapokit.metrics as metrics

    calls = {"align": 0, "fuzzy_find": 0, "_keyword_spans": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(metrics, name, counting(name, getattr(metrics, name)))
    sample = _mini_sample(
        5, "we take aspirin and warfarin daily with new york water", ["aspirin", "warfarin", "new york"]
    )
    sample_report(sample, "we take aspirin and warfaring daily with york water")
    assert calls == {"align": 1, "fuzzy_find": 3, "_keyword_spans": 1}

    calls.update(align=0, fuzzy_find=0, _keyword_spans=0)
    sample_report(sample, "we take aspirin", metrics=("wer",))
    assert calls == {"align": 1, "fuzzy_find": 0, "_keyword_spans": 0}


def test_sample_report_equals_standalone_metrics_random():
    rng = random.Random(10)
    vocab = ["aspirin", "warfarin", "new", "york", "the", "dose", "warfaring", "a"]
    surfaces = ["aspirin", "warfarin", "new york", "the dose"]
    for i in range(300):
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        entities = rng.sample(surfaces, rng.randint(0, 3))
        sample = _mini_sample(i, " ".join(ref), entities)
        report = sample_report(sample, " ".join(hyp))
        ref_t, hyp_t = tuple(ref), tuple(hyp)
        ents = [ent(e) for e in entities]
        assert report.wer == wer(ref_t, hyp_t) == levenshtein_recursive(ref_t, hyp_t) / len(ref_t)
        assert (report.b_wer, report.u_wer) == partitioned_wer(ref_t, hyp_t, ents)
        if ents:
            assert report.recall == keyword_recall(ref_t, hyp_t, ents)
            assert report.ne_wer == ne_wer(ents, hyp_t)
            assert report.ne_fnr == ne_fnr(ents, hyp_t)
        else:
            assert report.recall is None and report.ne_wer is None and report.ne_fnr is None
        assert aggregate_reports([report]).as_dict() == report.as_dict()


# ---------------------------------------------------------------------------
# (numerator, denominator) pairs


_FIELDS = {"wer": "wer", "bwer": "b_wer", "uwer": "u_wer", "recall": "recall", "newer": "ne_wer", "nefnr": "ne_fnr"}
_SUBSETS = [
    ALL_METRICS,
    ("wer",),
    ("bwer",),
    ("uwer", "recall"),
    ("recall",),
    ("newer",),
    ("nefnr", "wer"),
    ("newer", "nefnr"),
    ("bwer", "uwer", "nefnr"),
]


def _seeded_reports(n: int, metrics) -> list:
    rng = random.Random(11)
    vocab = ["aspirin", "warfarin", "new", "york", "the", "dose", "warfaring", "a"]
    surfaces = ["aspirin", "warfarin", "new york", "the dose"]
    reports = []
    for i in range(n):
        ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        hyp = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
        sample = _mini_sample(i, ref, rng.sample(surfaces, rng.randint(0, 3)))
        reports.append(sample_report(sample, hyp, metrics=metrics))
    return reports


def _value_of(name: str, pair: tuple[int, int]):
    numerator, denominator = pair
    if not denominator:
        return None
    return 1.0 - numerator / denominator if name == "nefnr" else numerator / denominator


@pytest.mark.parametrize("metrics", _SUBSETS, ids=[",".join(m) for m in _SUBSETS])
def test_counts_are_one_pair_per_requested_metric(metrics):
    """``counts`` names exactly the requested metrics, each value is its pair's
    ratio (NE-FNR's complement; None on a zero denominator), the other fields
    stay None, and a subset's pairs are the full report's."""
    full = _seeded_reports(300, ALL_METRICS)
    for report, whole in zip(_seeded_reports(300, metrics), full):
        assert set(report.counts) == set(metrics)
        for name, field in _FIELDS.items():
            if name in metrics:
                pair = report.counts[name]
                assert pair == whole.counts[name]
                assert getattr(report, field) == _value_of(name, pair)
            else:
                assert getattr(report, field) is None


def test_counts_pairs_match_the_oracles():
    for report in _seeded_reports(300, ALL_METRICS):
        assert all(len(pair) == 2 and 0 <= pair[0] for pair in report.counts.values())
        assert report.counts["wer"][1] == report.counts["bwer"][1] + report.counts["uwer"][1]
    sample = _mini_sample(0, "we take aspirin and new york water", ["aspirin", "new york", "the dose"])
    report = sample_report(sample, "we take asprin and york water")
    ref, hyp = normalize_tokenize(sample.transcript_gt), normalize_tokenize("we take asprin and york water")
    assert report.counts["wer"] == (levenshtein_recursive(ref, hyp), 7)
    assert report.counts["recall"] == reference_recall(hyp, [("aspirin",), ("new", "york")])
    assert report.counts["newer"] == (1 + 2 + 2, 5)  # aspirin one edit off, new york and the dose missing
    assert report.counts["nefnr"] == (1, 3)


@pytest.mark.parametrize("metrics", [ALL_METRICS, ("wer", "recall"), ("nefnr",)], ids=["all", "wer,recall", "nefnr"])
def test_aggregate_of_a_split_equals_the_whole(metrics):
    """Pooling is a sum of pairs, so aggregating per part and then across parts
    gives the corpus aggregate: a macro-average would not."""
    reports = _seeded_reports(300, metrics)
    whole = aggregate_reports(reports)
    expected = {name: tuple(map(sum, zip(*(r.counts[name] for r in reports)))) for name in metrics}
    assert whole.counts == expected
    assert whole.as_dict() == {field: _value_of(name, expected[name]) if name in metrics else None
                               for name, field in _FIELDS.items()}
    rng = random.Random(13)
    for _ in range(20):
        shuffled = rng.sample(reports, len(reports))
        cuts = sorted(rng.sample(range(1, len(reports)), rng.randint(1, 5)))
        parts = [shuffled[a:b] for a, b in zip([0, *cuts], [*cuts, len(reports)])]
        merged = aggregate_reports([aggregate_reports(part) for part in parts])
        assert merged.counts == whole.counts
        assert merged.as_dict() == whole.as_dict()
