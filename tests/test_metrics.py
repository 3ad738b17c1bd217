from __future__ import annotations

import random

import pytest

from oracles import (
    char_distance,
    enumerate_alignments_min,
    levenshtein_recursive,
    reference_alignment_ops,
    reference_fuzzy_find,
)
from vapokit.data import Sample
from vapokit.errors import ToolkitError
from vapokit.metrics import (
    EntityRef,
    FuzzyMatch,
    aggregate_reports,
    align,
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
    pairs and short pairs (where deletion/insertion ties on the trace are common)."""
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
    sample = _mini_sample(4, "a b c d", [])
    with pytest.raises(ToolkitError):
        sample_report(sample, "a b c d", metrics=("wer", "nope"))


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
