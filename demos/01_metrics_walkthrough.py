#!/usr/bin/env python3
"""Walk through the metric family on one slide-ASR sample.

Shows tokenization, the token alignment behind WER, the keyword-partitioned
pair B-WER/U-WER with recall, and the entity metrics NE-WER / NE-FNR.
"""

from vapokit import EntityRef, Sample, align, fuzzy_find, sample_report
from vapokit.textnorm import normalize_tokenize

sample = Sample(
    id="demo",
    domain="medicine",
    lang="en",
    slide_text="Medication Review\nKey topics include aspirin, warfarin and metformin dosing.",
    transcript_gt="today we compare aspirin with warfarin and review metformin dosing together",
    entities=["aspirin", "warfarin", "metformin"],
    audio_ref="audio/demo.wav",
)

# a hypothesis with three planted problems: one plain-word substitution, one
# misheard entity, one dropped word
hypothesis = "today we compare aspirin with warfaring and review metformin dosing"

# one tokenizer for every language: a CJK codepoint per token, whitespace
# words otherwise; the sample's lang label does not enter
ref = normalize_tokenize(sample.transcript_gt)
hyp = normalize_tokenize(hypothesis)
print("reference tokens:", ref)
print("hypothesis tokens:", hyp)

alignment = align(ref, hyp)
print(f"\nalignment: S={alignment.substitutions} D={alignment.deletions} "
      f"I={alignment.insertions} hits={alignment.hits}")
for op, ri, hi in alignment.ops:
    if op != "hit":
        ref_tok = ref[ri] if ri is not None else "-"
        hyp_tok = hyp[hi] if hi is not None else "-"
        print(f"  {op}: {ref_tok!r} -> {hyp_tok!r}")

# "warfaring" is one character away from the single-word entity "warfarin",
# so the fuzzy matcher still finds it: a single-word entity may be one
# character edit off, a longer entity must match exactly
entity = EntityRef.from_surface("warfarin")
match = fuzzy_find(entity, hyp)
print(f"\nfuzzy match for {entity.surface!r}: span={match.start}:{match.stop} "
      f"distance={match.distance} ({entity.token_count} token, budget 1 edit)")

report = sample_report(sample, hypothesis)
print("\nper-sample report:")
for name, value in report.as_dict().items():
    print(f"  {name:8s} {value:.4f}" if value is not None else f"  {name:8s} absent")
