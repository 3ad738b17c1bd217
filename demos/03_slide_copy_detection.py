#!/usr/bin/env python3
"""Detect slide-copying behavior from paired outputs.

A transcription model has no business producing words that appear only on
the slide. The detector isolates the slide-only vocabulary per sample and
flags any output intersecting it, then aggregates a dataset-level rate.
"""

from vapokit.data import Hypothesis, Sample
from vapokit.ocr_behavior import detect_all, partition_vocab, summarize

samples = [
    Sample(
        id=f"s{i}",
        domain="general",
        lang="en",
        slide_text=f"figure{i} caption{i} shared{i} bullet{i}",
        transcript_gt=f"shared{i} spoken{i} words{i} only{i}",
        entities=[],
        audio_ref=f"audio/s{i}.wav",
    )
    for i in range(8)
]

print("sample s0 slide-only vocabulary:", sorted(partition_vocab(samples[0])))

# three mock models: a faithful transcriber, a slide copier, and a model that
# copies the slide on one sample out of four
faithful = [Hypothesis(id=s.id, text=s.transcript_gt) for s in samples]
copier = [Hypothesis(id=s.id, text=s.slide_text) for s in samples]
flaky = [
    Hypothesis(id=s.id, text=s.slide_text if i % 4 == 0 else s.transcript_gt)
    for i, s in enumerate(samples)
]

print()
for name, outputs in [("faithful", faithful), ("slide-copier", copier), ("flaky", flaky)]:
    rate = summarize(detect_all(samples, outputs))["rate_percent"]
    print(f"{name:12s} slide-copy rate: {rate:5.1f}%")

print()
print("summary row:", summarize(detect_all(samples, flaky), name="flaky", split="dev"))
