#!/usr/bin/env python3
"""Build a small synthetic slide dataset and validate it.

Each seed (a Sample without a slide: domain, entities, transcript, audio
ref) becomes a full sample: slide text from the deterministic template
generator, a vector slide rendering, and a manifest line. Rebuilds are
byte-identical.
"""

import tempfile
from pathlib import Path

from vapokit.bench import build_dataset, read_seed_records, validate_manifest
from vapokit.data import builtin_path, read_samples

seeds = read_seed_records(builtin_path("seeds_5.jsonl"))
print(f"{len(seeds)} seed records, e.g.:")
print("  id:        ", seeds[0].id)
print("  entities:  ", seeds[0].entities)
print("  transcript:", seeds[0].transcript_gt)

outdir = Path(tempfile.mkdtemp(prefix="slidebench_"))
stats = build_dataset(seeds, outdir)
print(f"\nbuilt {stats['samples']} samples with {stats['entities']} entities "
      f"({stats['hours']:.4f} hours) under {outdir}")

sample = read_samples(outdir / "manifest.jsonl")[0]
print("\ngenerated slide text for", sample.id)
print("  " + sample.slide_text.replace("\n", "\n  "))
print("slide image:", outdir / sample.slide_image_ref)

report = validate_manifest(outdir / "manifest.jsonl")
print(f"\nvalidation: {report.samples} samples, {len(report.violations)} violations")
