"""Command-line entry point: score / reward / detect / build / simulate / report."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import bench, grpo, ocr_behavior
from .data import load_json, pair_by_id, read_hypotheses, read_samples
from .errors import ToolkitError
from .metrics import ALL_METRICS, aggregate_reports, sample_report
from .rewards import RewardWeights, total_reward
from .tables import render_table


@contextmanager
def _writing(target):
    """Scope of a command's output writes: an OSError there is "bad-out"."""
    try:
        yield
    except OSError as e:
        raise ToolkitError("bad-out", f"cannot write {target}: {e}") from e


def _reject_input_as_out(out, *inputs) -> None:
    """Raise "bad-out" before anything is read when ``out`` is one of the command's input files."""
    for path in inputs:
        try:
            same = path is not None and os.path.samefile(out, path)
        except (OSError, ValueError):  # a missing file is no input to overwrite
            continue
        if same:
            raise ToolkitError("bad-out", f"output {str(out)!r} would overwrite the input {path!r}")


def _write_json(path: str, payload: dict) -> None:
    with _writing(path):
        Path(path).write_text(
            json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )


def cmd_score(args) -> int:
    _reject_input_as_out(args.out, args.dataset, args.hyp)
    samples = read_samples(args.dataset)
    hyps = read_hypotheses(args.hyp)
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    if not metrics:
        raise ToolkitError("unknown-metric", "no metrics requested")
    unknown = set(metrics) - set(ALL_METRICS)
    if unknown:
        raise ToolkitError("unknown-metric", f"unknown metrics: {sorted(unknown)}")
    pairs = pair_by_id(samples, hyps, allow_partial=args.allow_partial)
    reports = [sample_report(s, h.text, metrics=metrics) for s, h in pairs]
    rows = [{"id": s.id, **rep.as_dict()} for (s, _), rep in zip(pairs, reports)]
    aggregate = aggregate_reports(reports)
    _write_json(args.out, {"rows": rows, "aggregate": aggregate.as_dict()})
    return 0


def cmd_reward(args) -> int:
    _reject_input_as_out(args.out, args.dataset, args.rollouts, args.weights)
    samples = read_samples(args.dataset)
    rollouts = read_hypotheses(args.rollouts)
    weights = RewardWeights.from_file(args.weights) if args.weights else RewardWeights()
    pairs = pair_by_id(samples, rollouts, allow_partial=args.allow_partial)
    rows = [{"id": s.id, **total_reward(s, h.text, weights).as_dict()} for s, h in pairs]
    mean_total = sum(r["total"] for r in rows) / len(rows)
    if math.isinf(mean_total):  # the sum overflowed; each total is at most the finite weight sum
        mean_total = sum(r["total"] / len(rows) for r in rows)
    _write_json(args.out, {"weights": weights.as_dict(), "rows": rows, "mean_total": mean_total})
    return 0


def cmd_detect(args) -> int:
    _reject_input_as_out(args.out, args.dataset, args.hyp)
    samples = read_samples(args.dataset)
    hyps = read_hypotheses(args.hyp)
    rows = ocr_behavior.detect_all(samples, hyps, allow_partial=args.allow_partial)
    _write_json(args.out, {"rows": rows, "summary": ocr_behavior.summarize(rows)})
    return 0


def cmd_build(args) -> int:
    # build writes manifest.jsonl, stats.json and slides/<id>.svg under
    # --outdir, and writes or deletes errors.jsonl: a seeds file that is one
    # of these, or lies in slides/, is rejected before it is read.
    outdir, seeds_name = Path(args.outdir), Path(args.seeds).name
    for out in ("manifest.jsonl", "stats.json", "errors.jsonl", f"slides/{seeds_name}"):
        _reject_input_as_out(outdir / out, args.seeds)
    seeds = bench.read_seed_records(args.seeds)
    generator = bench.RemoteGenerator() if args.generator == "remote" else bench.TemplateGenerator()
    with _writing(args.outdir):
        stats = bench.build_dataset(seeds, args.outdir, generator)
    print(json.dumps(stats))
    return 0


def cmd_simulate(args) -> int:
    # The CSV trace goes beside the JSONL one, with the suffix .csv; checked
    # before training so that a rejected --out leaves nothing written.
    out = Path(args.out)
    if not out.name or out.suffix == ".csv":
        raise ToolkitError("bad-out", f"--out {args.out!r} must name a file without the CSV trace's suffix .csv")
    if not out.parent.is_dir():
        raise ToolkitError("bad-out", f"--out {args.out!r}: {str(out.parent)!r} is not an existing directory")
    _reject_input_as_out(out, args.config)
    _reject_input_as_out(out.with_suffix(".csv"), args.config)
    config = grpo.SimConfig.from_file(args.config)
    if args.seed is not None:
        config.seed = args.seed
    trace = grpo.train(config)
    with _writing(out):
        trace.write_jsonl(out)
        trace.write_csv(out.with_suffix(".csv"))
    print(json.dumps({"steps": len(trace.steps), "p_optimal": trace.final.p_optimal}))
    return 0


def cmd_report(args) -> int:
    try:
        payload = load_json(Path(args.infile).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise ToolkitError("no-rows", f"cannot load {args.infile}: {e}") from e
    rows = payload.get("rows") if isinstance(payload, dict) else payload
    if not rows or not isinstance(rows, list):
        raise ToolkitError("no-rows", f"{args.infile} has no rows to report")
    for row in rows:
        if not isinstance(row, dict):
            raise ToolkitError("bad-record", f"{args.infile}: row is not a JSON object: {row!r:.80}")
    sys.stdout.write(render_table(rows, fmt=args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vapokit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="ASR metrics for hypotheses against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--metrics", default=",".join(ALL_METRICS))
    p.add_argument("--out", required=True)
    p.add_argument("--allow-partial", action="store_true")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("reward", help="reward breakdowns for rollouts against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--rollouts", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--allow-partial", action="store_true")
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("detect", help="flag outputs that leak slide-only vocabulary")
    p.add_argument("--dataset", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--allow-partial", action="store_true")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("build", help="build a synthetic slide dataset from seed records")
    p.add_argument("--seeds", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--generator", choices=["template", "remote"], default="template")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("simulate", help="run the toy policy-optimization loop")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="render a metrics file as a table")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=["md", "tsv"], default="md")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as e:
        print(json.dumps({"error": e.code, "detail": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
