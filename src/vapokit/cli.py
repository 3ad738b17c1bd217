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
from .data import drain, fold_sum, pair_by_id, read_hypotheses, read_json, read_samples, resolve_data_path
from .errors import ToolkitError
from .metrics import ALL_METRICS, aggregate_reports, check_metrics, sample_report
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
    """Write ``payload`` as ``json.dumps(payload, ensure_ascii=False, indent=2)`` and a newline.

    ``json.dump`` writes the encoder's chunks as it makes them, so the whole
    text is never held in memory.
    """
    with _writing(path), open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, ensure_ascii=False, indent=2)
        f.write("\n")


def cmd_score(args) -> int:
    _reject_input_as_out(args.out, args.dataset, args.hyp)
    samples = read_samples(args.dataset)
    hyps = read_hypotheses(args.hyp)
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    check_metrics(metrics)  # before pairing, so a bad name is the error reported
    pairs = pair_by_id(samples, hyps, allow_partial=args.allow_partial)
    del samples, hyps  # the pairs alone hold the records, and drain releases each once its row is made
    rows = []

    def reports():  # each row is made with its report, which is then only summed
        for s, h in drain(pairs):
            report = sample_report(s, h.text, metrics=metrics)
            rows.append({"id": s.id, **report.as_dict()})
            yield report

    aggregate = aggregate_reports(reports())
    _write_json(args.out, {"rows": rows, "aggregate": aggregate.as_dict()})
    return 0


def cmd_reward(args) -> int:
    _reject_input_as_out(args.out, args.dataset, args.rollouts, args.weights)
    samples = read_samples(args.dataset)
    rollouts = read_hypotheses(args.rollouts)
    weights = RewardWeights.from_file(args.weights) if args.weights else RewardWeights()
    pairs = pair_by_id(samples, rollouts, allow_partial=args.allow_partial)
    del samples, rollouts  # as in cmd_score
    rows = [{"id": s.id, **total_reward(s, h.text, weights).as_dict()} for s, h in drain(pairs)]
    mean_total = fold_sum(r["total"] for r in rows) / len(rows)
    if math.isinf(mean_total):  # the sum overflowed; each total is at most the finite weight sum
        mean_total = fold_sum(r["total"] / len(rows) for r in rows)
    _write_json(args.out, {"weights": weights.as_dict(), "rows": rows, "mean_total": mean_total})
    return 0


def cmd_detect(args) -> int:
    _reject_input_as_out(args.out, args.dataset, args.hyp)
    # Passed as read, not named, so that detect_all holds the only references to the
    # lists (on Python 3.10 the caller's stack keeps them until the call returns).
    rows = ocr_behavior.detect_all(read_samples(args.dataset), read_hypotheses(args.hyp),
                                   allow_partial=args.allow_partial)
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
    traces = (out, out.with_suffix(".csv"))
    for path in traces:
        if path.is_dir():
            raise ToolkitError("bad-out", f"--out {args.out!r}: the trace {str(path)!r} is a directory")
        _reject_input_as_out(path, args.config)
    config = grpo.SimConfig.from_file(args.config)
    samples = str(resolve_data_path(config.samples))  # read by train, after these checks
    for path in traces:
        _reject_input_as_out(path, samples)
    if args.seed is not None:
        config.seed = args.seed
    trace = grpo.train(config)
    with _writing(out):
        trace.write(*traces)
    print(json.dumps({"steps": len(trace.steps), "p_optimal": trace.final.p_optimal}))
    return 0


def cmd_report(args) -> int:
    payload = read_json(args.infile, "no-rows")
    rows = payload.get("rows") if isinstance(payload, dict) else payload
    if not rows or not isinstance(rows, list):
        raise ToolkitError("no-rows", f"{args.infile} has no rows to report")
    for row in rows:
        if not isinstance(row, dict):
            raise ToolkitError("bad-record", f"{args.infile}: row is not a JSON object: {row!r:.80}")
    sys.stdout.write(render_table(rows, fmt=args.format))
    return 0


def _to_stderr(message: str) -> None:
    """Write and flush ``message`` on stderr; if its reader has gone, the rest goes to devnull.

    The exit code then stays the command's own, buffered or not: a failed
    flush at interpreter exit would turn it into 120.
    """
    try:
        sys.stderr.write(message)
        sys.stderr.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose writes to stdout fail like any other output write.

    argparse drops an OSError from its own writes, so ``--help`` into a closed
    pipe would exit 0 when stdout is unbuffered. Usage errors go to stderr
    through ``_to_stderr``, so they exit 2 whatever stderr's reader does.
    Subparsers share the class.
    """

    def _print_message(self, message: str, file=None) -> None:
        if file is sys.stdout:
            file.write(message)
        elif message:
            _to_stderr(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vapokit")
    sub = parser.add_subparsers(dest="command", required=True)

    records = _Parser(add_help=False)  # the options of the commands that pair records by id
    records.add_argument("--dataset", required=True)
    records.add_argument("--out", required=True)
    records.add_argument("--allow-partial", action="store_true")

    p = sub.add_parser("score", parents=[records], help="ASR metrics for hypotheses against a dataset")
    p.add_argument("--hyp", required=True)
    p.add_argument("--metrics", default=",".join(ALL_METRICS))
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("reward", parents=[records], help="reward breakdowns for rollouts against a dataset")
    p.add_argument("--rollouts", required=True)
    p.add_argument("--weights", default=None)
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("detect", parents=[records], help="flag outputs that leak slide-only vocabulary")
    p.add_argument("--hyp", required=True)
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
    try:
        try:
            args = parser.parse_args(argv)  # --help writes to stdout, then raises SystemExit
            return args.func(args)
        finally:
            sys.stdout.flush()  # a reader that closed stdout early shows here, not at interpreter exit
    except ToolkitError as e:
        _to_stderr(json.dumps({"error": e.code, "detail": str(e)}) + "\n")
        return 1
    except OSError as e:  # a stdout write: every other command write raises ToolkitError
        # What is still buffered goes to devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _to_stderr(json.dumps({"error": "bad-out", "detail": f"cannot write stdout: {e}"}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
