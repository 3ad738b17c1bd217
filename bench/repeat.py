"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --workload eval-long-mixed --seeds 10 [--out FILE]

Run it from the repository root. Each seed is one untraced ``bench/run.py``
process, run one after another with BENCHMARK.json's ``run_seconds``. For every
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the interquartile range as a share of the median; for end-to-end metrics
it also prints the metric's bound and whether the spread is within a third
of it. ``--out`` writes the per-seed results and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN_TIMEOUT_S = 900


def run_seed(spec: dict, workload: str, seed: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # run.py's first line records the environment as key=value pairs
    result["env"] = dict(field.split("=", 1) for field in lines[0].split() if "=" in field)
    return result


def summarize(results: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds.get(name), "values": values}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 0 .. N-1")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.seeds)
    results = []
    for seed in seeds:
        result = run_seed(spec, args.workload, seed)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
        results.append(result)
    summary = summarize(results, bounds)
    for name, s in summary.items():
        verdict = ""
        if s["bound"] is not None:
            verdict = f"bound {s['bound']:.2f} " + ("ok" if s["spread"] < s["bound"] / 3 else "WIDE")
        print(f"{args.workload:<17} {name:<46} median {s['median']:14.6f} {s['unit']:<6} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} {verdict}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": list(seeds),
                                        "results": results, "summary": summary}, indent=1) + "\n",
                            encoding="utf-8")
    return 0 if all(r["correct"] and not r["failed"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
