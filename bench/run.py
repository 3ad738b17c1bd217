"""vapokit benchmark: CLI workloads timed from outside, plus a traced per-layer run.

    python3 bench/run.py --workload eval-short-en --seed 0 --seconds 40 --trace 0

Run it from the repository root; it imports vapokit only from ``src/`` there.
One process (this one) launches each CLI command as a fresh child process,
through ``spawn.py``, one at a time: a closed loop with a single client. The
fastest invocation of each command sets its rate. Within ``--seconds`` it
repeats the workload's command sequence, checks every output, and prints a
readable report followed by one JSON line with the metrics:

- ``--trace 0``: the end-to-end metrics, timed with no tracing.
- ``--trace 1``: the per-layer metrics. Each command runs once untraced and
  once in-process under ``traced_cli.py``, which wraps every layer's public
  functions; the spans give call counts and self time per layer, and the two
  runs give the tracing overhead.

``--workload all`` runs the three workloads in turn. ``--record PATH`` also
writes every sample and the environment to a JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import corpus
from traced_cli import read_spans

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
SIM_CONFIG = SRC / "vapokit" / "data" / "simulate_default.json"
WORK_ROOT = ROOT / ".bench_work"

SPEC = ROOT / "BENCHMARK.json"  # holds each workload's rationale
WORKLOADS = ("eval-short-en", "eval-long-mixed", "simulate-default")
END_TO_END = ("work_per_s", "cmd_rate_gmean", "peak_rss_mb", "setup_s")
COMMAND_TIMEOUT_S = 120


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Invocation:
    command: str
    wall_s: float
    rss_kb: int
    exit_code: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, int, int]:
    """Run one command to completion through spawn.py: (wall seconds, peak RSS in KB, exit code).

    spawn.py times the command and reaps it with os.wait4, which returns the
    command's own peak RSS; it kills the command after COMMAND_TIMEOUT_S.
    """
    spawner = subprocess.Popen([sys.executable, str(BENCH_DIR / "spawn.py"), str(log), str(COMMAND_TIMEOUT_S), *argv],
                               cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        report, _ = spawner.communicate(timeout=COMMAND_TIMEOUT_S + 30)
    except BaseException:
        spawner.terminate()  # spawn.py kills the command on SIGTERM
        spawner.wait()
        raise
    try:
        result = json.loads(report)
    except json.JSONDecodeError:
        return 0.0, 0, -1
    return result["wall_s"], result["rss_kb"], result["exit"]


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "vapokit.cli", *args]


def traced_argv(args: list[str], prefix: Path) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(SRC), str(prefix), *args]


def probe_import() -> float:
    """Wall time of a fresh interpreter importing vapokit.cli (what every invocation pays)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import vapokit.cli"], cwd=ROOT, env=child_env(),
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=COMMAND_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SetupError(f"import vapokit.cli failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return wall


def check_source_tree() -> None:
    if not (SRC / "vapokit" / "__init__.py").is_file() or not (ROOT / checks.ORACLES_FILE).is_file():
        raise SetupError(f"run from the repository root: no src/vapokit or {checks.ORACLES_FILE} under {ROOT}")
    proc = subprocess.run([sys.executable, "-c", "import vapokit; print(vapokit.__file__)"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    location = Path(proc.stdout.strip() or "?").resolve()
    if proc.returncode != 0 or SRC.resolve() not in location.parents:
        raise SetupError(f"vapokit resolves to {location}, not to {SRC}")


# ---------------------------------------------------------------------------
# workload plans


@dataclass
class Command:
    name: str
    args: list[str]  # vapokit CLI arguments, with {out} standing for the command's output dir
    output: str  # file or directory under {out} that the command writes
    records: int  # records (or training steps) one invocation processes
    # Paths under {out} reset before each invocation, so a stale output never passes a
    # check: a file is deleted, and every file under a directory is truncated to 0 bytes.
    # Truncating keeps the build tree's 3000 inodes, so a timed build rewrites them in
    # place: on the 2-vCPU machine the bounds were set on, creating 3000 files cost
    # 0.9-1.6 s of system time, varying 2x between runs, which swamps the toolkit's own
    # cost. A file the command fails to write stays empty and fails the checks. The
    # warm-up build starts from an empty directory.
    stale: tuple[str, ...] = ()


@dataclass
class Plan:
    workload: str
    seed: int
    work: Path
    commands: list[Command]
    samples: dict[str, dict] = field(default_factory=dict)
    hyps: dict[str, str] = field(default_factory=dict)
    rollouts: dict[str, str] = field(default_factory=dict)
    seed_count: int = 0
    entities: int = 0
    steps: int = 0
    invocations: list[Invocation] = field(default_factory=list)
    reference: dict[str, str] = field(default_factory=dict)  # command -> output digest
    problems: list[str] = field(default_factory=list)

    def out(self, cmd: Command) -> Path:
        return self.work / "out" / cmd.name


def prepare(workload: str, seed: int, work: Path, golden: dict) -> Plan:
    """Write the workload's inputs under ``work``; eval workloads also run (and check) one build."""
    work.mkdir(parents=True)
    if workload == "simulate-default":
        steps = int(json.loads(SIM_CONFIG.read_text(encoding="utf-8"))["steps"])
        sim = Command("simulate", ["simulate", "--config", str(SIM_CONFIG), "--seed", str(seed),
                                   "--out", "{out}/trace.jsonl"], "trace.jsonl", steps,
                      stale=("trace.jsonl", "trace.csv"))
        return Plan(workload, seed, work, [sim], steps=steps)

    seeds_path = work / "seeds.jsonl"
    seeds = corpus.seed_records(workload, ROOT)
    corpus.write_jsonl(seeds_path, seeds)
    build = Command("build", ["build", "--seeds", str(seeds_path), "--outdir", "{out}/built"], "built", len(seeds),
                    stale=("built",))
    plan = Plan(workload, seed, work, [build], seed_count=len(seeds))
    built = run_invocation(plan, build, golden)
    manifest_path = work / "dataset.jsonl"
    try:
        shutil.copyfile(plan.out(build) / "built" / "manifest.jsonl", manifest_path)
    except OSError as e:
        raise SetupError(f"the warm-up build wrote no manifest: {built.problems}") from e
    manifest = corpus.read_jsonl(manifest_path)
    hyps, rollouts = corpus.hypotheses_and_rollouts(manifest, workload, seed)
    corpus.write_jsonl(work / "hyp.jsonl", hyps)
    corpus.write_jsonl(work / "rollouts.jsonl", rollouts)
    plan.samples = {row["id"]: row for row in manifest}
    plan.hyps = {h["id"]: h["text"] for h in hyps}
    plan.rollouts = {r["id"]: r["output"] for r in rollouts}
    plan.entities = sum(len(row["entities"]) for row in manifest)
    n = len(manifest)
    ds, hyp, roll = str(manifest_path), str(work / "hyp.jsonl"), str(work / "rollouts.jsonl")
    plan.commands += [
        Command("score", ["score", "--dataset", ds, "--hyp", hyp, "--out", "{out}/score.json"], "score.json", n,
                stale=("score.json",)),
        Command("reward", ["reward", "--dataset", ds, "--rollouts", roll, "--out", "{out}/reward.json"],
                "reward.json", n, stale=("reward.json",)),
        Command("detect", ["detect", "--dataset", ds, "--hyp", hyp, "--out", "{out}/detect.json"], "detect.json", n,
                stale=("detect.json",)),
    ]
    return plan


def output_digest(path: Path) -> str:
    return checks.tree_digest(path) if path.is_dir() else checks.file_digest(path)


def deep_check(plan: Plan, cmd: Command, path: Path, golden: dict, oracles) -> list[str]:
    """Invariants, oracles and (for the default seed) golden digests of a command's first output."""
    wl_golden = golden.get(plan.workload, {})
    if cmd.name == "build":
        return checks.check_build(path, plan.seed_count, wl_golden.get("build"))
    if cmd.name == "simulate":
        return checks.check_simulate(path, plan.steps)
    if cmd.name == "score":
        problems = checks.check_score(path, plan.samples, plan.hyps, plan.seed, oracles)
    elif cmd.name == "reward":
        problems = checks.check_reward(path, plan.samples, plan.rollouts, plan.seed, oracles)
    else:
        problems = checks.check_detect(path, plan.samples, plan.hyps, plan.seed)
    if plan.seed == checks.DEFAULT_SEED and checks.file_digest(path) != wl_golden.get(cmd.name):
        problems.append(f"{cmd.name}: output differs from the golden digest for seed {plan.seed}")
    return problems


def reset_output(path: Path) -> None:
    if path.is_dir():
        for file in path.rglob("*"):
            if file.is_file():
                os.truncate(file, 0)
    else:
        path.unlink(missing_ok=True)


def run_invocation(plan: Plan, cmd: Command, golden: dict, oracles=None, spans: Path | None = None) -> Invocation:
    """Run one command, traced when ``spans`` is given, and check its output.

    The first output of each command gets the deep checks and becomes the
    reference; every later output must match the reference byte for byte.
    """
    out = plan.out(cmd)
    out.mkdir(parents=True, exist_ok=True)
    for name in cmd.stale:
        reset_output(out / name)
    args = [a.replace("{out}", str(out)) for a in cmd.args]
    argv = traced_argv(args, spans) if spans is not None else cli_argv(args)
    wall, rss, code = run_child(argv, out / "child.log")
    inv = Invocation(cmd.name, wall, rss, code)
    path = out / cmd.output
    if code != 0:
        log = out / "child.log"
        tail = log.read_text(errors="replace")[-300:] if log.exists() else ""
        inv.problems.append(f"{cmd.name}: exit {code}: {tail}")
    elif not path.exists():
        inv.problems.append(f"{cmd.name}: wrote no {cmd.output}")
    else:
        digest = output_digest(path)
        if cmd.name not in plan.reference:
            inv.problems += deep_check(plan, cmd, path, golden, oracles)
            plan.reference[cmd.name] = digest
        elif digest != plan.reference[cmd.name]:
            inv.problems.append(f"{cmd.name}: output differs from this run's first output")
    plan.invocations.append(inv)
    plan.problems += inv.problems
    return inv


# ---------------------------------------------------------------------------
# untraced (end-to-end) runs


def passes_within(seconds: float):
    """Yield once per pass; stop before a pass that would likely end after ``seconds``."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        yield
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def measure_end_to_end(plan: Plan, seconds: float, golden: dict, oracles) -> tuple[dict, dict]:
    """Repeat the command sequence for ``seconds``; returns (metrics, samples).

    Each command's rate is its records over its fastest invocation's wall
    time. Other tenants of the host only ever add time, in bursts that come
    and go within a second and in phases that last minutes; the fastest of
    several invocations is the estimate least moved by either. The workload's
    rate puts one record through the whole sequence. For the same reason
    ``setup_s`` is the fastest of one import probe per pass, so the probes are
    spread through the window like the commands.
    """
    setup: list[float] = []
    walls: dict[str, list[float]] = {c.name: [] for c in plan.commands}
    passes = 0
    for _ in passes_within(seconds):
        setup.append(probe_import())
        for cmd in plan.commands:
            inv = run_invocation(plan, cmd, golden, oracles)
            if inv.ok:
                walls[cmd.name].append(inv.wall_s)
        passes += 1
    records = {c.name: c.records for c in plan.commands}
    rates = {name: records[name] / min(w) for name, w in walls.items() if w}
    complete = len(rates) == len(plan.commands)
    pass_s = sum(min(w) for w in walls.values() if w)
    metrics = {
        # one record (or training step) through every command of the sequence
        "work_per_s": (plan.commands[0].records / pass_s if complete else 0.0, "1/s", passes),
        "cmd_rate_gmean": (math.exp(statistics.fmean(math.log(r) for r in rates.values())) if complete else 0.0,
                           "1/s", passes),
        "peak_rss_mb": (max(i.rss_kb for i in plan.invocations) / 1024.0, "MB", len(plan.invocations)),
        "setup_s": (min(setup), "s", len(setup)),
    }
    return metrics, {"setup_s": setup, "walls": walls, "records": records, "rates": rates, "passes": passes}


def print_command_rates(samples: dict) -> None:
    for name, walls in samples["walls"].items():
        if walls:
            label = "simulate_steps_per_s" if name == "simulate" else f"{name}_rps"
            print(f"{'':<17} {label:<46} {samples['rates'][name]:14.6f} 1/s    n={len(walls)}  "
                  f"({samples['records'][name]} records; wall min {min(walls):.4f} s, "
                  f"median {statistics.median(walls):.4f}, max {max(walls):.4f})")


# ---------------------------------------------------------------------------
# traced (per-layer) runs


def aggregate_spans(prefix: Path) -> dict:
    """Calls and self seconds per span name, root span seconds, and the child's own counters."""
    header, arrays = read_spans(prefix)
    names = np.frombuffer(arrays["name"], dtype=np.int32)
    parents = np.frombuffer(arrays["parent"], dtype=np.int32)
    dur = np.frombuffer(arrays["end"], dtype=np.float64) - np.frombuffer(arrays["start"], dtype=np.float64)
    nested = parents >= 0
    child_sum = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
    self_s = dur - child_sum
    width = len(header["names"])
    calls = np.bincount(names, minlength=width)
    self_by_name = np.bincount(names, weights=self_s, minlength=width)
    return {
        "calls": {n: int(calls[i]) for i, n in enumerate(header["names"])},
        "self_s": {n: float(self_by_name[i]) for i, n in enumerate(header["names"])},
        "root_s": float(dur[~nested].sum()),
        "outcomes": header["outcomes"],
        "tokenize_cache": header["tokenize_cache"],
    }


def per_command_counts(agg: dict) -> dict:
    return {"calls": agg["calls"], "outcomes": agg["outcomes"], "tokenize_cache": agg["tokenize_cache"]}


def layer_metrics(plan: Plan, by_cmd: dict[str, dict], traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics of one traced round: {name: (value, unit)}."""

    def calls(name: str, cmd: str | None = None) -> int:
        return sum(a["calls"].get(name, 0) for c, a in by_cmd.items() if cmd in (None, c))

    def share(name: str) -> float:
        return sum(a["self_s"].get(name, 0.0) for a in by_cmd.values()) / root_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    root_s = sum(a["root_s"] for a in by_cmd.values())
    records = {c.name: c.records for c in plan.commands}
    hits = sum(a["tokenize_cache"]["hits"] for a in by_cmd.values())
    misses = sum(a["tokenize_cache"]["misses"] for a in by_cmd.values())
    malformed = sum(a["outcomes"].get("structured.parse_structured", 0) for a in by_cmd.values())
    built = plan.work / "out" / "build" / "built"
    rows_out = 0
    for name in ("score", "reward", "detect"):
        path = plan.work / "out" / name / f"{name}.json"
        if path.exists():
            rows_out += len(json.loads(path.read_text(encoding="utf-8"))["rows"])
    rows_in = len(plan.samples) * sum(1 for c in plan.commands if c.name in ("score", "reward", "detect"))
    manifest_rows = len(plan.samples) if "build" in records else 0
    m = {
        "metrics.align.calls": (calls("metrics.align"), "count"),
        "metrics.align.self_share": (share("metrics.align"), "ratio"),
        "metrics.align.calls_per_record": (ratio(calls("metrics.align", "score"), records.get("score", 0)), "ratio"),
        "metrics.token_edit_distance.calls": (calls("metrics.token_edit_distance"), "count"),
        "metrics.token_edit_distance.self_share": (share("metrics.token_edit_distance"), "ratio"),
        "metrics.fuzzy_find.calls": (calls("metrics.fuzzy_find"), "count"),
        "metrics.fuzzy_find.self_share": (share("metrics.fuzzy_find"), "ratio"),
        "metrics.fuzzy_find.calls_per_entity": (
            ratio(calls("metrics.fuzzy_find", "score"), plan.entities if "score" in records else 0), "ratio"),
        "metrics.sample_report.self_share": (share("metrics.sample_report"), "ratio"),
        "metrics.aggregate_reports.self_share": (share("metrics.aggregate_reports"), "ratio"),
        "textnorm.normalize_tokenize.calls": (calls("textnorm.normalize_tokenize"), "count"),
        "textnorm.normalize_tokenize.self_share": (share("textnorm.normalize_tokenize"), "ratio"),
        "textnorm.tokenize_cache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "structured.parse_structured.calls": (calls("structured.parse_structured"), "count"),
        "structured.parse_structured.self_share": (share("structured.parse_structured"), "ratio"),
        "structured.parse_structured.malformed_ratio": (
            ratio(malformed, calls("structured.parse_structured")), "ratio"),
        "ocr_behavior.partition_vocab.calls": (calls("ocr_behavior.partition_vocab"), "count"),
        "ocr_behavior.partition_vocab.calls_per_record": (
            ratio(calls("ocr_behavior.partition_vocab", "detect"), records.get("detect", 0)), "ratio"),
        "ocr_behavior.detect.self_share": (share("ocr_behavior.detect"), "ratio"),
        "rewards.total_reward.calls": (calls("rewards.total_reward"), "count"),
        "rewards.total_reward.self_share": (share("rewards.total_reward"), "ratio"),
        "grpo.total_reward_calls_per_step": (ratio(calls("rewards.total_reward", "simulate"), plan.steps), "ratio"),
        "grpo.render.calls": (calls("grpo.render"), "count"),
        "grpo.render.self_share": (share("grpo.render"), "ratio"),
        "grpo.policy_step.self_share": (share("grpo.policy_step"), "ratio"),
        "grpo.reward_matrix.self_share": (share("grpo.reward_matrix"), "ratio"),
        "grpo.train.self_share": (share("grpo.train"), "ratio"),
        "bench.generate_slide_text.self_share": (share("bench.generate_slide_text"), "ratio"),
        "bench.render_slide.self_share": (share("bench.render_slide"), "ratio"),
        "bench.build_dataset.self_share": (share("bench.build_dataset"), "ratio"),
        "bench.bytes_written": (checks.tree_bytes(built) if built.exists() else 0, "B"),
        "data.read_samples.self_share": (share("data.read_samples"), "ratio"),
        "data.read_hypotheses.self_share": (share("data.read_hypotheses"), "ratio"),
        "data.pair_by_id.self_share": (share("data.pair_by_id"), "ratio"),
        "data.records_rejected": (plan.seed_count - manifest_rows + rows_in - rows_out, "count"),
    }
    for cmd in ("score", "reward", "detect", "build", "simulate"):
        m[f"cli.{cmd}.self_share"] = (share(f"cli.{cmd}"), "ratio")
    m["trace.traced_s"] = (root_s, "s")
    m["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return m


def measure_layers(plan: Plan, seconds: float, golden: dict, oracles) -> tuple[dict, dict]:
    """Alternate untraced and traced invocations of each command for ``seconds``.

    Call counts must repeat exactly in every round; times are medians over rounds.
    """
    rounds: list[dict] = []
    for _ in passes_within(seconds):
        by_cmd, traced, untraced = {}, {}, {}
        for cmd in plan.commands:
            plain = run_invocation(plan, cmd, golden, oracles)
            prefix = plan.work / "spans" / cmd.name
            prefix.parent.mkdir(exist_ok=True)
            inv = run_invocation(plan, cmd, golden, oracles, spans=prefix)
            if plain.ok and inv.ok:
                by_cmd[cmd.name] = aggregate_spans(prefix)
                traced[cmd.name], untraced[cmd.name] = inv.wall_s, plain.wall_s
        if len(by_cmd) < len(plan.commands):
            break
        rounds.append({"by_cmd": by_cmd, "traced": traced, "untraced": untraced,
                       "metrics": layer_metrics(plan, by_cmd, sum(traced.values()), sum(untraced.values()))})
    if not rounds:
        return {}, {}
    counts = [{c: per_command_counts(a) for c, a in r["by_cmd"].items()} for r in rounds]
    if any(c != counts[0] for c in counts[1:]):
        plan.problems.append("trace: call counts differ between rounds of the same inputs")
    metrics = {}
    for name, (_, unit) in rounds[0]["metrics"].items():
        values = [r["metrics"][name][0] for r in rounds]
        metrics[name] = (statistics.median(values), unit, len(values))
    return metrics, {"rounds": [{k: r[k] for k in ("traced", "untraced")} for r in rounds],
                     "first_round": rounds[0]["by_cmd"]}


# ---------------------------------------------------------------------------
# reporting


def environment(seed: int) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "vapokit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        # --git-dir keeps git from searching the parent directories for a repository
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:
        commit = None
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def print_layer_table(by_cmd: dict[str, dict]) -> None:
    print("# per layer, first traced round: calls and self seconds per command")
    for cmd, agg in by_cmd.items():
        cache = agg["tokenize_cache"]
        total = cache["hits"] + cache["misses"]
        print(f"#   {cmd}: root {agg['root_s']:.4f} s, tokenize cache {cache['hits']}/{total} hits")
        for name in sorted(agg["calls"], key=lambda n: -agg["self_s"][n]):
            if agg["calls"][name]:
                print(f"#     {name + '.self_s':<44} {agg['self_s'][name]:10.4f} s   calls {agg['calls'][name]}")


def run_workload(workload: str, why: str, seed: int, seconds: float, trace: bool, golden: dict, oracles) -> dict:
    work = WORK_ROOT / f"{workload}-s{seed}-p{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        plan = prepare(workload, seed, work, golden)
        if trace:
            metrics, samples = measure_layers(plan, seconds, golden, oracles)
        else:
            metrics, samples = measure_end_to_end(plan, seconds, golden, oracles)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    attempted = len(plan.invocations)
    failed = sum(not i.ok for i in plan.invocations)
    print(f"# workload {workload}: {why}")
    for problem in plan.problems[:20]:
        print(f"# PROBLEM {problem}")
    for name, digest in plan.reference.items():
        print(f"# output digest {name} {digest}")
    if trace and samples:
        print_layer_table(samples["first_round"])
    if not trace:
        print_command_rates(samples)
    for name, (value, unit, n) in metrics.items():
        print(f"{workload:<17} {name:<46} {value:14.6f} {unit:<6} n={n}")
    print(f"{workload:<17} {'error_rate':<46} {failed / attempted:14.6f} ratio  ({failed} failed / {attempted} invocations)")
    return {
        "workload": workload,
        "correct": not plan.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "problems": plan.problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", type=Path, default=None, help="also write samples and environment here")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so children are killed and work files removed
    try:
        check_source_tree()
        whys = {w["name"]: w["why"] for w in json.loads(SPEC.read_text(encoding="utf-8"))["workloads"]}
        golden = checks.golden_digests()
        oracles = checks.load_oracles(ROOT)
        env = environment(args.seed)
        print(f"# vapokit bench seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
              + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(w, whys[w], args.seed, args.seconds, bool(args.trace), golden, oracles)
                   for w in workloads]
    except SetupError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    single = len(results) == 1
    metrics = {
        (name if single else f"{r['workload']}/{name}"): {"value": value, "unit": unit}
        for r in results
        for name, (value, unit, _) in r["metrics"].items()
    }
    if args.record:
        args.record.write_text(json.dumps({"env": env, "args": {k: str(v) for k, v in vars(args).items()},
                                           "results": results}, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
