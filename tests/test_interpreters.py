"""The golden CLI outputs are the same bytes under every other CPython found.

Each interpreter found (``python3.10`` to ``python3.14`` on ``PATH``, and
pyenv's ``~/.pyenv/versions/3.1*``) whose version differs from the one
running the tests runs ``_DRIVER`` once, with only the standard library: it
calls ``vapokit.cli.main`` for each of ``_commands`` (the golden ``score``,
``reward``, ``detect`` and ``build``, the six ``report`` tables, the 60-step
and the shipped ``simulate``, ``reward`` on the inputs whose mean the
compensated sums would change, ``score`` on the two datasets of
``test_readers``, which it must reject, and ``score``, ``reward``, ``detect``
and ``build`` on golden inputs whose records share slides) and writes what
each command wrote into a directory. This process then compares those bytes
with ``tests/golden``, the pinned digests, the left-to-right means and the
error records and shared-slide outputs this interpreter writes.

Each interpreter found also builds the ``eval-short-en`` seeds and reports
what the build leaves allocated once it returns (``_BUILD_LEFTOVER``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import FOLD_MEAN_TOTALS, write_fold_inputs
from test_golden import GOLDEN, REPORT_SHA256, SHIPPED_SIMULATE_SHA256, SLIDES_SHA256
from test_memory import write_shared_inputs, write_tiled_seeds
from test_readers import one_fault, two_faults
from vapokit.cli import main
from vapokit.data import builtin_path

SRC = GOLDEN.parent.parent / "src"
RECORDS = ("score", "reward", "detect")
SIMULATE_STDOUT = '{"steps": 60, "p_optimal": 0.07168234236583221}\n'
BUILD_STDOUT = '{"samples": 6, "entities": 23, "hours": 0.03666666666666667}\n'

# Arguments: the source directory, the output directory and a JSON list of
# commands. Each command is (name, argv, exit code), with "{out}" in argv
# standing for the output directory; its stdout and stderr go to
# <name>.stdout and <name>.stderr there.
_DRIVER = r"""
import contextlib, io, json, sys
from pathlib import Path
src, out, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, src)
from vapokit.cli import main

for name, argv, expected in commands:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([arg.replace("{out}", out) for arg in argv])
    if code != expected:
        sys.exit(f"{name} exited {code}: {stderr.getvalue()}")
    Path(out, name + ".stdout").write_bytes(stdout.getvalue().encode("utf-8"))
    Path(out, name + ".stderr").write_bytes(stderr.getvalue().encode("utf-8"))
"""

_VERSION = "import sys; print(sys.implementation.name, '.'.join(map(str, sys.version_info[:3])))"


def _other_interpreters() -> dict[str, str]:
    """version -> executable, one per CPython version found other than this one's."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 15)]
    candidates += map(str, sorted((Path.home() / ".pyenv" / "versions").glob("3.1*/bin/python3")))
    probes = [(exe, subprocess.Popen([exe, "-I", "-c", _VERSION], stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True))
              for exe in dict.fromkeys(filter(None, candidates))]
    own = ".".join(map(str, sys.version_info[:3]))
    found = {}
    for exe, proc in probes:
        out, _ = proc.communicate(timeout=30)
        if proc.returncode == 0 and out.startswith("cpython ") and out.split()[1] != own:
            found.setdefault(out.split()[1], exe)
    return found


def _commands(fold: Path) -> list[tuple[str, list[str], int]]:
    """The commands each interpreter runs, with their exit codes; the fold, fault and shared-slide inputs are written under ``fold``."""
    dataset = ["--dataset", f"{GOLDEN}/manifest.jsonl"]
    commands = [
        ("score", ["score", *dataset, "--hyp", f"{GOLDEN}/hyp.jsonl", "--out", "{out}/score.json"]),
        ("reward", ["reward", *dataset, "--rollouts", f"{GOLDEN}/rollouts.jsonl", "--out", "{out}/reward.json"]),
        ("detect", ["detect", *dataset, "--hyp", f"{GOLDEN}/hyp.jsonl", "--out", "{out}/detect.json"]),
        ("build", ["build", "--seeds", f"{GOLDEN}/seeds.jsonl", "--outdir", "{out}/built"]),
        ("simulate", ["simulate", "--config", f"{GOLDEN}/simulate.json", "--out", "{out}/simulate_trace.jsonl"]),
        ("shipped", ["simulate", "--config", str(builtin_path("simulate_default.json")), "--seed", "0",
                     "--out", "{out}/trace.jsonl"]),
    ]
    commands += [(f"report-{command}-{fmt}", ["report", "--in", f"{GOLDEN}/{command}.json", "--format", fmt])
                 for command, fmt in REPORT_SHA256]
    for k, weight in enumerate(FOLD_MEAN_TOTALS):
        (fold / str(k)).mkdir(parents=True)
        argv = write_fold_inputs(fold / str(k), weight)
        commands.append((f"fold-{k}", [*argv, "--out", f"{{out}}/fold-{k}.json"]))
    shared = write_shared_inputs(fold)
    data = ["--dataset", shared["--dataset"]]
    commands += [
        ("shared-score", ["score", *data, "--hyp", shared["--hyp"], "--out", "{out}/shared-score.json"]),
        ("shared-reward", ["reward", *data, "--rollouts", shared["--rollouts"], "--out", "{out}/shared-reward.json"]),
        ("shared-detect", ["detect", *data, "--hyp", shared["--hyp"], "--out", "{out}/shared-detect.json"]),
        ("shared-build", ["build", "--seeds", shared["--seeds"], "--outdir", "{out}/shared-built"]),
    ]
    commands = [(name, argv, 0) for name, argv in commands]
    for faults in (two_faults, one_fault):
        argv = ["score", "--dataset", str(faults(fold)), "--hyp", f"{GOLDEN}/hyp.jsonl", "--out", "{out}/fault.json"]
        commands.append((faults.__name__, argv, 1))
    return commands


def _error_record(argv: list[str]) -> bytes:
    """What this interpreter writes to stderr for a command that fails before writing any output."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert main(argv) == 1
    return stderr.getvalue().encode("utf-8")


def _shared_outputs(commands: list[tuple[str, list[str], int]], out: Path) -> dict[str, bytes]:
    """What this interpreter writes for the shared-slide commands, by path under ``out``."""
    out.mkdir()
    for name, argv, _ in commands:
        if name.startswith("shared-"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([arg.replace("{out}", str(out)) for arg in argv]) == 0
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


def _sha256(*paths: Path) -> str:
    return hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()


def _mismatches(out: Path, commands: list[tuple[str, list[str], int]], shared: dict[str, bytes]) -> list[str]:
    expected = {f"{name}.json": (GOLDEN / f"{name}.json").read_bytes() for name in RECORDS}
    expected.update(shared)
    expected.update({name: (GOLDEN / name).read_bytes() for name in ("simulate_trace.jsonl", "simulate_trace.csv")})
    expected.update({f"built/{name}": (GOLDEN / name).read_bytes() for name in ("manifest.jsonl", "stats.json")})
    expected["simulate.stdout"] = SIMULATE_STDOUT.encode("utf-8")
    expected["build.stdout"] = BUILD_STDOUT.encode("utf-8")
    expected.update({f"{name}.stderr": _error_record([arg.replace("{out}", str(out)) for arg in argv])
                     for name, argv, code in commands if code})
    wrong = [name for name, data in expected.items() if (out / name).read_bytes() != data]
    wrong += [f"report --in {command}.json --format {fmt}" for (command, fmt), digest in REPORT_SHA256.items()
              if _sha256(out / f"report-{command}-{fmt}.stdout") != digest]
    if _sha256(*sorted((out / "built" / "slides").iterdir())) != SLIDES_SHA256:
        wrong.append("built/slides")
    wrong += [f"shipped {name}" for name, digest in SHIPPED_SIMULATE_SHA256.items() if _sha256(out / name) != digest]
    means = [json.loads((out / f"fold-{k}.json").read_text())["mean_total"] for k in range(len(FOLD_MEAN_TOTALS))]
    wrong += [f"reward mean_total at weight {weight}"
              for mean, (weight, mean_total) in zip(means, FOLD_MEAN_TOTALS.items()) if mean != mean_total]
    return wrong


def test_golden_outputs_are_the_same_bytes_under_other_interpreters(tmp_path):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no CPython other than the running one was found")
    commands = _commands(tmp_path / "fold")
    shared = _shared_outputs(commands, tmp_path / "own")
    runs = {}
    for version, exe in interpreters.items():
        out = tmp_path / version
        out.mkdir()
        # -I: no PYTHON* variables or user site; -B: no bytecode of another version left in src
        runs[version] = subprocess.Popen([exe, "-I", "-B", "-c", _DRIVER, str(SRC), str(out), json.dumps(commands)],
                                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    failures = {}
    for version, proc in runs.items():
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0:
            failures[version] = err.strip()[-500:]
        elif wrong := _mismatches(tmp_path / version, commands, shared):
            failures[version] = wrong
    assert not failures, failures


# Arguments: the source directory and a seeds file. Prints how many bytes a
# build of the seeds leaves allocated once it returns and the tokenizer cache
# is cleared, with the seeds still held.
_BUILD_LEFTOVER = r"""
import sys, tempfile, tracemalloc
sys.path.insert(0, sys.argv[1])
from vapokit.bench import build_dataset, read_seed_records
from vapokit.textnorm import _tokenize
seeds = read_seed_records(sys.argv[2])
with tempfile.TemporaryDirectory() as tmp:
    build_dataset(seeds[:60], tmp + "/warm")  # the allocations of first use
    _tokenize.cache_clear()
    tracemalloc.start()
    build_dataset(seeds, tmp + "/out")
    _tokenize.cache_clear()
    print(tracemalloc.get_traced_memory()[0])
"""


def test_build_leaves_nothing_per_seed_under_other_interpreters(tmp_path):
    """``build`` names its slide files with ``os.path``: ``pathlib`` interns
    each part of a path it parses, and Python 3.12 and 3.13 keep those
    strings, so ``outdir / image_rel`` left 169 KB (3.12.1) and 416 KB
    (3.13.0) after building these 3000 seeds, where the build leaves under
    8 KB on every version. Calling ``vars`` on each held seed, which gives it
    a dict of its own from 3.11 on, leaves about 190 KB more."""
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no CPython other than the running one was found")
    seeds = write_tiled_seeds(tmp_path / "seeds.jsonl", 50)
    runs = {version: subprocess.Popen([exe, "-I", "-B", "-c", _BUILD_LEFTOVER, str(SRC), seeds],
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for version, exe in interpreters.items()}
    left = {}
    for version, proc in runs.items():
        out, err = proc.communicate(timeout=120)
        left[version] = int(out) if proc.returncode == 0 else err.strip()[-500:]
    assert all(isinstance(n, int) and n < 16 * 3000 for n in left.values()), left
