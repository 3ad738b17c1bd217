"""The golden CLI outputs are the same bytes under every other CPython found.

Each interpreter found (``python3.10`` to ``python3.14`` on ``PATH``, and
pyenv's ``~/.pyenv/versions/3.1*``) whose version differs from the one
running the tests runs ``_DRIVER`` once, with only the standard library: it
calls ``vapokit.cli.main`` for the golden ``score``, ``reward`` and
``detect``, the six ``report`` tables and the 60-step ``simulate``, and
writes what each command wrote into a directory. This process then compares
those bytes with ``tests/golden`` and the ``report`` pins.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN, REPORT_SHA256

SRC = GOLDEN.parent.parent / "src"
RECORDS = ("score", "reward", "detect")
SIMULATE_STDOUT = '{"steps": 60, "p_optimal": 0.07168234236583221}\n'

_DRIVER = r"""
import contextlib, io, sys
from pathlib import Path
src, golden, out = sys.argv[1:]
sys.path.insert(0, src)
from vapokit.cli import main

def run(name, argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        sys.exit(f"{name} exited {code}")
    Path(out, name + ".stdout").write_bytes(stdout.getvalue().encode("utf-8"))

dataset = ["--dataset", f"{golden}/manifest.jsonl"]
run("score", ["score", *dataset, "--hyp", f"{golden}/hyp.jsonl", "--out", f"{out}/score.json"])
run("reward", ["reward", *dataset, "--rollouts", f"{golden}/rollouts.jsonl", "--out", f"{out}/reward.json"])
run("detect", ["detect", *dataset, "--hyp", f"{golden}/hyp.jsonl", "--out", f"{out}/detect.json"])
for command in ("score", "reward", "detect"):
    for fmt in ("md", "tsv"):
        run(f"report-{command}-{fmt}", ["report", "--in", f"{golden}/{command}.json", "--format", fmt])
run("simulate", ["simulate", "--config", f"{golden}/simulate.json", "--out", f"{out}/simulate_trace.jsonl"])
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


def _mismatches(out: Path) -> list[str]:
    expected = {f"{name}.json": (GOLDEN / f"{name}.json").read_bytes() for name in RECORDS}
    expected.update({name: (GOLDEN / name).read_bytes() for name in ("simulate_trace.jsonl", "simulate_trace.csv")})
    expected["simulate.stdout"] = SIMULATE_STDOUT.encode("utf-8")
    wrong = [name for name, data in expected.items() if (out / name).read_bytes() != data]
    wrong += [f"report --in {command}.json --format {fmt}" for (command, fmt), digest in REPORT_SHA256.items()
              if hashlib.sha256((out / f"report-{command}-{fmt}.stdout").read_bytes()).hexdigest() != digest]
    return wrong


def test_golden_outputs_are_the_same_bytes_under_other_interpreters(tmp_path):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no CPython other than the running one was found")
    runs = {}
    for version, exe in interpreters.items():
        out = tmp_path / version
        out.mkdir()
        # -I: no PYTHON* variables or user site; -B: no bytecode of another version left in src
        runs[version] = subprocess.Popen([exe, "-I", "-B", "-c", _DRIVER, str(SRC), str(GOLDEN), str(out)],
                                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    failures = {}
    for version, proc in runs.items():
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0:
            failures[version] = err.strip()[-500:]
        elif wrong := _mismatches(tmp_path / version):
            failures[version] = wrong
    assert not failures, failures
