"""Import boundary: the offline commands never load numpy or the network stack,
and import compiles the tokenizer's CJK class once.

``score``, ``reward``, ``detect``, ``build`` and ``report`` are short runs, and
their wall time is mostly import. numpy belongs to ``simulate`` alone, and
``urllib.request`` (with ``http.client``, ``ssl`` and ``email``) to the remote
slide-text generator alone, so both are imported inside the functions that
use them. Import also compiles the module-level regexes, and the CJK class
is the costly one, so it is compiled once. Each check runs in a fresh
interpreter, because this test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
HEAVY = ("numpy", "urllib.request", "http.client", "ssl", "email")

# Runs the CLI in-process, then prints which HEAVY modules got loaded.
_PROBE = """
import json, sys
import vapokit.cli
argv = json.loads(sys.argv[1])
code = vapokit.cli.main(argv) if argv else 0
print(json.dumps({"code": code, "loaded": sorted(m for m in %r if m in sys.modules)}))
""" % (HEAVY,)


def _loaded_after(argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_cli_loads_no_numpy_or_network_stack():
    assert _loaded_after([]) == {"code": 0, "loaded": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--dataset", "{golden}/manifest.jsonl", "--hyp", "{golden}/hyp.jsonl", "--out", "{tmp}/o.json"],
        ["reward", "--dataset", "{golden}/manifest.jsonl", "--rollouts", "{golden}/rollouts.jsonl",
         "--out", "{tmp}/o.json"],
        ["detect", "--dataset", "{golden}/manifest.jsonl", "--hyp", "{golden}/hyp.jsonl", "--out", "{tmp}/o.json"],
        ["build", "--seeds", "{golden}/seeds.jsonl", "--outdir", "{tmp}/built"],
        ["report", "--in", "{golden}/score.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_offline_commands_load_no_numpy_or_network_stack(argv, tmp_path):
    argv = [a.format(golden=GOLDEN, tmp=tmp_path) for a in argv]
    assert _loaded_after(argv) == {"code": 0, "loaded": []}


def test_simulate_still_loads_numpy(tmp_path):
    argv = ["simulate", "--config", str(GOLDEN / "simulate.json"), "--out", str(tmp_path / "t.jsonl")]
    assert "numpy" in _loaded_after(argv)["loaded"]


# Records every pattern compiled while vapokit.cli is imported, then prints
# how many distinct ones contain the tokenizer's CJK class (its first range
# starts at U+3040). Each such class costs milliseconds to compile.
_CJK_PROBE = """
import json, re
seen = set()
compile_ = re._compile
def recording(pattern, flags):
    seen.add(pattern)
    return compile_(pattern, flags)
re._compile = recording
import vapokit.cli
print(json.dumps(sum(1 for p in seen if isinstance(p, str) and "\\u3040" in p)))
"""


def test_import_compiles_the_cjk_class_once():
    """Every command pays import-time regex compiles in its setup time, so the
    CJK class is compiled once, into the tokenizer's pattern, and reused."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CJK_PROBE],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == 1
