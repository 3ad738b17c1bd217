"""Import boundary: no command loads numpy, the network stack,
``dataclasses``, ``inspect`` or ``html``, and the tokenizer's CJK class is
compiled once, when first needed.

``score``, ``reward``, ``detect``, ``build`` and ``report`` are short runs, and
their wall time is mostly import. vapokit has no runtime dependency: the
policy sandbox is plain Python, so ``simulate`` loads no numpy either.
``urllib.request`` (with ``http.client``, ``ssl`` and ``email``) belongs to the
remote slide-text generator alone, so it is imported inside the function that
uses it. The records are NamedTuples or plain classes, not dataclasses,
because importing ``dataclasses`` (which loads ``inspect``) and processing
its classes was most of vapokit's own import time;
``test_records_keep_their_contract`` pins what the dataclasses promised.
``html`` is not loaded either: the slide SVG escapes its three markup
characters itself.
Import also compiles the module-level regexes. The tokenizer's CJK class is
the costly one, and ASCII text never needs it, so it is compiled once, on the
first text that is not ASCII. Each check runs in a fresh interpreter, because
this test process has long since imported everything.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vapokit.bench import LayoutLine, SlideText, ValidationReport
from vapokit.data import Hypothesis, Sample
from vapokit.grpo import BehaviorTuple, SimConfig, TraceStep, TrainTrace
from vapokit.metrics import Alignment, EntityRef, FuzzyMatch, MetricReport
from vapokit.rewards import RewardBreakdown, RewardWeights
from vapokit.structured import StructuredOutput

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
HEAVY = ("numpy", "urllib.request", "http.client", "ssl", "email", "dataclasses", "inspect", "html")

# Runs the CLI in-process, then prints which HEAVY modules got loaded.
_PROBE = """
import json, sys
import vapokit.cli
argv = json.loads(sys.argv[1])
code = vapokit.cli.main(argv) if argv else 0
print(json.dumps({"code": code, "loaded": sorted(m for m in %r if m in sys.modules)}))
""" % (HEAVY,)


def _run_cli(argv: list[str]) -> dict:
    """Run the probe in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_cli_loads_no_numpy_or_network_stack():
    assert _run_cli([]) == {"code": 0, "loaded": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--dataset", "{golden}/manifest.jsonl", "--hyp", "{golden}/hyp.jsonl", "--out", "{tmp}/o.json"],
        ["reward", "--dataset", "{golden}/manifest.jsonl", "--rollouts", "{golden}/rollouts.jsonl",
         "--out", "{tmp}/o.json"],
        ["detect", "--dataset", "{golden}/manifest.jsonl", "--hyp", "{golden}/hyp.jsonl", "--out", "{tmp}/o.json"],
        ["build", "--seeds", "{golden}/seeds.jsonl", "--outdir", "{tmp}/built"],
        ["report", "--in", "{golden}/score.json"],
        ["simulate", "--config", "{golden}/simulate.json", "--out", "{tmp}/t.jsonl"],
    ],
    ids=lambda argv: argv[0],
)
def test_offline_commands_load_no_numpy_or_network_stack(argv, tmp_path):
    argv = [a.format(golden=GOLDEN, tmp=tmp_path) for a in argv]
    assert _run_cli(argv) == {"code": 0, "loaded": []}


# Counts the regex compiles whose pattern contains the tokenizer's CJK class
# (its first range starts at U+3040): after importing vapokit.cli, after
# ASCII text has gone through every user of the class, after the first text
# with CJK, and after more. Each such compile costs milliseconds.
_CJK_PROBE = """
import json, re
compiler = getattr(re, "_compiler", None) or __import__("sre_compile")
compile_ = compiler.compile
compiles = 0
def recording(pattern, flags=0):
    global compiles
    compiles += isinstance(pattern, str) and "\\u3040" in pattern
    return compile_(pattern, flags)
compiler.compile = recording
counts = []
import vapokit.cli
from vapokit.bench import SlideText, layout_slide, word_count
from vapokit.textnorm import normalize_tokenize
counts.append(compiles)
normalize_tokenize("Plain ASCII: under_score, tabs\\tand digits 3.5!")
word_count("ascii words only")
layout_slide(SlideText("An ASCII title", "an ascii body"))
counts.append(compiles)
normalize_tokenize("\\u4f60\\u597d world")
counts.append(compiles)
normalize_tokenize("caf\\u00e9 \\uac00")
word_count("\\u5b57\\u5b57 words")
layout_slide(SlideText("\\u6807\\u9898", "\\u6b63\\u6587 text"))
counts.append(compiles)
print(json.dumps(counts))
"""


def test_cjk_class_compiles_once_on_first_non_ascii_text():
    """Every command pays import-time regex compiles in its setup time, so the
    CJK class is compiled on the first text that is not ASCII, once, and
    reused: a command that only sees ASCII text never compiles it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CJK_PROBE],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 1, 1]


# Per record: its class, every field in declaration order with a value (the
# default for a field that has one), the fields that have defaults, a field
# with another value, and whether the record is frozen.
_RECORDS = [
    (Alignment, {"substitutions": 1, "deletions": 0, "insertions": 2, "hits": 3, "ops": ()}, (), ("hits", 4), True),
    (EntityRef, {"surface": "New York", "tokens": ("new", "york")}, (), ("surface", "new york"), True),
    (FuzzyMatch, {"start": 0, "stop": 1, "distance": 1}, (), ("distance", 0), True),
    (StructuredOutput, {"think": "t", "answer": "a", "well_formed": True}, (), ("answer", "b"), True),
    (RewardWeights, {"lambda_format": 1.0, "lambda_ocr": 1.0, "lambda_asr": 1.0, "lambda_va": 1.0},
     ("lambda_format", "lambda_ocr", "lambda_asr", "lambda_va"), ("lambda_va", 2.0), True),
    (SlideText, {"title": "T", "body": "b"}, (), ("body", "c"), True),
    (LayoutLine, {"text": "t", "size_class": "title", "y": 80}, (), ("y", 124), True),
    (BehaviorTuple, {"format_ok": True, "ocr_level": 1.0, "asr_level": 0.5, "anchor_level": 0.0}, (),
     ("format_ok", False), True),
    (Sample, {"id": "s", "domain": "d", "lang": "en", "slide_text": "", "transcript_gt": "t", "entities": [],
              "audio_ref": "", "slide_image_ref": None, "duration_s": None},
     ("entities", "audio_ref", "slide_image_ref", "duration_s"), ("transcript_gt", "u"), False),
    (Hypothesis, {"id": "h", "text": "x"}, (), ("text", "y"), False),
    (MetricReport, {"wer": None, "b_wer": None, "u_wer": None, "recall": None, "ne_wer": None, "ne_fnr": None,
                    "counts": {}}, ("wer", "b_wer", "u_wer", "recall", "ne_wer", "ne_fnr", "counts"), ("wer", 0.5),
     False),
    (RewardBreakdown, {"r_format": 1, "r_ocr": 0.5, "r_asr": 1.0, "r_va": 0.0, "total": 2.5,
                       "anchored_entities": [], "diagnostics": []}, ("anchored_entities", "diagnostics"),
     ("total", 3.0), False),
    (SimConfig, {"steps": 2000, "group_size": 8, "lr": 0.1, "seed": 0, "weights": RewardWeights(),
                 "samples": "builtin:grpo_samples.jsonl"},
     ("steps", "group_size", "lr", "seed", "weights", "samples"), ("seed", 3), False),
    (TraceStep, {"step": 0, "mean_reward": 1.0, "expected_reward": 0.5, "mean_format": 1.0, "mean_ocr": 0.5,
                 "mean_asr": 0.5, "mean_va": 0.0, "p_optimal": 0.1}, (), ("p_optimal", 0.2), True),
    (TrainTrace, {"steps": [], "seed": 0, "config": {}, "final_logits": None}, (), ("seed", 1), False),
    (ValidationReport, {"samples": 1, "entities": 2, "violations": []}, ("violations",), ("entities", 3), False),
]


@pytest.mark.parametrize("cls, fields, defaults, change, frozen", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
def test_records_keep_their_contract(cls, fields, defaults, change, frozen):
    """The records keep the constructors, defaults, equality and (im)mutability they had as dataclasses."""
    record = cls(**fields)
    required = {k: v for k, v in fields.items() if k not in defaults}
    assert cls(*fields.values()) == record
    assert cls(**required) == record
    assert {name: getattr(record, name) for name in fields} == fields
    assert cls(**{**fields, change[0]: change[1]}) != record
    if frozen:
        assert record._fields == tuple(fields)
        with pytest.raises(AttributeError):
            setattr(record, *change)
        return
    assert list(vars(record)) == list(fields)  # declaration order, which the outputs follow
    assert record != type("Other", (cls,), {})(**fields)  # same fields, another class
    for name in defaults:
        if isinstance(fields[name], (list, dict)):  # a fresh container per record
            assert getattr(cls(**required), name) is not getattr(cls(**required), name)
    setattr(record, *change)
    assert getattr(record, change[0]) == change[1]


def test_every_source_string_encodes_to_utf8():
    """No docstring or string constant in ``src/vapokit`` holds a lone surrogate.

    A ``\\ud800`` escape in a non-raw docstring makes one, and importing the
    module then fails on Python 3.13 with ``UnicodeEncodeError``.
    """
    bad = []
    for path in sorted((ROOT / "src" / "vapokit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    node.value.encode("utf-8")
                except UnicodeEncodeError:
                    bad.append(f"{path.name}:{node.lineno}")
    assert bad == []


# The built-in ``sum`` calls that add integers, by module and enclosing function.
_INTEGER_SUMS = {("bench.py", "_cells"), ("ocr_behavior.py", "summarize")}


def _sum_calls(node: ast.AST, func: str | None = None):
    """(enclosing function, line) of each call to the bare name ``sum`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _sum_calls(child, child.name)
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "sum":
            yield func, child.lineno
        yield from _sum_calls(child, func)


def test_builtin_sum_adds_only_integers():
    """Every call to the built-in ``sum`` in ``src/vapokit`` is one of the
    integer sums in ``_INTEGER_SUMS``.

    The built-in ``sum`` of floats compensates its rounding from Python 3.12
    on, so its last bits depend on the interpreter. Float sums go through
    ``data.fold_sum`` (left to right) or ``math.fsum`` (correctly rounded).
    """
    stray = []
    for path in sorted((ROOT / "src" / "vapokit").glob("*.py")):
        for func, line in _sum_calls(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, func) not in _INTEGER_SUMS:
                stray.append(f"{path.name}:{line} in {func}")
    assert stray == []
