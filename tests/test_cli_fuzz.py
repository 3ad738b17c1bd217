"""No input file makes a CLI command raise.

Each command runs in-process on derandomized random JSON / JSONL files and
must either exit 0 with nothing on stderr, or exit 1 with exactly one
``{"error": ..., "detail": ...}`` record on stderr. Half the files hold
well-formed records only; in the rest, now and then a field is dropped or
replaced by any JSON value, or a line is any JSON value or undecodable bytes. Text includes CJK,
``/``, NUL and lone surrogates; numbers include NaN and infinity.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vapokit.cli import main

_SETTINGS = dict(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

TEXT = st.text(alphabet=st.sampled_from(list("ab z,._") + ["阿", "é", "/", "\n", "\x00", "\ud800"]), max_size=8)
NUMBER = st.integers(-3, 3) | st.floats(-10, 10) | st.sampled_from([float("nan"), float("inf")])
JSON = st.recursive(
    st.none() | st.booleans() | NUMBER | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)
JUNK_LINE = JSON | st.binary(max_size=8)


def _mostly(good, bad, one_in: int = 6):
    """``good``, except one draw in ``one_in`` that is ``bad``."""
    return st.integers(0, one_in - 1).flatmap(lambda i: bad if i == 0 else good)


def _damaged(records):
    """Records with, now and then, one field dropped or replaced by any JSON value."""

    def apply(args):
        record, key, value, how = args
        if how == "drop":
            record.pop(key, None)
        elif how == "replace":
            record[key] = value
        return record

    how = _mostly(st.just("keep"), st.sampled_from(["drop", "replace"]), one_in=4)
    return records.flatmap(lambda r: st.tuples(st.just(r), st.sampled_from(sorted(r) or ["id"]), JSON, how)).map(apply)


ID = st.sampled_from(["a", "b", 7])
_WORD = st.sampled_from(["aspirin", "warfarin", "阿司匹林", "the", "a.b", "?", "aspirn"])
WORDS = st.lists(_WORD, max_size=6).map(" ".join)
TRANSCRIPT = st.lists(_WORD, min_size=1, max_size=6).map(" ".join)
ENTITIES = st.lists(st.sampled_from(["aspirin", "warfarin", "阿司匹林", "the a", "x" * 80]), max_size=3)
ROLLOUT = st.builds(
    lambda think, answer, close: f"<think>{think}</think><answer>{answer}{'</answer>' if close else ''}",
    WORDS,
    WORDS,
    st.booleans(),
)
_COMMON = {
    "id": ID,
    "domain": st.sampled_from(["medicine", "general", ""]),
    "lang": st.sampled_from(["en", "zh"]),
    "entities": ENTITIES,
}
_OPTIONAL = {"duration_s": st.none() | st.integers(0, 90) | st.floats(0, 90), "audio_ref": TEXT}
SAMPLE = st.fixed_dictionaries({**_COMMON, "slide_text": WORDS, "transcript_gt": TRANSCRIPT}, optional=_OPTIONAL)
SEED = st.fixed_dictionaries({**_COMMON, "id": ID | TEXT, "transcript": TRANSCRIPT}, optional=_OPTIONAL)
HYPOTHESIS = st.fixed_dictionaries({"id": ID, "text": WORDS | ROLLOUT})


def _to_bytes(value) -> bytes:
    """Raw bytes as they are; anything else as its JSON text."""
    return value if isinstance(value, bytes) else json.dumps(value).encode("utf-8")


def _jsonl(records):
    """Half the files hold clean records with distinct ids; the rest have damaged records and junk lines."""
    clean = st.lists(records, min_size=1, max_size=4, unique_by=lambda r: str(r["id"]))
    dirty = st.lists(_mostly(_damaged(records), JUNK_LINE), max_size=4)
    return (clean | dirty).map(lambda rows: b"".join(_to_bytes(r) + b"\n" for r in rows))


JUNK_FILE = JUNK_LINE.map(_to_bytes)
ROW = st.fixed_dictionaries({"id": ID}, optional={"wer": st.none() | NUMBER, "recall": NUMBER, "note": TEXT})
REPORT_FILE = _mostly(
    st.lists(_damaged(ROW), max_size=3).flatmap(lambda rows: st.sampled_from([rows, {"rows": rows}])).map(_to_bytes),
    JUNK_FILE,
)
WEIGHTS = st.dictionaries(
    st.sampled_from(["lambda_format", "lambda_ocr", "lambda_asr", "lambda_va"]), st.floats(0, 3), max_size=4
)
WEIGHTS_FILE = _mostly(
    _damaged(WEIGHTS).map(_to_bytes)
    | WEIGHTS.map(lambda d: "".join(f"{k}={v}\n" for k, v in d.items()).encode("utf-8")),
    JUNK_FILE,
)
# Numeric fields stay small, so a valid config trains for a few steps only.
CONFIG = st.fixed_dictionaries(
    {"steps": st.integers(1, 3), "group_size": st.integers(2, 4)},
    optional={
        "lr": st.floats(0.01, 1.0),
        "seed": st.integers(0, 3),
        "weights": WEIGHTS,
        "samples": st.sampled_from(["builtin:grpo_samples.jsonl", "builtin:seeds_5.jsonl", "missing.jsonl"]),
    },
)
CONFIG_FILE = _mostly(
    _damaged(CONFIG).map(_to_bytes),
    JUNK_FILE,
    one_in=3,
)


def _check(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        return
    assert code == 1
    (line,) = err.getvalue().splitlines()
    assert set(json.loads(line)) == {"error", "detail"}


def _run(command: list[str], files: dict[str, bytes], out: str | None = "out.json") -> None:
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(command)
        for flag, content in files.items():
            path = Path(tmp) / flag.strip("-")
            path.write_bytes(content)
            argv += [flag, str(path)]
        if out is not None:
            argv += ["--outdir" if command[0] == "build" else "--out", str(Path(tmp) / out)]
        _check(argv)


@settings(max_examples=40, **_SETTINGS)
@given(dataset=_jsonl(SAMPLE), hyp=_jsonl(HYPOTHESIS))
def test_score_never_raises(dataset, hyp):
    _run(["score", "--allow-partial"], {"--dataset": dataset, "--hyp": hyp})


@settings(max_examples=40, **_SETTINGS)
@given(dataset=_jsonl(SAMPLE), rollouts=_jsonl(HYPOTHESIS), weights=st.none() | WEIGHTS_FILE)
def test_reward_never_raises(dataset, rollouts, weights):
    files = {"--dataset": dataset, "--rollouts": rollouts}
    if weights is not None:
        files["--weights"] = weights
    _run(["reward", "--allow-partial"], files)


@settings(max_examples=25, **_SETTINGS)
@given(dataset=_jsonl(SAMPLE), hyp=_jsonl(HYPOTHESIS))
def test_detect_never_raises(dataset, hyp):
    _run(["detect", "--allow-partial"], {"--dataset": dataset, "--hyp": hyp})


@settings(max_examples=25, **_SETTINGS)
@given(seeds=_jsonl(SEED))
def test_build_never_raises(seeds):
    _run(["build"], {"--seeds": seeds}, out="built")


@settings(max_examples=30, **_SETTINGS)
@given(payload=REPORT_FILE, fmt=st.sampled_from(["md", "tsv"]))
def test_report_never_raises(payload, fmt):
    _run(["report", "--format", fmt], {"--in": payload}, out=None)


@settings(max_examples=12, **_SETTINGS)
@given(config=CONFIG_FILE)
def test_simulate_never_raises(config):
    _run(["simulate"], {"--config": config}, out="trace.jsonl")
