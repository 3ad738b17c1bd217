"""Which fault a JSONL reader reports when a file has more than one.

The readers make each record as its line is parsed, but a line that is not
JSON is still the error reported when a bad record comes before it: the
first record error is held until the whole file has parsed. A file whose
only fault is a bad record reports that record.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from vapokit.bench import read_seed_records, validate_manifest
from vapokit.cli import main
from vapokit.data import read_hypotheses, read_samples
from vapokit.errors import ToolkitError

GOOD = {"id": "a", "domain": "general", "transcript_gt": "talk", "text": "talk"}
BAD_RECORD = "[1]"  # line 2: valid JSON, but no record
NOT_JSON = '{"id": '  # line 4: not JSON
LINES = [json.dumps(GOOD), BAD_RECORD, json.dumps(GOOD | {"id": "b"}), NOT_JSON]
BAD_RECORD_DETAIL = "record is not a JSON object: [1]"


def two_faults(directory: Path) -> Path:
    """A bad record on line 2 and a line that is not JSON on line 4."""
    path = directory / "two_faults.jsonl"
    path.write_text("\n".join(LINES) + "\n", encoding="utf-8")
    return path


def one_fault(directory: Path) -> Path:
    """The same bad record on line 2, and no other fault."""
    path = directory / "one_fault.jsonl"
    path.write_text("\n".join(LINES[:3]) + "\n", encoding="utf-8")
    return path


def _not_json_detail(path: Path) -> str:
    return f"{path}:4: Expecting value: line 1 column 7 (char 6)"


READERS = {
    "read_samples": read_samples,
    "read_hypotheses": read_hypotheses,
    "read_seed_records": read_seed_records,
    "validate_manifest": validate_manifest,
}


@pytest.mark.parametrize("reader", list(READERS))
def test_a_later_line_that_is_not_json_beats_an_earlier_bad_record(reader, tmp_path):
    path = two_faults(tmp_path)
    with pytest.raises(ToolkitError) as exc:
        READERS[reader](path)
    assert (exc.value.code, str(exc.value)) == ("manifest-parse", _not_json_detail(path))


@pytest.mark.parametrize("reader", ["read_samples", "read_hypotheses", "read_seed_records"])
def test_a_file_whose_only_fault_is_a_bad_record_reports_it(reader, tmp_path):
    with pytest.raises(ToolkitError) as exc:
        READERS[reader](one_fault(tmp_path))
    assert (exc.value.code, str(exc.value)) == ("bad-record", BAD_RECORD_DETAIL)


def test_validate_manifest_reports_the_bad_record_of_a_file_without_other_faults(tmp_path):
    report = validate_manifest(one_fault(tmp_path))
    assert report.samples == 3
    assert report.violations == [{"id": None, "code": "bad-record", "detail": BAD_RECORD_DETAIL}]


def test_the_first_bad_record_is_the_one_reported(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(GOOD) + '\n{"id": ""}\n[2]\n', encoding="utf-8")
    with pytest.raises(ToolkitError) as exc:
        read_samples(path)
    assert (exc.value.code, str(exc.value)) == ("bad-record", "id must not be empty")


def _argv(command: str, dataset: Path, other: Path, out: Path) -> list[str]:
    if command == "build":
        return ["build", "--seeds", str(dataset), "--outdir", str(out)]
    flag = "--rollouts" if command == "reward" else "--hyp"
    return [command, "--dataset", str(dataset), flag, str(other), "--out", str(out)]


@pytest.mark.parametrize("command", ["score", "reward", "detect", "build"])
@pytest.mark.parametrize("faults", [two_faults, one_fault])
def test_commands_write_the_error_record_of_the_reported_fault(command, faults, tmp_path, capsys):
    dataset = faults(tmp_path)
    other = tmp_path / "hyp.jsonl"
    other.write_text(json.dumps(GOOD) + "\n", encoding="utf-8")
    assert main(_argv(command, dataset, other, tmp_path / "out")) == 1
    expected = ("manifest-parse", _not_json_detail(dataset)) if faults is two_faults else ("bad-record", BAD_RECORD_DETAIL)
    record = capsys.readouterr().err
    assert record == json.dumps({"error": expected[0], "detail": expected[1]}) + "\n"
    assert not (tmp_path / "out").exists()
