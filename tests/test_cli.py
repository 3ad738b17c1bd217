from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vapokit import cli, ocr_behavior
from vapokit.cli import main
from vapokit.data import Hypothesis, Sample, builtin_path, read_jsonl, write_jsonl
from vapokit.structured import serialize_structured


@pytest.fixture
def corpus(tmp_path):
    samples = [
        {
            "id": f"c{i}",
            "domain": "medicine",
            "lang": "en",
            "slide_text": f"slide {i} covers aspirin and warfarin today",
            "transcript_gt": f"sample {i} talk mentions aspirin and warfarin in clinics",
            "entities": ["aspirin", "warfarin"],
            "audio_ref": f"audio/c{i}.wav",
        }
        for i in range(3)
    ]
    dataset = tmp_path / "dataset.jsonl"
    write_jsonl(dataset, samples)
    return samples, dataset


def test_score_perfect(tmp_path, corpus):
    samples, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": s["id"], "text": s["transcript_gt"]} for s in samples])
    out = tmp_path / "report.json"
    code = main(
        [
            "score",
            "--dataset", str(dataset),
            "--hyp", str(hyp),
            "--metrics", "wer,bwer,uwer,recall,newer,nefnr",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 3
    agg = payload["aggregate"]
    assert agg["wer"] == 0.0 and agg["b_wer"] == 0.0 and agg["u_wer"] == 0.0
    assert agg["recall"] == 1.0 and agg["ne_wer"] == 0.0 and agg["ne_fnr"] == 0.0


def test_score_metric_subset(tmp_path, corpus):
    samples, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": s["id"], "text": s["transcript_gt"]} for s in samples])
    out = tmp_path / "report.json"
    code = main(
        ["score", "--dataset", str(dataset), "--hyp", str(hyp),
         "--metrics", "wer", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["rows"][0]["wer"] == 0.0
    assert payload["rows"][0]["recall"] is None
    assert [r["id"] for r in payload["rows"]] == ["c0", "c1", "c2"]


@pytest.mark.parametrize("metrics", ["wer,nope", ",", ""], ids=["unknown", "comma-only", "empty"])
def test_score_unknown_or_no_metrics_is_error_record(tmp_path, corpus, capsys, metrics):
    samples, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": s["id"], "text": s["transcript_gt"]} for s in samples])
    out = tmp_path / "report.json"
    code = main(["score", "--dataset", str(dataset), "--hyp", str(hyp), "--metrics", metrics, "--out", str(out)])
    assert code == 1
    assert _error_code(capsys) == "unknown-metric"
    assert not out.exists()


def test_score_pairing_failure(tmp_path, corpus, capsys):
    samples, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": "c0", "text": "x"}])
    code = main(["score", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(tmp_path / "o.json")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "pairing"
    assert "c1" in err["detail"] and "c2" in err["detail"]


def test_score_allow_partial(tmp_path, corpus):
    samples, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": "c0", "text": samples[0]["transcript_gt"]}])
    out = tmp_path / "o.json"
    code = main(
        ["score", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(out), "--allow-partial"]
    )
    assert code == 0
    assert len(json.loads(out.read_text())["rows"]) == 1


def test_score_empty_hypothesis_file(tmp_path, corpus):
    _, dataset = corpus
    hyp = tmp_path / "empty.jsonl"
    hyp.write_text("")
    code = main(["score", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(tmp_path / "o.json")])
    assert code == 1


def test_reward_perfect_and_weight_override(tmp_path, corpus):
    samples, dataset = corpus
    rollouts = tmp_path / "rollouts.jsonl"
    write_jsonl(
        rollouts,
        [
            {"id": s["id"], "output": serialize_structured(s["slide_text"], s["transcript_gt"])}
            for s in samples
        ],
    )
    out = tmp_path / "rewards.json"
    code = main(["reward", "--dataset", str(dataset), "--rollouts", str(rollouts), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert all(r["total"] == 4.0 for r in payload["rows"])

    weights = tmp_path / "weights.json"
    weights.write_text('{"lambda_va": 2.0}')
    code = main(
        ["reward", "--dataset", str(dataset), "--rollouts", str(rollouts),
         "--weights", str(weights), "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert all(r["total"] == 5.0 for r in payload["rows"])


def test_reward_tolerates_malformed_rollout(tmp_path, corpus):
    samples, dataset = corpus
    rollouts = tmp_path / "rollouts.jsonl"
    rows = [
        {"id": s["id"], "output": serialize_structured(s["slide_text"], s["transcript_gt"])}
        for s in samples
    ]
    rows[1]["output"] = "<think>broken"
    write_jsonl(rollouts, rows)
    out = tmp_path / "rewards.json"
    code = main(["reward", "--dataset", str(dataset), "--rollouts", str(rollouts), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    by_id = {r["id"]: r for r in payload["rows"]}
    assert by_id["c1"]["r_format"] == 0 and by_id["c1"]["total"] == 0.0
    assert by_id["c0"]["total"] == 4.0


def test_detect_command(tmp_path, corpus):
    samples, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    rows = [{"id": s["id"], "text": s["transcript_gt"]} for s in samples]
    rows[0]["text"] = samples[0]["slide_text"]  # slide-copying output
    write_jsonl(hyp, rows)
    out = tmp_path / "detect.json"
    code = main(["detect", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    flags = {r["id"]: r["ocr_behavior"] for r in payload["rows"]}
    assert flags == {"c0": True, "c1": False, "c2": False}
    assert payload["summary"]["rate_percent"] == pytest.approx(100 / 3)


def test_detect_partitions_each_record_once(tmp_path, corpus, monkeypatch):
    samples, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": s["id"], "text": s["transcript_gt"]} for s in samples])
    calls = []
    real = ocr_behavior.partition_vocab

    def counting_partition_vocab(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    pairings = []
    real_pair_by_id = ocr_behavior.pair_by_id

    def counting_pair_by_id(*args, **kwargs):
        pairings.append(1)
        return real_pair_by_id(*args, **kwargs)

    monkeypatch.setattr(ocr_behavior, "partition_vocab", counting_partition_vocab)
    monkeypatch.setattr(ocr_behavior, "pair_by_id", counting_pair_by_id)
    monkeypatch.setattr(cli, "pair_by_id", counting_pair_by_id)
    code = main(["detect", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(tmp_path / "d.json")])
    assert code == 0
    assert len(calls) == len(samples)
    assert len(pairings) == 1


def test_empty_id_is_bad_record(tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    write_jsonl(dataset, [{"id": "", "transcript_gt": "a talk about aspirin", "entities": ["aspirin"]}])
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": "", "text": "a talk about aspirin"}])
    out = tmp_path / "o.json"
    code = main(["score", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(out)])
    assert code == 1
    assert "empty" in _bad_record_error(capsys)["detail"]
    assert not out.exists()


def test_score_accepts_utf8_bom(tmp_path, corpus):
    samples, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    lines = [json.dumps({"id": s["id"], "text": s["transcript_gt"]}) for s in samples]
    hyp.write_bytes(b"\xef\xbb\xbf" + "\n".join(lines).encode("utf-8") + b"\n")
    out = tmp_path / "o.json"
    code = main(["score", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert [r["id"] for r in payload["rows"]] == ["c0", "c1", "c2"]
    assert payload["aggregate"]["wer"] == 0.0


def test_traced_cli_wraps_every_layer(tmp_path, corpus):
    """bench/traced_cli.py must install its wrappers on the current module layout."""
    samples, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": s["id"], "text": s["transcript_gt"]} for s in samples])
    root = Path(__file__).resolve().parent.parent
    prefix = tmp_path / "spans"
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "traced_cli.py"), str(root / "src"), str(prefix),
         "score", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(tmp_path / "o.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header = json.loads(Path(f"{prefix}.json").read_text())
    assert "metrics.align" in header["names"] and header["tokenize_cache"]["misses"] > 0


def test_build_command(tmp_path, capsys):
    outdir = tmp_path / "built"
    code = main(["build", "--seeds", str(builtin_path("seeds_5.jsonl")), "--outdir", str(outdir)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["samples"] == 5
    assert (outdir / "manifest.jsonl").exists()


def test_simulate_command(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"steps": 40, "seed": 1}))
    out = tmp_path / "trace.jsonl"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["steps"] == 40
    assert out.exists() and (tmp_path / "trace.csv").exists()
    assert len(read_jsonl(out)) == 41  # config header + 40 steps


def test_simulate_accepts_whole_float_integers(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"steps": 3.0, "group_size": 4.0, "seed": 1.0}))
    out = tmp_path / "trace.jsonl"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 3
    config_record = read_jsonl(out)[0]["config"]
    assert (config_record["steps"], config_record["group_size"], config_record["seed"]) == (3, 4, 1)


def test_simulate_bundled_default_config(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main(
        ["simulate", "--config", str(builtin_path("simulate_default.json")), "--out", str(out)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["p_optimal"] >= 0.9
    last_step = json.loads(out.read_text().splitlines()[-1])
    assert last_step["p_optimal"] >= 0.9


def test_report_command(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    metrics.write_text(json.dumps({"rows": [
        {"id": "a", "wer": 0.5, "recall": 0.9},
        {"id": "b", "wer": 0.25, "recall": 0.7},
        {"id": "c", "wer": 0.3, "recall": 0.95},
    ]}))
    code = main(["report", "--in", str(metrics), "--format", "md"])
    assert code == 0
    table = capsys.readouterr().out
    assert "| id | wer | recall |" in table
    assert "**0.2500**" in table  # best wer bold
    assert "_0.3000_" in table  # second-best wer underlined
    assert "**0.9500**" in table  # best recall bold

    code = main(["report", "--in", str(metrics), "--format", "tsv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "id\twer\trecall"


def test_report_no_rows(tmp_path, capsys):
    metrics = tmp_path / "empty.json"
    metrics.write_text('{"rows": []}')
    code = main(["report", "--in", str(metrics), "--format", "md"])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "no-rows"


def _bad_record_error(capsys) -> dict:
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "bad-record"
    return err


def test_hypothesis_without_id_is_bad_record(tmp_path, corpus, capsys):
    _, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": "c0", "text": "x"}, {"text": "no id here"}])
    code = main(["score", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "id" in _bad_record_error(capsys)["detail"]


def test_null_hypothesis_text_is_bad_record(tmp_path, corpus, capsys):
    samples, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    rows = [{"id": s["id"], "text": s["transcript_gt"]} for s in samples]
    rows[1]["text"] = None
    write_jsonl(hyp, rows)
    code = main(["score", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "text" in _bad_record_error(capsys)["detail"]
    assert not (tmp_path / "o.json").exists()


def test_string_entities_is_bad_record(tmp_path, corpus, capsys):
    samples, _ = corpus
    samples = [dict(s) for s in samples]
    samples[2]["entities"] = "aspirin"
    dataset = tmp_path / "bad_dataset.jsonl"
    write_jsonl(dataset, samples)
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": s["id"], "text": s["transcript_gt"]} for s in samples])
    code = main(["score", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "entities" in _bad_record_error(capsys)["detail"]


def test_non_object_line_is_bad_record(tmp_path, corpus, capsys):
    _, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text('["c0", "text"]\n')
    code = main(["detect", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(tmp_path / "o.json")])
    assert code == 1
    _bad_record_error(capsys)


def test_valid_records_parse_as_before():
    hyp = Hypothesis.from_dict({"id": 7, "output": "seven words"})
    assert (hyp.id, hyp.text) == ("7", "seven words")
    sample = Sample.from_dict({"id": "s", "transcript_gt": "t", "entities": ["a b"]})
    assert (sample.slide_text, sample.transcript_gt, sample.entities) == ("", "t", ["a b"])
    assert (sample.lang, sample.audio_ref, sample.slide_image_ref) == ("en", "", None)
    assert Sample.from_dict({"id": "s", "slide_image_ref": None}).slide_image_ref is None


def test_duplicate_hypothesis_id_is_rejected(tmp_path, corpus, capsys):
    samples, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    rows = [{"id": s["id"], "text": s["transcript_gt"]} for s in samples]
    write_jsonl(hyp, rows + [{"id": "c1", "text": "a second c1 that would replace the first"}])
    out = tmp_path / "o.json"
    code = main(["score", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "duplicate-id" and "c1" in err["detail"]
    assert not out.exists()


def test_duplicate_sample_id_is_rejected(tmp_path, corpus, capsys):
    samples, _ = corpus
    dataset = tmp_path / "dup_dataset.jsonl"
    write_jsonl(dataset, samples + [samples[0]])
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": s["id"], "text": s["transcript_gt"]} for s in samples])
    out = tmp_path / "o.json"
    code = main(["detect", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "duplicate-id" and "c0" in err["detail"]
    assert not out.exists()


def _build_one_seed(tmp_path, seed: dict) -> int:
    seeds = tmp_path / "seeds.jsonl"
    write_jsonl(seeds, [seed])
    return main(["build", "--seeds", str(seeds), "--outdir", str(tmp_path / "built")])


def test_build_string_entities_is_bad_record(tmp_path, capsys):
    seed = read_jsonl(builtin_path("seeds_5.jsonl"))[0]
    seed["entities"] = "benzene"
    assert _build_one_seed(tmp_path, seed) == 1
    assert "entities" in _bad_record_error(capsys)["detail"]
    assert not (tmp_path / "built" / "manifest.jsonl").exists()


def test_build_seed_without_id_is_bad_record(tmp_path, capsys):
    seed = read_jsonl(builtin_path("seeds_5.jsonl"))[0]
    del seed["id"]
    assert _build_one_seed(tmp_path, seed) == 1
    assert "id" in _bad_record_error(capsys)["detail"]


def test_build_repeated_seed_id_is_rejected(tmp_path, capsys):
    seed = read_jsonl(builtin_path("seeds_60.jsonl"))[0]
    seeds = tmp_path / "seeds.jsonl"
    write_jsonl(seeds, [seed, seed])
    outdir = tmp_path / "built"
    assert main(["build", "--seeds", str(seeds), "--outdir", str(outdir)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "duplicate-id" and seed["id"] in err["detail"]
    assert not outdir.exists()


def _error_code(capsys) -> str:
    return json.loads(capsys.readouterr().err.strip())["error"]


@pytest.mark.parametrize("command", ["score", "reward", "detect"])
def test_outputs_ignore_lang_label(tmp_path, command):
    """Tokenization is one rule for every language: rewriting every record's
    lang label leaves score, reward and detect outputs byte-identical."""
    samples = [
        {
            "id": "mix0",
            "domain": "medicine",
            "slide_text": "用药回顾\n今天讨论阿司匹林 and warfarin dosing",
            "transcript_gt": "今天我们讨论阿司匹林 then warfarin dosing in clinics",
            "entities": ["阿司匹林", "warfarin"],
        },
        {
            "id": "mix1",
            "domain": "biology",
            "slide_text": "Cell Biology\n端粒酶 and the plasmid vector",
            "transcript_gt": "the talk covers 端粒酶 activity and plasmid vectors",
            "entities": ["端粒酶", "plasmid"],
        },
    ]
    answers = {
        "mix0": "今天我们讨论阿司匹苹 then warfaring dosing",
        "mix1": "the talk covers 端粒 activity and plasmid vectors 今天",
    }
    hyp = tmp_path / "hyp.jsonl"
    if command == "reward":
        think = {s["id"]: s["slide_text"] for s in samples}
        write_jsonl(hyp, [
            {"id": rid, "text": serialize_structured(think[rid], answer)} for rid, answer in answers.items()
        ])
        argv = ["reward", "--rollouts", str(hyp)]
    else:
        write_jsonl(hyp, [{"id": rid, "text": answer} for rid, answer in answers.items()])
        argv = [command, "--hyp", str(hyp)]
    outputs = []
    for lang in ("en", "zh", "xx"):
        dataset = tmp_path / f"dataset_{lang}.jsonl"
        write_jsonl(dataset, [s | {"lang": lang} for s in samples])
        out = tmp_path / f"{command}_{lang}.json"
        assert main([*argv, "--dataset", str(dataset), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_score_has_no_lang_option(tmp_path, corpus):
    _, dataset = corpus
    with pytest.raises(SystemExit):
        main(["score", "--dataset", str(dataset), "--hyp", str(dataset), "--lang", "en",
              "--out", str(tmp_path / "o.json")])


@pytest.mark.parametrize("payload, code", [
    ("5", "no-rows"),
    ('"text"', "no-rows"),
    ('{"rows": "abc"}', "no-rows"),
    ('{"rows": [1, 2]}', "bad-record"),
    ('[{"id": "a"}, ["b"]]', "bad-record"),
])
def test_report_unexpected_json_is_error_record(tmp_path, capsys, payload, code):
    metrics = tmp_path / "m.json"
    metrics.write_text(payload)
    assert main(["report", "--in", str(metrics)]) == 1
    assert _error_code(capsys) == code


@pytest.mark.parametrize("weights", [
    "lambda_ocr=abc\n",
    '{"lambda_ocr": null}',
    '{"lambda_ocr": [1]}',
    '{"lambda_ocr": true}',
    '{"lambda_ocr": 1e999}',
    '{"lambda_format": 1e308, "lambda_ocr": 1e308}',
    "lambda_asr=1.5e308\nlambda_va=1.5e308\n",
])
def test_reward_non_numeric_weight_is_bad_weights(tmp_path, corpus, capsys, weights):
    samples, dataset = corpus
    rollouts = tmp_path / "r.jsonl"
    write_jsonl(rollouts, [{"id": s["id"], "text": "<think>x</think><answer>y</answer>"} for s in samples])
    path = tmp_path / "w.cfg"
    path.write_text(weights)
    out = tmp_path / "o.json"
    code = main(["reward", "--dataset", str(dataset), "--rollouts", str(rollouts),
                 "--weights", str(path), "--out", str(out)])
    assert code == 1
    assert _error_code(capsys) == "bad-weights"
    assert not out.exists()


def test_reward_mean_of_huge_totals_stays_finite(tmp_path, corpus):
    samples, dataset = corpus
    rollouts = tmp_path / "r.jsonl"
    write_jsonl(rollouts, [{"id": s["id"], "text": serialize_structured(s["slide_text"], s["transcript_gt"])}
                           for s in samples])
    path = tmp_path / "w.json"
    path.write_text('{"lambda_format": 1e308}')
    out = tmp_path / "o.json"
    code = main(["reward", "--dataset", str(dataset), "--rollouts", str(rollouts),
                 "--weights", str(path), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert payload["mean_total"] == pytest.approx(1e308)


@pytest.mark.parametrize("config", [
    "[1]",
    '"steps"',
    '{"steps": "abc"}',
    '{"steps": null}',
    '{"lr": "fast"}',
    '{"seed": -1}',
    '{"weights": [1]}',
    '{"weights": {"lambda_va": "x"}}',
    '{"samples": 5}',
    '{"step": 3}',
    '{"lambda_ocr": 0}',
    '{"exploration": "uniform"}',
    '{"steps": 2.9}',
    '{"group_size": 3.5}',
    '{"seed": 0.9}',
])
def test_simulate_bad_config_is_error_record(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(config)
    out = tmp_path / "trace.jsonl"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert _error_code(capsys) in ("bad-config", "bad-weights")
    assert not out.exists()


@pytest.mark.parametrize("duration", ["10", [10], True, -1.0])
def test_build_non_numeric_duration_is_bad_record(tmp_path, capsys, duration):
    seed = read_jsonl(builtin_path("seeds_5.jsonl"))[0]
    seed["duration_s"] = duration
    assert _build_one_seed(tmp_path, seed) == 1
    assert "duration_s" in _bad_record_error(capsys)["detail"]


def test_build_non_string_domain_is_bad_record(tmp_path, capsys):
    seed = read_jsonl(builtin_path("seeds_5.jsonl"))[0]
    seed["domain"] = ["medicine"]
    assert _build_one_seed(tmp_path, seed) == 1
    assert "domain" in _bad_record_error(capsys)["detail"]


def test_dataset_non_numeric_duration_is_bad_record(tmp_path, corpus, capsys):
    samples, _ = corpus
    dataset = tmp_path / "bad_dataset.jsonl"
    write_jsonl(dataset, [samples[0] | {"duration_s": "12.5"}])
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": samples[0]["id"], "text": "x"}])
    code = main(["score", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "duration_s" in _bad_record_error(capsys)["detail"]


@pytest.mark.parametrize("field, value", [
    ("lang", [5]),
    ("lang", None),
    ("audio_ref", {"x": 1}),
    ("slide_image_ref", 3),
    ("slide_image_ref", ["slides/c0.svg"]),
])
def test_dataset_non_string_label_is_bad_record(tmp_path, corpus, capsys, field, value):
    samples, _ = corpus
    dataset = tmp_path / "bad_dataset.jsonl"
    write_jsonl(dataset, [samples[0] | {field: value}])
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": samples[0]["id"], "text": "x"}])
    code = main(["score", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert field in _bad_record_error(capsys)["detail"]


@pytest.mark.parametrize("field, value", [("lang", [5]), ("audio_ref", {"x": 1})])
def test_build_non_string_label_is_bad_record(tmp_path, capsys, field, value):
    seed = read_jsonl(builtin_path("seeds_5.jsonl"))[0]
    seed[field] = value
    assert _build_one_seed(tmp_path, seed) == 1
    assert field in _bad_record_error(capsys)["detail"]
    assert not (tmp_path / "built" / "manifest.jsonl").exists()


def test_clean_rebuild_removes_stale_errors_file(tmp_path, capsys):
    seeds = read_jsonl(builtin_path("seeds_5.jsonl"))
    bad = {"id": "bad", "domain": "medicine", "transcript": "no entities here", "entities": []}
    outdir = tmp_path / "built"
    for name, rows in (("mixed.jsonl", seeds + [bad]), ("clean.jsonl", seeds)):
        write_jsonl(tmp_path / name, rows)
        assert main(["build", "--seeds", str(tmp_path / name), "--outdir", str(outdir)]) == 0
        if name == "mixed.jsonl":
            assert read_jsonl(outdir / "errors.jsonl")[0]["id"] == "bad"
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["samples"] == 5
    assert not (outdir / "errors.jsonl").exists()


@pytest.mark.parametrize("rid", ["a/b", "x" * 252], ids=["slash", "too-long"])
def test_build_id_that_cannot_name_a_slide_is_rejected(tmp_path, capsys, rid):
    seeds = read_jsonl(builtin_path("seeds_5.jsonl"))
    write_jsonl(tmp_path / "seeds.jsonl", [seeds[0] | {"id": rid}, seeds[1]])
    outdir = tmp_path / "built"
    assert main(["build", "--seeds", str(tmp_path / "seeds.jsonl"), "--outdir", str(outdir)]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 1
    errors = read_jsonl(outdir / "errors.jsonl")
    assert [(e["id"], e["code"]) for e in errors] == [(rid, "bad-id")]


@pytest.mark.parametrize(
    "content",
    [b'{"id": "\\ud800", "text": "x"}\n', b'{"id": "c0", "text": "\xff"}\n'],
    ids=["lone-surrogate", "not-utf8"],
)
def test_undecodable_text_is_error_record(tmp_path, corpus, capsys, content):
    _, dataset = corpus
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_bytes(content)
    out = tmp_path / "o.json"
    code = main(["score", "--dataset", str(dataset), "--hyp", str(hyp), "--out", str(out), "--allow-partial"])
    assert code == 1
    assert _error_code(capsys) == "manifest-parse"
    assert not out.exists()


@pytest.mark.parametrize("weight", ["1e308", "1e200"])
def test_simulate_overflowing_rewards_are_one_error_record(tmp_path, weight):
    """Finite but huge weights overflow the group's reward spread.

    At 1e308 the group mean overflows; at 1e200 only the squares do, which
    used to leave all-zero advantages and a policy that never moved. Either
    way stderr holds the one error record and no numpy warning.
    """
    config = tmp_path / "cfg.json"
    config.write_text('{"steps": 3, "weights": {"lambda_format": %s}}' % weight)
    out = tmp_path / "trace.jsonl"
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "vapokit.cli", "simulate", "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "numerical"
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("score", "--hyp"), ("reward", "--rollouts")])
def test_empty_entity_is_rejected_by_score_and_reward(tmp_path, corpus, capsys, command, flag):
    samples, _ = corpus
    dataset = tmp_path / "bad_dataset.jsonl"
    write_jsonl(dataset, [samples[0] | {"entities": ["aspirin", "!!!"]}])
    hyp = tmp_path / "hyp.jsonl"
    write_jsonl(hyp, [{"id": samples[0]["id"],
                       "text": serialize_structured(samples[0]["slide_text"], samples[0]["transcript_gt"])}])
    out = tmp_path / "o.json"
    assert main([command, "--dataset", str(dataset), flag, str(hyp), "--out", str(out)]) == 1
    assert _error_code(capsys) == "empty-entity"
    assert not out.exists()


def test_simulate_out_with_csv_suffix_is_bad_out(tmp_path, capsys):
    """The CSV trace is written to --out with the suffix .csv; when that is
    --out itself it would replace the JSONL trace, so nothing is written."""
    config = tmp_path / "cfg.json"
    config.write_text('{"steps": 3}')
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert _error_code(capsys) == "bad-out"
    assert not out.exists()


_GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--dataset", "{golden}/manifest.jsonl", "--hyp", "{golden}/hyp.jsonl", "--out", "{tmp}/missing/o.json"],
        ["score", "--dataset", "{golden}/manifest.jsonl", "--hyp", "{golden}/hyp.jsonl", "--out", "{tmp}/file/o.json"],
        ["reward", "--dataset", "{golden}/manifest.jsonl", "--rollouts", "{golden}/rollouts.jsonl",
         "--out", "{tmp}/missing/o.json"],
        ["detect", "--dataset", "{golden}/manifest.jsonl", "--hyp", "{golden}/hyp.jsonl", "--out", "{tmp}"],
        ["simulate", "--config", "{tmp}/cfg.json", "--out", "{tmp}/missing/d/t.jsonl"],
        ["build", "--seeds", "{golden}/seeds.jsonl", "--outdir", "{tmp}/file/built"],
        ["build", "--seeds", "{golden}/seeds.jsonl", "--outdir", "{tmp}/file"],
    ],
    ids=["score-missing-dir", "score-under-file", "reward-missing-dir", "detect-onto-dir",
         "simulate-missing-dir", "build-under-file", "build-onto-file"],
)
def test_unwritable_output_is_one_bad_out_record(tmp_path, argv):
    (tmp_path / "file").write_text("a regular file, not a directory\n")
    (tmp_path / "cfg.json").write_text('{"steps": 3}')
    argv = [a.format(golden=_GOLDEN, tmp=tmp_path) for a in argv]
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "vapokit.cli", *argv],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "bad-out"


@pytest.mark.parametrize(
    "argv, target",
    [
        (["score", "--dataset", "d.jsonl", "--hyp", "h.jsonl", "--out", "d.jsonl"], "d.jsonl"),
        (["score", "--dataset", "d.jsonl", "--hyp", "h.jsonl", "--out", "h.jsonl"], "h.jsonl"),
        (["reward", "--dataset", "d.jsonl", "--rollouts", "r.jsonl", "--out", "d.jsonl"], "d.jsonl"),
        (["reward", "--dataset", "d.jsonl", "--rollouts", "r.jsonl", "--out", "r.jsonl"], "r.jsonl"),
        (["reward", "--dataset", "d.jsonl", "--rollouts", "r.jsonl", "--weights", "w.json", "--out", "w.json"],
         "w.json"),
        (["detect", "--dataset", "d.jsonl", "--hyp", "h.jsonl", "--out", "d.jsonl"], "d.jsonl"),
        (["detect", "--dataset", "d.jsonl", "--hyp", "h.jsonl", "--out", "h.jsonl"], "h.jsonl"),
        (["simulate", "--config", "cfg.json", "--out", "cfg.json"], "cfg.json"),
        (["simulate", "--config", "cfg.csv", "--out", "cfg.jsonl"], "cfg.csv"),
    ],
    ids=["score-dataset", "score-hyp", "reward-dataset", "reward-rollouts", "reward-weights",
         "detect-dataset", "detect-hyp", "simulate-config", "simulate-config-as-csv-trace"],
)
def test_out_naming_an_input_is_bad_out(tmp_path, capsys, monkeypatch, argv, target):
    """An --out (or the simulate CSV trace beside it) that is one of the
    command's inputs is rejected before anything is read or written."""
    for name, golden in (("d.jsonl", "manifest.jsonl"), ("h.jsonl", "hyp.jsonl"), ("r.jsonl", "rollouts.jsonl")):
        (tmp_path / name).write_bytes((_GOLDEN / golden).read_bytes())
    (tmp_path / "w.json").write_text('{"lambda_va": 2.0}')
    (tmp_path / "cfg.json").write_text('{"steps": 3}')
    (tmp_path / "cfg.csv").write_text('{"steps": 3}')
    before = (tmp_path / target).read_bytes()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "bad-out"
    assert (tmp_path / target).read_bytes() == before


@pytest.mark.parametrize("target", ["manifest.jsonl", "stats.json", "errors.jsonl", "slides/seeds.jsonl"])
def test_build_seeds_that_build_would_write_are_bad_out(tmp_path, capsys, target):
    """A --seeds file that build would overwrite or delete under --outdir is
    rejected before it is read; seeds elsewhere in --outdir still build."""
    outdir = tmp_path / "built"
    (outdir / "slides").mkdir(parents=True)
    seeds = outdir / target
    seeds.write_bytes((_GOLDEN / "seeds.jsonl").read_bytes())
    assert main(["build", "--seeds", str(seeds), "--outdir", str(outdir)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "bad-out"
    assert seeds.read_bytes() == (_GOLDEN / "seeds.jsonl").read_bytes()
    elsewhere = outdir / "seeds.jsonl"
    elsewhere.write_bytes(seeds.read_bytes())
    assert main(["build", "--seeds", str(elsewhere), "--outdir", str(outdir)]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 6


@pytest.mark.parametrize("out", ["missing/t.jsonl", "file/t.jsonl"])
def test_simulate_unusable_out_directory_fails_before_training(tmp_path, capsys, monkeypatch, out):
    def no_training(config):
        raise AssertionError("simulate trained before rejecting --out")

    monkeypatch.setattr(cli.grpo, "train", no_training)
    (tmp_path / "file").write_text("a regular file, not a directory\n")
    config = tmp_path / "cfg.json"
    config.write_text('{"steps": 3}')
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / out)]) == 1
    assert _error_code(capsys) == "bad-out"
