"""End-to-end command-line workflow on a small corpus."""

import json

import pytest

from tpmine.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.json"
    spec.write_text(json.dumps({"nPositive": 8, "nNegative": 8, "testEpisodes": 10}))
    code = main(["gen", "--preset", "small", "--spec", str(spec), "--seed", "7",
                 "--out", str(root / "data")])
    assert code == 0
    return root


def test_gen_writes_expected_files(workspace):
    data = workspace / "data"
    for name in ("pos.tg", "neg.tg", "test.tg", "truth.txt", "planted.tg"):
        assert (data / name).exists(), name


def test_mine_match_eval_roundtrip(workspace, capsys):
    data = workspace / "data"
    report_path = workspace / "report.json"
    code = main([
        "mine",
        "--pos", str(data / "pos.tg"),
        "--neg", str(data / "neg.tg"),
        "--max-edges", "3",
        "--top-k", "4",
        "--behavior", "planted",
        "--out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"config", "patterns", "maxScore", "maximizers", "stats"}
    assert report["config"]["maxEdges"] == 3
    assert 1 <= len(report["patterns"]) <= 4
    for entry in report["patterns"]:
        assert {"edges", "score", "freqP", "freqN", "interest"} <= set(entry)
        for e in entry["edges"]:
            assert {"src", "dst", "t", "srcLabel", "dstLabel"} <= set(e)
    assert {"patternsVisited", "boundPruneFires", "subgraphPruneFires",
            "supergraphPruneFires", "subisoTests", "residualTests", "wallTime"} <= set(report["stats"])

    instances_path = workspace / "instances.json"
    code = main([
        "match",
        "--queries", str(report_path),
        "--graph", str(data / "test.tg"),
        "--out", str(instances_path),
    ])
    assert code == 0
    payload = json.loads(instances_path.read_text())
    assert payload["instances"], "queries should identify instances in the test graph"

    code = main([
        "eval",
        "--instances", str(instances_path),
        "--truth", str(data / "truth.txt"),
        "--out", str(workspace / "eval.json"),
    ])
    assert code == 0
    summary = json.loads((workspace / "eval.json").read_text())
    assert 0.0 <= summary["precision"] <= 1.0
    assert 0.0 <= summary["recall"] <= 1.0
    assert summary["behaviors"][0]["behavior"] == "planted"


def test_stats_subcommand(workspace, capsys):
    code = main(["stats", "--in", str(workspace / "data" / "pos.tg")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["positive"]["graphs"] == 8
    assert out["positive"]["avgEdges"] > 0


def test_verify_subcommand_agrees(workspace, capsys):
    data = workspace / "data"
    report_path = workspace / "report.json"
    code = main([
        "verify",
        "--report", str(report_path),
        "--pos", str(data / "pos.tg"),
        "--neg", str(data / "neg.tg"),
        "--exhaustive",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "MISMATCH" not in out


@pytest.mark.parametrize("score", ["gtest", "infogain"])
def test_mine_with_alternative_scores(workspace, tmp_path, score):
    data = workspace / "data"
    out = tmp_path / f"{score}.json"
    code = main([
        "mine",
        "--pos", str(data / "pos.tg"),
        "--neg", str(data / "neg.tg"),
        "--max-edges", "2",
        "--score", score,
        "--residual-check", "int",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["score"]["name"] == score
    assert report["config"]["residualCheck"] == "int"
    assert report["patterns"]


def test_verify_keeps_score_parameters(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen", "--preset", "small", "--out", str(data)]) == 0
    report = tmp_path / "gtest.json"
    assert main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--score", "gtest", "--gtest-scale", "5", "--max-edges", "4",
                 "--out", str(report)]) == 0
    capsys.readouterr()
    code = main(["verify", "--report", str(report), "--pos", str(data / "pos.tg"),
                 "--neg", str(data / "neg.tg")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0, lines
    assert lines and all(line.endswith(" OK") for line in lines), lines


def test_verify_unknown_score_is_data_error(workspace, tmp_path, capsys):
    data = workspace / "data"
    report = tmp_path / "report.json"
    assert main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "2", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["config"]["score"]["name"] = "bogus"
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", "--report", str(report), "--pos", str(data / "pos.tg"),
                 "--neg", str(data / "neg.tg")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "bogus" in err[0], err


@pytest.mark.parametrize("line", ["behavior planted 10 x", "behavior planted 10 3"])
def test_eval_bad_truth_is_data_error(tmp_path, capsys, line):
    truth = tmp_path / "truth.txt"
    truth.write_text(line + "\n")
    instances = tmp_path / "instances.json"
    instances.write_text(json.dumps({"instances": []}))
    capsys.readouterr()
    code = main(["eval", "--instances", str(instances), "--truth", str(truth)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "truth.txt:1" in err[0], err


def test_negative_window_is_usage_error(workspace, tmp_path):
    data = workspace / "data"
    report = tmp_path / "report.json"
    assert main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "2", "--out", str(report)]) == 0
    assert main(["match", "--queries", str(report), "--graph", str(data / "test.tg"),
                 "--window", "-1", "--out", str(tmp_path / "instances.json")]) == 1


def test_gen_spec_fields(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"nPositive": 2, "bogusField": 1}))
    assert main(["gen", "--preset", "small", "--spec", str(spec), "--out", str(tmp_path / "bad")]) == 2
    spec.write_text(json.dumps({"nPositive": 2, "nNegative": 2, "testEpisodes": 1,
                                "plantedLabels": ["Q0", "Q1"]}))
    assert main(["gen", "--preset", "small", "--spec", str(spec), "--out", str(tmp_path / "ok")]) == 0
    labels = {line.split()[2] for line in (tmp_path / "ok" / "planted.tg").read_text().splitlines()
              if line.startswith("v ")}
    assert labels == {"Q0", "Q1"}


def test_usage_error_exit_code():
    assert main(["mine", "--pos", "missing.tg"]) == 1  # missing required --neg/--out


def test_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.tg"
    bad.write_text("g one positive\nv 1 A\n")
    assert main(["stats", "--in", str(bad)]) == 2


def test_missing_file_is_data_error(tmp_path):
    assert main([
        "mine",
        "--pos", str(tmp_path / "nope.tg"),
        "--neg", str(tmp_path / "nope.tg"),
        "--out", str(tmp_path / "r.json"),
    ]) == 2


def test_determinism_across_runs(workspace, tmp_path):
    data = workspace / "data"
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
            "--max-edges", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a["stats"].pop("wallTime")
    b["stats"].pop("wallTime")
    assert a == b
