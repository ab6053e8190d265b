"""End-to-end command-line workflow on a small corpus."""

import json
from dataclasses import fields, replace

import pytest

from tpmine.cli import main
from tpmine.datakit import config_to_dict, load_dataset, report_queries, result_to_dict, save_dataset
from tpmine.matcher import find_instances, save_ground_truth
from tpmine.miner import MiningConfig, mine
from tpmine.scoring import GTest


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
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["score"]["name"] == score
    assert "residualCheck" not in report["config"]
    assert report["patterns"]


def test_report_with_residual_check_key_still_loads(workspace, tmp_path, capsys):
    # Reports once carried config.residualCheck; verify and match never read it
    data = workspace / "data"
    report = tmp_path / "report.json"
    assert main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "2", "--behavior", "planted", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["config"]["residualCheck"] = "int"
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", "--report", str(report), "--pos", str(data / "pos.tg"),
                 "--neg", str(data / "neg.tg")])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "MISMATCH" not in out
    instances = tmp_path / "instances.json"
    assert main(["match", "--queries", str(report), "--graph", str(data / "test.tg"),
                 "--out", str(instances)]) == 0
    found = json.loads(instances.read_text())["instances"]
    assert found and {item["behavior"] for item in found} == {"planted"}


def test_residual_check_flag_is_usage_error(workspace, tmp_path, capsys):
    data = workspace / "data"
    report = tmp_path / "report.json"
    code = main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--residual-check", "profile", "--out", str(report)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("usage:") and "unrecognized arguments: --residual-check" in err, err
    assert not report.exists()


# Where config_to_dict writes each MiningConfig field, and a value other than the default
_CONFIG_KEYS = {
    "max_edges": (("maxEdges",), 3),
    "top_k": (("topK",), 9),
    "score_fn": (("score",), GTest()),
    "use_bound_prune": (("pruning", "bound"), False),
    "use_subgraph_prune": (("pruning", "subgraph"), False),
    "use_supergraph_prune": (("pruning", "supergraph"), False),
    "embedding_cap": (("embeddingCap",), 7),
    "min_freq_p": (("minFreqP",), 0.5),
    "behavior": (("behavior",), "other"),
    "seed": (("seed",), 11),
}


def test_report_config_has_one_key_per_setting():
    # The blacklist is a label file, not a setting the report records
    assert {f.name for f in fields(MiningConfig)} - {"blacklist"} == set(_CONFIG_KEYS)
    base = config_to_dict(MiningConfig())
    written = {(key,) for key in base if key != "pruning"} | {("pruning", key) for key in base["pruning"]}
    assert written == {path for path, _ in _CONFIG_KEYS.values()}

    def read(doc, path):
        for key in path:
            doc = doc[key]
        return doc

    for name, (path, value) in _CONFIG_KEYS.items():
        changed = config_to_dict(replace(MiningConfig(), **{name: value}))
        assert read(changed, path) != read(base, path), name


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


@pytest.mark.parametrize("score, phrase", [
    ({"name": "infogain", "epsilon": 1e-6}, "'epsilon' is not a parameter of infogain"),
    ({"name": "logratio", "scale": 2.0}, "'scale' is not a parameter of logratio"),
    ({"name": "logratio", "epsilon": "x"}, "epsilon is not a number"),
    ({"name": "gtest", "scale": True}, "scale is not a number"),
    ({"name": "logratio", "epsilon": -1.0}, "epsilon must be positive"),
    ({"name": "gtest", "epsilon": 1.0}, "gtest epsilon must lie in (0, 1)"),
    ({"name": "gtest", "scale": 0}, "gtest scale must be positive"),
    ({"name": "infogain", "posPrior": 1.5}, "pos_prior must lie in [0, 1]"),
    ({"name": ["logratio"]}, "unknown score function ['logratio']"),
    ({"epsilon": 1e-6}, "lacks key 'name'"),
    ("logratio", "config.score is not a JSON object"),
])
def test_verify_malformed_score_is_data_error(workspace, tmp_path, capsys, score, phrase):
    data = workspace / "data"
    report = tmp_path / "report.json"
    assert main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "2", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["config"]["score"] = score
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", "--report", str(report), "--pos", str(data / "pos.tg"),
                 "--neg", str(data / "neg.tg")])
    out, err = capsys.readouterr()
    err = err.strip().splitlines()
    assert code == 2 and out == ""
    assert len(err) == 1 and err[0].startswith("error: report config.score") and phrase in err[0], err


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


@pytest.mark.parametrize("payload, key", [
    ({"items": []}, "instances"),
    ({"instances": [{"behavior": "b", "times": [1], "interval": [1, 1]}]}, "nodes"),
])
def test_eval_missing_key_is_data_error(tmp_path, capsys, payload, key):
    truth = tmp_path / "truth.txt"
    truth.write_text("behavior b 1 1\n")
    instances = tmp_path / "instances.json"
    instances.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["eval", "--instances", str(instances), "--truth", str(truth)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0], err


@pytest.mark.parametrize("payload, phrase", [
    ({"instances": 5}, "not a JSON list"),
    ({"instances": [7]}, "entry 0 is not a JSON object"),
    ({"instances": [{"behavior": 7, "nodes": [0], "times": [1], "interval": [1, 1]}]}, "behavior"),
    ({"instances": [{"behavior": "b", "nodes": "01", "times": [1], "interval": [1, 1]}]}, "nodes"),
    ({"instances": [{"behavior": "b", "nodes": [True], "times": [1], "interval": [1, 1]}]}, "nodes"),
    ({"instances": [{"behavior": "b", "nodes": [0], "times": [1.5], "interval": [1, 1]}]}, "times"),
    ({"instances": [{"behavior": "b", "nodes": [0], "times": [1], "interval": 7}]}, "interval"),
    ({"instances": [{"behavior": "b", "nodes": [0], "times": [1], "interval": ["1", "1"]}]}, "interval"),
    ({"instances": [{"behavior": "b", "nodes": [0], "times": [5], "interval": [5]}]}, "interval"),
    ({"instances": [{"behavior": "b", "nodes": [0], "times": [5], "interval": [5, 2]}]}, "interval"),
    ({"instances": [{"behavior": "b", "nodes": [0], "times": [1], "interval": [1, 1, 1]}]}, "interval"),
    ({"instances": [{"behavior": "b", "nodes": [0], "times": [], "interval": [1, 1]}]}, "times is empty"),
    ({"instances": [{"behavior": "b", "nodes": [0, 1], "times": [100], "interval": [5, 6]}]}, "interval"),
    ({"instances": [{"behavior": "b", "nodes": [0, 1], "times": [3, 1], "interval": [3, 1]}]}, "interval"),
    ({"instances": [{"behavior": "b", "nodes": [0, 1], "times": [9, 1, 5], "interval": [1, 9]}]},
     "times do not strictly increase"),
    ({"instances": [{"behavior": "b", "nodes": [0, 0], "times": [1, 9], "interval": [1, 9]}]}, "nodes repeat"),
])
def test_eval_malformed_instance_is_data_error(tmp_path, capsys, payload, phrase):
    truth = tmp_path / "truth.txt"
    truth.write_text("behavior b 1 1\n")
    instances = tmp_path / "instances.json"
    instances.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["eval", "--instances", str(instances), "--truth", str(truth)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: instances file") and phrase in err[0], err


def test_eval_warns_of_behaviors_without_truth(tmp_path, capsys):
    # mine's default behaviour name against gen's "planted" truth lines scores P = 0: say so on stderr
    truth = tmp_path / "truth.txt"
    truth.write_text("behavior planted 1 9\n")
    instances = tmp_path / "instances.json"
    item = {"nodes": [0, 1], "times": [2, 5], "interval": [2, 5]}
    outputs = {}
    for behaviors in (["planted"], ["planted", "behavior", "other", "behavior"]):
        instances.write_text(json.dumps({"instances": [dict(item, behavior=b) for b in behaviors]}))
        capsys.readouterr()
        code = main(["eval", "--instances", str(instances), "--truth", str(truth)])
        out, err = capsys.readouterr()
        assert code == 0
        outputs[len(behaviors)] = json.loads(out), err.splitlines()
    (clean, no_warning), (mixed, warnings) = outputs[1], outputs[4]
    assert no_warning == []
    assert len(warnings) == 2 and all(line.startswith("warning: behavior ") for line in warnings), warnings
    assert "'behavior'" in warnings[0] and "'other'" in warnings[1]
    rows = {row["behavior"]: row for row in mixed["behaviors"]}
    assert rows["planted"] == clean["behaviors"][0]
    assert rows["behavior"]["identified"] == 2 and rows["behavior"]["precision"] == 0.0


@pytest.fixture(scope="module")
def medium_workspace(medium_corpus, tmp_path_factory):
    """The shared medium corpus as files, mined with the benchmark's flags."""
    root = tmp_path_factory.mktemp("medium")
    data = medium_corpus
    save_dataset(root / "pos.tg", [("positive", g) for g in data.positives])
    save_dataset(root / "neg.tg", [("negative", g) for g in data.negatives])
    save_dataset(root / "test.tg", [("test", data.test_graph)])
    save_ground_truth(data.truth, root / "truth.txt")
    assert main(["mine", "--pos", str(root / "pos.tg"), "--neg", str(root / "neg.tg"),
                 "--max-edges", "6", "--top-k", "5", "--min-freq-p", "0.5",
                 "--behavior", "planted", "--out", str(root / "report.json")]) == 0
    return root


def test_match_writes_one_instance_per_line(medium_workspace, medium_corpus):
    root = medium_workspace
    window = max(end - start for _, start, end in medium_corpus.truth.entries)
    out = root / "instances.json"
    assert main(["match", "--queries", str(root / "report.json"), "--graph", str(root / "test.tg"),
                 "--window", str(window), "--out", str(out)]) == 0
    test_graph = load_dataset(root / "test.tg")[2][0]
    queries = report_queries(json.loads((root / "report.json").read_text()))
    expected = [
        {"behavior": "planted", "query": qi, "graph": test_graph.id, "nodes": list(inst.embedding.nodes),
         "times": list(inst.embedding.times), "interval": list(inst.interval)}
        for qi, q in enumerate(queries)
        for inst in find_instances(q, test_graph, window=window)
    ]
    assert expected
    text = out.read_text()
    assert json.loads(text) == {"instances": expected}
    lines = text.split("\n")
    assert lines[0] == '{"instances": [' and lines[-2:] == ["]}", ""]
    inner = lines[1:-2]
    assert len(inner) == len(expected)
    for n, (line, want) in enumerate(zip(inner, expected)):
        last = n == len(inner) - 1
        assert line.endswith(",") != last, line
        assert line == json.dumps(want, sort_keys=True) + ("" if last else ",")


def test_match_without_instances_writes_empty_list(medium_workspace, tmp_path, capsys):
    root = medium_workspace
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"config": {"behavior": "planted"},
                                  "patterns": [{"edges": [_query_edge(0, "absent", 1, "absent", 1)]}]}))
    out = tmp_path / "instances.json"
    assert main(["match", "--queries", str(report), "--graph", str(root / "test.tg"),
                 "--out", str(out)]) == 0
    assert out.read_text() == '{"instances": []}\n'
    capsys.readouterr()
    assert main(["eval", "--instances", str(out), "--truth", str(root / "truth.txt")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["behaviors"][0]["identified"] == 0 and summary["recall"] == 0.0


def test_match_report_without_patterns_is_data_error(workspace, tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"config": {}}))
    capsys.readouterr()
    code = main(["match", "--queries", str(report), "--graph", str(workspace / "data" / "test.tg"),
                 "--out", str(tmp_path / "instances.json")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "patterns" in err[0], err


def _query_edge(src, src_label, dst, dst_label, t):
    return {"src": src, "dst": dst, "t": t, "srcLabel": src_label, "dstLabel": dst_label}


@pytest.mark.parametrize("edges, phrase", [
    ([_query_edge(0, "A", 1, "B", 1), _query_edge(1, "Z", 2, "C", 2)], "node 1 is labelled both 'B' and 'Z'"),
    ([_query_edge(0, "A", 2, "B", 1)], "node ids are not 0..1; 1 is missing"),
    ([_query_edge(0, "A", 1, "B", 1), _query_edge(1, "B", 2, "C", 1)], "duplicate timestamp 1"),
    ([_query_edge(0, "A", 1, "B", 1), _query_edge(1, "B", 2, "C", "2")], "needs integer src, dst and t"),
    ([_query_edge(0, "A", 1, 7, 1)], "string srcLabel and dstLabel"),
    ([{"src": 0, "dst": 1, "t": 1, "srcLabel": "A"}], "string srcLabel and dstLabel"),
    ([[0, 1, 1]], "needs integer src"),
    ({"src": 0}, "edges is not a list"),
])
def test_match_malformed_query_is_data_error(workspace, tmp_path, capsys, edges, phrase):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"patterns": [{"edges": edges}]}))
    capsys.readouterr()
    code = main(["match", "--queries", str(report), "--graph", str(workspace / "data" / "test.tg"),
                 "--out", str(tmp_path / "instances.json")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: query-0: ") and phrase in err[0], err


def _run_on_queries(command, patterns, workspace, tmp_path, capsys):
    """Exit code and stderr lines of ``match`` or ``verify`` on a report holding ``patterns``."""
    data = workspace / "data"
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"patterns": patterns}))
    args = {"match": ["--queries", str(report), "--graph", str(data / "test.tg"),
                      "--out", str(tmp_path / "instances.json")],
            "verify": ["--report", str(report), "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg")]}
    capsys.readouterr()
    code = main([command] + args[command])
    return code, capsys.readouterr().err.strip().splitlines()


@pytest.mark.parametrize("command", ["match", "verify"])
def test_edgeless_query_is_data_error(workspace, tmp_path, capsys, command):
    patterns = [{"edges": [_query_edge(0, "A", 1, "B", 1)]}, {"edges": []}]
    code, err = _run_on_queries(command, patterns, workspace, tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: query-1: ") and "no edges" in err[0], err


@pytest.mark.parametrize("command", ["match", "verify"])
def test_self_loop_query_is_data_error(workspace, tmp_path, capsys, command):
    patterns = [{"edges": [_query_edge(0, "A", 1, "B", 1), _query_edge(1, "B", 1, "B", 2)]}]
    code, err = _run_on_queries(command, patterns, workspace, tmp_path, capsys)
    assert code == 2
    assert err == ["error: query-0: self-loop on node 1 at t=2"], err
    assert not (tmp_path / "instances.json").exists()


def test_report_queries_are_the_mined_patterns(workspace):
    data = workspace / "data"
    positives, negatives = load_dataset(data / "pos.tg")[0], load_dataset(data / "neg.tg")[1]
    result = mine(positives, negatives, MiningConfig(max_edges=3, top_k=4))
    queries = report_queries(result_to_dict(result))
    assert [q.key() for q in queries] == [sp.pattern.key() for sp in result.ranked]
    assert [q.timestamps for q in queries] == [sp.pattern.timestamps for sp in result.ranked]


def test_negative_window_is_usage_error(workspace, tmp_path):
    data = workspace / "data"
    report = tmp_path / "report.json"
    assert main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "2", "--out", str(report)]) == 0
    assert main(["match", "--queries", str(report), "--graph", str(data / "test.tg"),
                 "--window", "-1", "--out", str(tmp_path / "instances.json")]) == 1


def test_zero_window_is_usage_error(workspace, tmp_path, capsys):
    # A window of 0 would read as no bound in find_embeddings; the CLI refuses it instead.
    data = workspace / "data"
    report = tmp_path / "report.json"
    assert main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "2", "--out", str(report)]) == 0
    capsys.readouterr()
    assert main(["match", "--queries", str(report), "--graph", str(data / "test.tg"),
                 "--window", "0", "--out", str(tmp_path / "instances.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--window: must be positive" in err, err
    assert not (tmp_path / "instances.json").exists()


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_non_positive_limit_is_usage_error(workspace, tmp_path, capsys, limit):
    data = workspace / "data"
    report = tmp_path / "report.json"
    assert main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "2", "--out", str(report)]) == 0
    capsys.readouterr()
    assert main(["match", "--queries", str(report), "--graph", str(data / "test.tg"),
                 "--limit", limit, "--out", str(tmp_path / "instances.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--limit: must be positive" in err, err
    assert not (tmp_path / "instances.json").exists()


@pytest.mark.parametrize("seconds", ["nan", "inf", "0", "-1"])
def test_unusable_verify_budget_is_usage_error(workspace, capsys, seconds):
    # nan and inf would switch the oracle's wall-time budget off; 0 and -1 would spend it at once.
    data = workspace / "data"
    capsys.readouterr()
    code = main(["verify", "--report", str(workspace / "report.json"), "--pos", str(data / "pos.tg"),
                 "--neg", str(data / "neg.tg"), "--budget-seconds", seconds])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("usage:") and "--budget-seconds: must be positive and finite" in err, err


@pytest.mark.parametrize("flags, phrase", [
    (["--score", "gtest", "--gtest-scale", "-5"], "gtest scale"),
    (["--score", "gtest", "--gtest-scale", "nan"], "gtest scale"),
    (["--score", "gtest", "--epsilon", "1"], "gtest epsilon"),
    (["--epsilon", "0"], "epsilon"),
    (["--epsilon", "-1"], "epsilon"),
    (["--epsilon", "nan"], "epsilon"),
])
def test_bad_score_parameters_are_data_errors(workspace, tmp_path, capsys, flags, phrase):
    data = workspace / "data"
    report = tmp_path / "report.json"
    code = main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "2", *flags, "--out", str(report)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: " + phrase), err
    assert not report.exists()


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


def test_gen_shares_planted_labels_only_within_alphabet(tmp_path):
    # More shared planted nodes than the alphabet holds past its middle third:
    # the overflow nodes get behavior-exclusive P{i} labels
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"nLabels": 4, "plantedSharedNodes": 7, "nPositive": 1,
                                "nNegative": 1, "testEpisodes": 0}))
    for seed in range(4):
        out = tmp_path / f"out{seed}"
        assert main(["gen", "--preset", "small", "--spec", str(spec), "--seed", str(seed),
                     "--out", str(out)]) == 0
        nodes = [line.split()[1:] for line in (out / "planted.tg").read_text().splitlines()
                 if line.startswith("v ")]
        assert len(nodes) > 3
        for v, label in nodes:
            assert label == (f"L{1 + int(v):03d}" if 1 + int(v) < 4 else f"P{v}"), (seed, v, label)


def test_negative_gen_seed_is_usage_error(tmp_path, capsys):
    # Random(-3) seeds as Random(3) would, so a negative seed would silently repeat a corpus
    assert main(["gen", "--preset", "small", "--seed", "-3", "--out", str(tmp_path / "out")]) == 1
    assert "--seed: must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, phrase", [
    ([1], "spec file is not a JSON object"),
    ("planted", "spec file is not a JSON object"),
    ({"nodes": 12.0}, "nodes must be an integer"),
    ({"nPositive": True}, "n_positive must be an integer"),
    ({"edges": "30"}, "edges must be an integer"),
    ({"nTemplates": None}, "n_templates must be an integer"),
    ({"nTemplates": -1}, "planted_shared_nodes and n_templates must be non-negative"),
    ({"zipfS": "1.2"}, "zipf_s must be a finite number"),
    ({"zipfS": False}, "zipf_s must be a finite number"),
    ({"zipfS": float("nan")}, "zipf_s must be a finite number"),
    ({"zipfS": float("inf")}, "zipf_s must be a finite number"),
    ({"zipfS": 1000}, "zipf_s 1000 overflows"),
    ({"zipfS": -1000.0}, "zipf_s -1000.0 overflows"),
    ({"templatePresence": None}, "template_presence must be a finite number"),
    ({"templatePresence": float("nan")}, "template_presence must be a finite number"),
    ({"plantedLabels": ["a b"]}, "planted label must be non-empty text without whitespace"),
    ({"plantedLabels": [""]}, "planted label must be non-empty text without whitespace"),
    ({"plantedLabels": [1, 2]}, "planted label must be non-empty text without whitespace"),
    ({"plantedLabels": []}, "planted_labels must be a non-empty list"),
    ({"plantedLabels": "QQ"}, "planted_labels must be a non-empty list"),
    ({"behavior": "my behavior"}, "behavior must be non-empty text without whitespace"),
    ({"behavior": ""}, "behavior must be non-empty text without whitespace"),
    ({"behavior": 3}, "behavior must be non-empty text without whitespace"),
])
def test_gen_malformed_spec_is_data_error(tmp_path, capsys, doc, phrase):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["gen", "--preset", "small", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + phrase), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    ["--score", "logratio", "--gtest-scale", "-5"],
    ["--score", "logratio", "--gtest-scale", "2"],
    ["--score", "infogain", "--epsilon", "-1"],
    ["--score", "infogain", "--epsilon", "1e-6"],
    ["--score", "infogain", "--gtest-scale", "2"],
])
def test_score_flag_of_another_score_is_usage_error(workspace, tmp_path, capsys, flags):
    data = workspace / "data"
    report = tmp_path / "report.json"
    code = main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "2", *flags, "--out", str(report)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert err == [f"error: {flags[2]} does not apply to --score {flags[1]}"], err
    assert not report.exists()


def test_score_flags_that_apply_are_kept(workspace, tmp_path):
    data = workspace / "data"
    args = ["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"), "--max-edges", "2"]
    runs = {
        "default": [],
        "logratio": ["--score", "logratio", "--epsilon", "1e-6"],
        "logratio-eps": ["--score", "logratio", "--epsilon", "1e-3"],
        "gtest": ["--score", "gtest", "--epsilon", "1e-4", "--gtest-scale", "5"],
    }
    scores = {}
    for name, flags in runs.items():
        assert main(args + flags + ["--out", str(tmp_path / f"{name}.json")]) == 0
        scores[name] = json.loads((tmp_path / f"{name}.json").read_text())["config"]["score"]
    assert scores["default"] == scores["logratio"] == {"name": "logratio", "epsilon": 1e-6}
    assert scores["logratio-eps"] == {"name": "logratio", "epsilon": 1e-3}
    assert scores["gtest"] == {"name": "gtest", "epsilon": 1e-4, "scale": 5.0}


def test_usage_error_exit_code():
    assert main(["mine", "--pos", "missing.tg"]) == 1  # missing required --neg/--out


def test_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.tg"
    bad.write_text("g one positive\nv 1 A\n")
    assert main(["stats", "--in", str(bad)]) == 2


def test_tie_rejection_names_graph_and_line(tmp_path, capsys):
    ties = tmp_path / "ties.tg"
    ties.write_text("g ok positive\nv 0 A\nv 1 B\ne 0 1 5\ng p positive\nv 0 A\nv 1 B\ne 0 1 5\ne 1 0 5\n")
    capsys.readouterr()
    assert main(["stats", "--in", str(ties)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: line 9: graph 'p' (started line 5): events share timestamp 5 under the reject policy"]


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


@pytest.mark.parametrize("drop, exhaustive, key", [
    (("config",), False, "config"),
    (("config", "score"), False, "config.score"),
    (("config", "maxEdges"), True, "config.maxEdges"),
    (("patterns", 0, "freqP"), False, "freqP"),
    (("patterns", 0, "freqN"), False, "freqN"),
    (("patterns", 0, "score"), False, "score"),
])
def test_verify_incomplete_report_is_data_error(workspace, tmp_path, capsys, drop, exhaustive, key):
    data = workspace / "data"
    report = tmp_path / "report.json"
    assert main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "2", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    parent = doc
    for step in drop[:-1]:
        parent = parent[step]
    del parent[drop[-1]]
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", "--report", str(report), "--pos", str(data / "pos.tg"),
                 "--neg", str(data / "neg.tg")] + (["--exhaustive"] if exhaustive else []))
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0], err


def test_eval_instances_not_an_object_is_data_error(tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    truth.write_text("behavior b 1 1\n")
    instances = tmp_path / "instances.json"
    instances.write_text("[]")
    capsys.readouterr()
    code = main(["eval", "--instances", str(instances), "--truth", str(truth)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "instances file" in err[0], err


def test_match_report_not_an_object_is_data_error(workspace, tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text("[]")
    capsys.readouterr()
    code = main(["match", "--queries", str(report), "--graph", str(workspace / "data" / "test.tg"),
                 "--out", str(tmp_path / "instances.json")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "report" in err[0], err


@pytest.mark.parametrize("command", ["match", "verify"])
def test_report_patterns_not_a_list_is_data_error(workspace, tmp_path, capsys, command):
    data = workspace / "data"
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"patterns": 5}))
    args = {"match": ["--queries", str(report), "--graph", str(data / "test.tg"),
                      "--out", str(tmp_path / "instances.json")],
            "verify": ["--report", str(report), "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg")]}
    capsys.readouterr()
    code = main([command] + args[command])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "patterns" in err[0], err


@pytest.mark.parametrize("config", [[], 5, "planted"])
def test_match_config_not_an_object_is_data_error(workspace, tmp_path, capsys, config):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"config": config, "patterns": []}))
    capsys.readouterr()
    code = main(["match", "--queries", str(report), "--graph", str(workspace / "data" / "test.tg"),
                 "--out", str(tmp_path / "instances.json")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "config" in err[0], err


def test_match_without_config_keeps_default_behavior(workspace, tmp_path):
    data = workspace / "data"
    report = tmp_path / "report.json"
    assert main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "2", "--behavior", "planted", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    del doc["config"]
    report.write_text(json.dumps(doc))
    instances = tmp_path / "instances.json"
    assert main(["match", "--queries", str(report), "--graph", str(data / "test.tg"),
                 "--out", str(instances)]) == 0
    found = json.loads(instances.read_text())["instances"]
    assert found and {item["behavior"] for item in found} == {MiningConfig.behavior}


def test_default_behavior_names_score_end_to_end(tmp_path, capsys):
    # gen, mine, match and eval with no behaviour name given agree on one name, so the planted
    # behaviour's instances are scored against its truth lines.
    data, report, instances, summary = (tmp_path / name for name in ("data", "r.json", "i.json", "e.json"))
    assert main(["gen", "--preset", "small", "--seed", "3", "--out", str(data)]) == 0
    assert main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "3", "--out", str(report)]) == 0
    assert main(["match", "--queries", str(report), "--graph", str(data / "test.tg"),
                 "--out", str(instances)]) == 0
    capsys.readouterr()
    assert main(["eval", "--instances", str(instances), "--truth", str(data / "truth.txt"),
                 "--out", str(summary)]) == 0
    err = capsys.readouterr().err
    assert "warning" not in err, err
    doc = json.loads(summary.read_text())
    assert doc["precision"] > 0 and doc["recall"] > 0, doc


@pytest.mark.parametrize("path, value, exhaustive, phrase", [
    (("patterns", 0, "freqP"), "x", False, "report pattern 0.freqP is not a number"),
    (("patterns", 0, "freqN"), "x", False, "report pattern 0.freqN is not a number"),
    (("patterns", 0, "score"), "x", False, "report pattern 0.score is not a number"),
    (("patterns", 0, "score"), True, False, "report pattern 0.score is not a number"),
    (("config", "maxEdges"), "x", True, "report.config.maxEdges is not an integer"),
    (("config", "maxEdges"), 2.5, True, "report.config.maxEdges is not an integer"),
    (("maxScore",), None, True, "report.maxScore is not a number"),
])
def test_verify_non_numeric_field_is_data_error(workspace, tmp_path, capsys, path, value, exhaustive, phrase):
    data = workspace / "data"
    report = tmp_path / "report.json"
    assert main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "2", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", "--report", str(report), "--pos", str(data / "pos.tg"),
                 "--neg", str(data / "neg.tg")] + (["--exhaustive"] if exhaustive else []))
    out, err = capsys.readouterr()
    err = err.strip().splitlines()
    assert code == 2 and out == ""
    assert err == [f"error: {phrase}"], err


@pytest.mark.parametrize("behavior", [["planted"], 5, None])
def test_match_non_string_behavior_is_data_error(workspace, tmp_path, capsys, behavior):
    data = workspace / "data"
    report = tmp_path / "report.json"
    assert main(["mine", "--pos", str(data / "pos.tg"), "--neg", str(data / "neg.tg"),
                 "--max-edges", "2", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["config"]["behavior"] = behavior
    report.write_text(json.dumps(doc))
    instances = tmp_path / "instances.json"
    capsys.readouterr()
    code = main(["match", "--queries", str(report), "--graph", str(data / "test.tg"),
                 "--out", str(instances)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and not instances.exists()
    assert err == ["error: report.config.behavior is not a string"], err
