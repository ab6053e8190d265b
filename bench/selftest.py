#!/usr/bin/env python3
"""Show that every output check of the benchmark can fail.

    python3 bench/selftest.py

Builds one small pipeline output through the CLI (medium preset, a 4-episode
test stream, whole-graph and windowed matching), confirms that every check
passes on it, then corrupts the report, the instance files and the truth
file one way at a time and confirms that the named check reports each
corruption.  Exits 1 if a check passes corrupted output or fails clean output.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

CORPUS_SEED = 1  # its planted behaviour has 7 nodes, like every benchmark corpus
EPISODES = 4


def build(tp, out: Path):
    out.mkdir(parents=True, exist_ok=True)
    spec = out / "spec.json"
    spec.write_text(json.dumps({"testEpisodes": EPISODES}))
    run.run_cli(tp, ["gen", "--preset", "medium", "--seed", CORPUS_SEED, "--spec", spec, "--out", out])
    run.run_cli(tp, ["mine", "--pos", out / "pos.tg", "--neg", out / "neg.tg", *run.MINE_ARGS,
                     "--out", out / "report.json"])
    truth = checks.read_truth(out / "truth.txt")
    window = max(end - start for _, start, end in truth)
    run.run_cli(tp, ["match", "--queries", out / "report.json", "--graph", out / "test.tg",
                     "--out", out / "whole.json"])
    run.run_cli(tp, ["match", "--queries", out / "report.json", "--graph", out / "test.tg",
                     "--window", window, "--out", out / "windowed.json"])
    _, printed = run.run_cli(tp, ["eval", "--instances", out / "windowed.json", "--truth", out / "truth.txt"])
    return window, truth, json.loads(printed)


def main() -> int:
    tp = run.load_tpmine()
    out = run.WORK / f"selftest-{os.getpid()}"
    try:
        window, truth, eval_output = build(tp, out)
        positives = tp.datakit.load_dataset(out / "pos.tg")[0]
        negatives = tp.datakit.load_dataset(out / "neg.tg")[1]
        test_graph = tp.datakit.load_dataset(out / "test.tg")[2][0]
        report = json.loads((out / "report.json").read_text())
        whole = json.loads((out / "whole.json").read_text())
        windowed = json.loads((out / "windowed.json").read_text())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    queries = tp.datakit.report_queries(report)
    expected = {"maxEdges": 6, "topK": 5, "minFreqP": 0.5}

    def report_problems(r):
        return checks.check_report(tp, r, positives, negatives, expected)

    def whole_problems(p):
        return checks.check_instances(tp, p, queries, test_graph, None)

    def windowed_problems(p):
        return checks.check_instances(tp, p, queries, test_graph, window)

    def accuracy_problems(p=windowed, t=truth, e=eval_output):
        return checks.check_accuracy(p, t, e)

    failures = 0
    for name, problems in (("report", report_problems(report)), ("whole", whole_problems(whole)),
                           ("windowed", windowed_problems(windowed)), ("accuracy", accuracy_problems())):
        status = "PASS" if not problems else "FAIL"
        failures += bool(problems)
        print(f"{status} clean {name} output passes: {problems or 'no problems'}")

    def edited(doc, edit):
        doc = copy.deepcopy(doc)
        edit(doc)
        return doc

    def fits(item):
        return item["times"][-1] - item["times"][0] <= window

    first_fitting = next(i for i, item in enumerate(windowed["instances"]) if fits(item))
    far = 10**9
    cases = [
        ("freqP", "pattern 0 freqP lowered",
         report_problems(edited(report, lambda r: r["patterns"][0].update(freqP=0.5)))),
        ("freqN", "pattern 0 freqN raised",
         report_problems(edited(report, lambda r: r["patterns"][0].update(freqN=0.25)))),
        ("score", "pattern 0 score raised",
         report_problems(edited(report, lambda r: r["patterns"][0].update(score=r["patterns"][0]["score"] + 1)))),
        ("maxScore", "maxScore lowered",
         report_problems(edited(report, lambda r: r.update(maxScore=r["maxScore"] - 1)))),
        ("embedding", "instance 0 moved to a time with no edge",
         whole_problems(edited(whole, lambda p: p["instances"][0]["times"].__setitem__(-1, far)))),
        ("interval", "instance 0 interval widened",
         whole_problems(edited(whole, lambda p: p["instances"][0]["interval"].__setitem__(1, far)))),
        ("oracle", "whole-graph instance dropped",
         whole_problems(edited(whole, lambda p: p["instances"].pop()))),
        ("oracle", "instance reported twice",
         whole_problems(edited(whole, lambda p: p["instances"].append(p["instances"][0])))),
        ("window", "windowed instance that fits the window dropped",
         windowed_problems(edited(windowed, lambda p: p["instances"].pop(first_fitting)))),
        ("precision", "truth intervals moved away",
         accuracy_problems(t=[(b, s + far, e + far) for b, s, e in truth], e=None)),
        ("recall", "instances of all but one episode dropped",
         accuracy_problems(p=edited(windowed, lambda p: p.update(instances=p["instances"][:1])), e=None)),
        ("precision", "eval printed another precision",
         accuracy_problems(e={**eval_output, "precision": eval_output["precision"] - 0.5})),
    ]
    for tag, what, problems in cases:
        hit = [p for p in problems if p.startswith(f"{tag}:")]
        failures += not hit
        print(f"{'PASS' if hit else 'FAIL'} {what}: {hit[0] if hit else 'not detected by ' + tag}")
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
