"""Command-line interface.

Subcommands::

    gen    generate a synthetic corpus (dataset files, test graph, ground truth)
    mine   mine discriminative patterns from positive/negative dataset files
    match  run mined queries against a test graph, emitting instances
    eval   score identified instances against a ground-truth file
    stats  summarize a dataset file
    verify spot-check a mining report against the brute-force references

Exit codes: 0 ok, 1 usage error, 2 data error (or failed verification).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import datakit, matcher, oracle
from .graphs import GraphError
from .miner import ConfigInvalid, EmptyDataset, MiningConfig, mine
from .scoring import make_score_function, load_blacklist

USAGE_ERROR = 1
DATA_ERROR = 2


# spec-file key (camelCase) -> SyntheticSpec field
_SPEC_FIELDS = {re.sub(r"_(.)", lambda m: m[1].upper(), f.name): f.name
                for f in fields(datakit.SyntheticSpec)}


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:  # written so that nan fails too
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _report_number(doc, *path: str, what: str = "report", integer: bool = False):
    """``datakit.json_value(doc, *path)``, which must be a JSON number (an integer if asked) and
    not a boolean; ParseError otherwise."""
    value = datakit.json_value(doc, *path, what=what)
    if type(value) not in ((int,) if integer else (int, float)):
        raise datakit.ParseError(f"{'.'.join((what,) + path)} is not {'an integer' if integer else 'a number'}")
    return value


def _cmd_gen(args) -> int:
    spec = datakit.preset_spec(args.preset)
    overrides = {}
    if args.spec:
        overrides = json.loads(Path(args.spec).read_text())
        if not isinstance(overrides, dict):
            raise datakit.SpecInvalid("spec file is not a JSON object")
        translated = {}
        for key, value in overrides.items():
            if key not in _SPEC_FIELDS:
                raise datakit.SpecInvalid(f"unknown spec field {key!r}")
            if key == "plantedLabels" and isinstance(value, list):
                value = tuple(value)
            translated[_SPEC_FIELDS[key]] = value
        spec = replace(spec, **translated).validated()
    data = datakit.generate_synthetic(spec, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    datakit.save_dataset(out / "pos.tg", [("positive", g) for g in data.positives])
    datakit.save_dataset(out / "neg.tg", [("negative", g) for g in data.negatives])
    datakit.save_dataset(out / "test.tg", [("test", data.test_graph)])
    matcher.save_ground_truth(data.truth, out / "truth.txt")
    datakit.save_dataset(out / "planted.tg", [("test", data.planted)])
    print(
        f"wrote {len(data.positives)} positive / {len(data.negatives)} negative graphs, "
        f"test graph with {data.test_graph.n_edges} edges, "
        f"{len(data.truth.entries)} truth intervals -> {out}"
    )
    return 0


def _cmd_mine(args) -> int:
    score_fn = make_score_function(args.score)
    for flag, attr, value in (("--epsilon", "epsilon", args.epsilon),
                              ("--gtest-scale", "scale", args.gtest_scale)):
        if value is not None:
            if not hasattr(score_fn, attr):
                print(f"error: {flag} does not apply to --score {args.score}", file=sys.stderr)
                return USAGE_ERROR
            score_fn = replace(score_fn, **{attr: value})
    positives = datakit.load_dataset(args.pos, tie_policy=args.tie_policy)[0]
    negatives = datakit.load_dataset(args.neg, tie_policy=args.tie_policy)[1]
    blacklist = load_blacklist(args.blacklist) if args.blacklist else frozenset()
    cfg = MiningConfig(
        max_edges=args.max_edges,
        top_k=args.top_k,
        score_fn=score_fn,
        use_bound_prune=not args.no_bound_prune,
        use_subgraph_prune=not args.no_subgraph_prune,
        use_supergraph_prune=not args.no_supergraph_prune,
        embedding_cap=args.max_embeddings,
        min_freq_p=args.min_freq_p,
        blacklist=blacklist,
        behavior=args.behavior,
        seed=args.seed,
    )
    result = mine(positives, negatives, cfg)
    datakit.save_report(result, args.out)
    stats = result.stats
    print(
        f"visited {stats.patterns_visited} patterns, max score {result.max_score:.6f}, "
        f"{len(result.ranked)} queries -> {args.out}"
    )
    return 0


def _cmd_match(args) -> int:
    report = datakit.load_report(args.queries)
    queries = datakit.report_queries(report)
    tests = datakit.load_dataset(args.graph, tie_policy=args.tie_policy)[2]
    if not tests:
        print("error: no test graph in input", file=sys.stderr)
        return DATA_ERROR
    config = report.get("config", {})
    if not isinstance(config, dict):
        raise datakit.ParseError("report.config is not a JSON object")
    behavior = config.get("behavior", MiningConfig.behavior)
    if not isinstance(behavior, str):
        raise datakit.ParseError("report.config.behavior is not a string")
    instances = []
    for qi, q in enumerate(queries):
        for g in tests:
            for inst in matcher.find_instances(q, g, limit=args.limit, window=args.window):
                instances.append(
                    {
                        "behavior": behavior,
                        "query": qi,
                        "graph": g.id,
                        "nodes": list(inst.embedding.nodes),
                        "times": list(inst.embedding.times),
                        "interval": list(inst.interval),
                    }
                )
    # one instance per line; an encoder without indent runs in C
    encode = json.JSONEncoder(sort_keys=True).encode
    lines = ",\n".join(map(encode, instances))
    Path(args.out).write_text(f'{{"instances": [\n{lines}\n]}}\n' if instances else '{"instances": []}\n')
    print(f"{len(instances)} identified instances -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    payload = json.loads(Path(args.instances).read_text())
    truth = matcher.load_ground_truth(args.truth)
    by_behavior: dict[str, list[matcher.Instance]] = {}
    items = datakit.json_value(payload, "instances", what="instances file")
    if not isinstance(items, list):
        raise datakit.ParseError("instances file: instances is not a JSON list")
    for n, item in enumerate(items):
        where = f"instances file entry {n}"
        if not isinstance(item, dict):
            raise datakit.ParseError(f"{where} is not a JSON object")
        for key in ("behavior", "nodes", "times", "interval"):
            if key not in item:
                raise datakit.ParseError(f"{where} lacks key {key!r}")
        if not isinstance(item["behavior"], str):
            raise datakit.ParseError(f"{where}: behavior is not a string")
        for key in ("nodes", "times", "interval"):
            if not (isinstance(item[key], list) and all(type(v) is int for v in item[key])):
                raise datakit.ParseError(f"{where}: {key} is not a list of integers")
        times, interval = item["times"], item["interval"]
        if not times:
            raise datakit.ParseError(f"{where}: times is empty")
        if interval != [min(times), max(times)]:
            raise datakit.ParseError(f"{where}: interval is not [min(times), max(times)]")
        if any(a >= b for a, b in zip(times, times[1:])):
            raise datakit.ParseError(f"{where}: times do not strictly increase")
        if len(set(item["nodes"])) != len(item["nodes"]):
            raise datakit.ParseError(f"{where}: nodes repeat a node")
        inst = matcher.Instance(matcher.Embedding(tuple(item["nodes"]), tuple(times)), tuple(interval))
        by_behavior.setdefault(item["behavior"], []).append(inst)
    for name in sorted(by_behavior.keys() - truth.by_behavior().keys()):
        print(f"warning: behavior {name!r} has instances but no truth line in {args.truth}", file=sys.stderr)
    report = matcher.evaluate(by_behavior, truth)
    out = {
        "precision": report.precision,
        "recall": report.recall,
        "behaviors": [
            {
                "behavior": row.behavior,
                "identified": row.identified,
                "correct": row.correct,
                "truthInstances": row.truth_instances,
                "discovered": row.discovered,
                "precision": row.precision,
                "recall": row.recall,
                "vacuousPrecision": row.vacuous_precision,
            }
            for row in report.per_behavior
        ],
    }
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _cmd_stats(args) -> int:
    graphs = datakit.parse_dataset(Path(args.infile).read_text(), tie_policy=args.tie_policy)
    by_role: dict[str, list] = {"positive": [], "negative": [], "test": []}
    for role, g in graphs:
        by_role[role].append(g)
    out = {}
    all_labels = set()
    for role, items in by_role.items():
        if not items:
            continue
        all_labels.update(lab for g in items for lab in g.labels)
        out[role] = {
            "graphs": len(items),
            "avgNodes": sum(g.n_nodes for g in items) / len(items),
            "avgEdges": sum(g.n_edges for g in items) / len(items),
            "labels": len({lab for g in items for lab in g.labels}),
        }
    out["totalLabels"] = len(all_labels)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    report = datakit.load_report(args.report)
    queries = datakit.report_queries(report)
    positives = datakit.load_dataset(args.pos, tie_policy=args.tie_policy)[0]
    negatives = datakit.load_dataset(args.neg, tie_policy=args.tie_policy)[1]
    score = datakit.score_fn_from_dict(datakit.json_value(report, "config", "score"))
    if args.exhaustive:
        max_edges = _report_number(report, "config", "maxEdges", integer=True)
        reported_max = _report_number(report, "maxScore")
    expected = [tuple(_report_number(meta, key, what=f"report pattern {qi}")
                      for key in ("freqP", "freqN", "score"))
                for qi, meta in enumerate(report["patterns"])]
    # Per-query frequency checks only need structural room for the actual
    # inputs; the exhaustive re-mining below keeps the tight default limits
    # so oversized instances fail loudly instead of running for days.
    graphs = positives + negatives
    freq_budget = oracle.OracleBudget(
        max_nodes=max((g.n_nodes for g in graphs), default=1),
        max_edges=max((g.n_edges for g in graphs), default=1),
        max_pattern_edges=max((q.n_edges for q in queries), default=1),
        max_labels=len({lab for g in graphs for lab in g.labels}) or 1,
        wall_seconds=args.budget_seconds,
    )
    budget = oracle.OracleBudget(wall_seconds=args.budget_seconds)
    failures = 0
    for qi, (q, (want_p, want_n, want_score)) in enumerate(zip(queries, expected)):
        fp = oracle.oracle_frequency(q, positives, freq_budget)
        fn = oracle.oracle_frequency(q, negatives, freq_budget)
        ok = abs(fp - want_p) < 1e-9 and abs(fn - want_n) < 1e-9
        recomputed = score.score(fp, fn)
        ok = ok and abs(recomputed - want_score) < 1e-9
        print(f"query {qi}: freqP {fp:.4f} freqN {fn:.4f} score {recomputed:.6f} "
              f"{'OK' if ok else 'MISMATCH'}")
        failures += 0 if ok else 1
    if args.exhaustive:
        best, _ = oracle.oracle_best_score(positives, negatives, max_edges, score, budget)
        ok = abs(best - reported_max) < 1e-9
        print(f"exhaustive max score {best:.6f} vs reported {reported_max:.6f} "
              f"{'OK' if ok else 'MISMATCH'}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else DATA_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tpmine", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--preset", default="medium", choices=sorted(datakit.PRESETS))
    p.add_argument("--spec", help="JSON file overriding preset fields")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("mine", help="mine discriminative patterns")
    p.add_argument("--pos", required=True)
    p.add_argument("--neg", required=True)
    p.add_argument("--max-edges", type=int, default=6)
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--score", default="logratio", choices=["logratio", "gtest", "infogain"])
    p.add_argument("--epsilon", type=float, default=None,
                   help="smoothing of logratio and gtest (default 1e-6)")
    p.add_argument("--gtest-scale", type=float, default=None, help="scale of gtest")
    p.add_argument("--no-subgraph-prune", action="store_true")
    p.add_argument("--no-supergraph-prune", action="store_true")
    p.add_argument("--no-bound-prune", action="store_true")
    p.add_argument("--max-embeddings", type=int, default=10_000)
    p.add_argument("--min-freq-p", type=float, default=0.0)
    p.add_argument("--blacklist", help="label blacklist file for interest ranking")
    p.add_argument("--behavior", default=MiningConfig.behavior)
    p.add_argument("--seed", type=int, default=0, help="recorded in the report; no effect on mining")
    p.add_argument("--tie-policy", default="reject", choices=["reject", "inputOrder"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("match", help="run mined queries against a test graph")
    p.add_argument("--queries", required=True, help="mining report JSON")
    p.add_argument("--graph", required=True, help="dataset file with test graphs")
    p.add_argument("--limit", type=_positive_int, default=None)
    p.add_argument("--window", type=_positive_int, default=None,
                   help="maximum instance duration in ticks (last - first edge time); omit for no bound")
    p.add_argument("--tie-policy", default="reject", choices=["reject", "inputOrder"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("eval", help="precision/recall of identified instances")
    p.add_argument("--instances", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="summarize a dataset file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tie-policy", default="reject", choices=["reject", "inputOrder"])
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("verify", help="spot-check a report with brute-force references")
    p.add_argument("--report", required=True)
    p.add_argument("--pos", required=True)
    p.add_argument("--neg", required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="also recompute the exact maximum score (small inputs only)")
    p.add_argument("--budget-seconds", type=_positive_seconds, default=120.0)
    p.add_argument("--tie-policy", default="reject", choices=["reject", "inputOrder"])
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (GraphError, datakit.ParseError, datakit.SpecInvalid, EmptyDataset, ConfigInvalid,
            matcher.TruthInvalid, oracle.BudgetExceeded, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
