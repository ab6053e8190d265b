"""Output checks against references made apart from the search code.

Frequencies and instance sets are recomputed with ``tpmine.oracle`` (plain
backtracking that shares no code with the subsequence engine, the growth
tables or the shard slicer), embeddings are re-checked edge by edge with
``tpmine.graphs.verify_embedding``, and the score function and the
precision/recall protocol are written out here from their definitions.
Each check returns a list of problems, each starting with the name of the
check that found it; an empty list means the outputs are correct.
"""

from __future__ import annotations

import math

ACCEPT_PR = 0.90  # the repository's acceptance bound on precision and recall
TOL = 1e-9


def log_ratio(x: float, y: float, epsilon: float) -> float:
    """F(x, y) = log(max(x, eps) / (y + eps)), the LogRatio score."""
    return math.log(max(x, epsilon) / (y + epsilon))


def oracle_budget(tp, graphs, queries):
    """An oracle budget with structural room for exactly these inputs."""
    return tp.oracle.OracleBudget(
        max_nodes=max(g.n_nodes for g in graphs),
        max_edges=max(g.n_edges for g in graphs),
        max_pattern_edges=max((q.n_edges for q in queries), default=1),
        max_labels=len({lab for g in graphs for lab in g.labels}),
        wall_seconds=120.0,
    )


def check_report(tp, report, positives, negatives, expected_config) -> list[str]:
    """Frequencies against the oracle, scores against F, maxScore against F(1, 0)."""
    problems = []
    config = report["config"]
    for key, want in expected_config.items():
        if config.get(key) != want:
            problems.append(f"config: {key} is {config.get(key)!r}, expected {want!r}")
    epsilon = config["score"]["epsilon"]
    top_k = config["topK"]
    patterns = report["patterns"]
    if len(patterns) != top_k:
        problems.append(f"config: {len(patterns)} patterns reported, expected top_k={top_k}")
    queries = tp.datakit.report_queries(report)
    budget = oracle_budget(tp, positives + negatives, queries)
    for qi, (q, meta) in enumerate(zip(queries, patterns)):
        fp = tp.oracle.oracle_frequency(q, positives, budget)
        fn = tp.oracle.oracle_frequency(q, negatives, budget)
        if abs(fp - meta["freqP"]) > TOL:
            problems.append(f"freqP: query {qi} reports {meta['freqP']}, oracle gives {fp}")
        if abs(fn - meta["freqN"]) > TOL:
            problems.append(f"freqN: query {qi} reports {meta['freqN']}, oracle gives {fn}")
        want = log_ratio(meta["freqP"], meta["freqN"], epsilon)
        if abs(want - meta["score"]) > TOL:
            problems.append(f"score: query {qi} reports {meta['score']}, F(freqP, freqN) = {want}")
    # The planted behaviour has at most max_edges edges, occurs in every
    # positive and in no negative, so the best score is F(1, 0).
    best = log_ratio(1.0, 0.0, epsilon)
    if abs(report["maxScore"] - best) > TOL:
        problems.append(f"maxScore: reported {report['maxScore']}, F(1, 0) = {best}")
    return problems


def check_instances(tp, payload, queries, test_graph, window) -> list[str]:
    """Every instance is a real match; per query, the set agrees with the oracle.

    Without a window the set must equal the oracle's.  With one it must be a
    subset that holds every oracle match whose span (last - first time) is
    at most the window.
    """
    problems = []
    by_query: dict[int, set] = {qi: set() for qi in range(len(queries))}
    for n, item in enumerate(payload["instances"]):
        qi = item["query"]
        if qi not in by_query or item["graph"] != test_graph.id:
            problems.append(f"embedding: instance {n} names query {qi} in graph {item['graph']!r}")
            continue
        emb = tp.graphs.Embedding(tuple(item["nodes"]), tuple(item["times"]))
        if not tp.graphs.verify_embedding(queries[qi], test_graph, emb):
            problems.append(f"embedding: instance {n} of query {qi} is not a match")
            continue
        if list(item["interval"]) != [min(emb.times), max(emb.times)]:
            problems.append(f"interval: instance {n} has {item['interval']}, times span "
                            f"{[min(emb.times), max(emb.times)]}")
        if emb in by_query[qi]:
            problems.append(f"oracle: instance {n} of query {qi} is reported twice")
        by_query[qi].add(emb)
    budget = oracle_budget(tp, [test_graph], queries)
    for qi, q in enumerate(queries):
        reference = set(tp.oracle.oracle_embeddings(q, test_graph, budget))
        got = by_query[qi]
        if window is None:
            if got != reference:
                problems.append(f"oracle: query {qi} has {len(got)} instances, oracle has "
                                f"{len(reference)} ({len(got & reference)} shared)")
            continue
        if not got <= reference:
            problems.append(f"oracle: query {qi} has {len(got - reference)} instances the oracle lacks")
        fitting = {e for e in reference if e.times[-1] - e.times[0] <= window}
        if not fitting <= got:
            problems.append(f"window: query {qi} misses {len(fitting - got)} oracle instances "
                            f"that fit window {window}")
    return problems


def read_truth(path) -> list[tuple[str, int, int]]:
    """``behavior <name> <start> <end>`` lines, parsed here, not by the matcher."""
    entries = []
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts and parts[0] == "behavior":
            entries.append((parts[1], int(parts[2]), int(parts[3])))
    return entries


def accuracy(payload, truth) -> tuple[float, float]:
    """Precision and recall, macro-averaged over behaviours, from their definitions."""
    rows = []
    for name in sorted({b for b, _, _ in truth} | {i["behavior"] for i in payload["instances"]}):
        spans = [(s, e) for b, s, e in truth if b == name]
        found = [tuple(i["interval"]) for i in payload["instances"] if i["behavior"] == name]
        correct = [iv for iv in found if any(s <= iv[0] and iv[1] <= e for s, e in spans)]
        discovered = sum(1 for s, e in spans if any(s <= iv[0] and iv[1] <= e for iv in correct))
        precision = len(correct) / len(found) if found else float(not spans)
        recall = discovered / len(spans) if spans else 1.0
        rows.append((precision, recall))
    if not rows:
        return 1.0, 1.0
    return sum(p for p, _ in rows) / len(rows), sum(r for _, r in rows) / len(rows)


def check_accuracy(payload, truth, eval_output) -> list[str]:
    """Recomputed precision and recall meet the bound and agree with ``eval``."""
    problems = []
    precision, recall = accuracy(payload, truth)
    if precision < ACCEPT_PR:
        problems.append(f"precision: {precision:.4f} is below {ACCEPT_PR}")
    if recall < ACCEPT_PR:
        problems.append(f"recall: {recall:.4f} is below {ACCEPT_PR}")
    if eval_output is not None:
        for key, mine in (("precision", precision), ("recall", recall)):
            if abs(eval_output[key] - mine) > TOL:
                problems.append(f"{key}: eval printed {eval_output[key]}, recomputed {mine}")
    return problems
