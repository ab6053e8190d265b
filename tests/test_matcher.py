"""Behavior query matching and the precision/recall protocol."""

import pytest

from tpmine.graphs import canonical_pattern, validate, verify_embedding
from tpmine.matcher import (
    GroundTruth,
    Instance,
    evaluate,
    find_instances,
    load_ground_truth,
    save_ground_truth,
)


def verify_instances(p, g, instances) -> bool:
    """Re-check every instance independently against the pattern and graph."""
    return all(
        verify_embedding(p, g, inst.embedding)
        and inst.interval == (min(inst.embedding.times), max(inst.embedding.times))
        for inst in instances
    )


def episodes_graph(k: int, gap: int = 50):
    """k node-disjoint copies of A->B->C at well separated time ranges."""
    labels = []
    edges = []
    truth = []
    for i in range(k):
        base = len(labels)
        labels += ["A", "B", "C"]
        t0 = i * gap + 1
        edges += [(base, base + 1, t0), (base + 1, base + 2, t0 + 2)]
        truth.append(("demo", t0, t0 + 2))
    return validate("test", labels, edges), GroundTruth(tuple(truth))


QUERY = canonical_pattern(["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])


class TestFindInstances:
    def test_absent_pattern(self):
        g = validate("g", ["X", "Y"], [(0, 1, 1)])
        assert find_instances(QUERY, g) == []

    def test_whole_graph_single_instance(self):
        g = validate("g", ["A", "B", "C"], [(0, 1, 3), (1, 2, 9)])
        out = find_instances(QUERY, g)
        assert len(out) == 1
        assert out[0].interval == (3, 9)

    def test_k_planted_copies(self):
        for k in (1, 3, 5):
            g, _ = episodes_graph(k)
            out = find_instances(QUERY, g)
            assert len(out) == k

    def test_limit(self):
        g, _ = episodes_graph(5)
        assert len(find_instances(QUERY, g, limit=2)) == 2

    def test_window_sharding_matches_whole_graph_search(self):
        g, truth = episodes_graph(6, gap=40)
        longest = max(e - s for _, s, e in truth.entries)
        whole = find_instances(QUERY, g)
        sharded = find_instances(QUERY, g, window=longest)
        assert whole == sharded

    def test_instances_verify(self):
        g, _ = episodes_graph(4)
        out = find_instances(QUERY, g)
        assert verify_instances(QUERY, g, out)

    def test_zero_window_rejected(self):
        g, _ = episodes_graph(2)
        with pytest.raises(ValueError, match="window must be positive, got 0"):
            find_instances(QUERY, g, window=0)

    def test_negative_window_rejected(self):
        g, _ = episodes_graph(1)
        with pytest.raises(ValueError):
            find_instances(QUERY, g, window=-3)

    def test_window_bounds_instance_duration(self):
        # 15 ticks between the two edges: longer than a 10-tick window even
        # though the match would fit inside a 2 x 10-tick slice of the stream.
        g = validate("g", ["A", "B", "C"], [(0, 1, 1), (1, 2, 16)])
        assert find_instances(QUERY, g, window=10) == []
        out = find_instances(QUERY, g, window=15)
        assert [inst.interval for inst in out] == [(1, 16)]

    def test_limit_takes_a_prefix_of_the_unlimited_result(self):
        g = validate(
            "g",
            ["A", "B", "C", "A", "B", "C"],
            [(0, 1, 1), (3, 4, 2), (1, 2, 3), (4, 5, 4), (1, 2, 5), (4, 5, 6)],
        )
        every = find_instances(QUERY, g)
        assert len(every) == 4
        for k in range(len(every) + 2):
            got = find_instances(QUERY, g, limit=k)
            assert len(got) == min(k, len(every))
            assert set(got) <= set(every)


class TestEvaluate:
    def test_containment_is_correct(self):
        truth = GroundTruth((("b", 3, 10),))
        identified = [Instance(embedding=_dummy_embedding((5, 9)), interval=(5, 9))]
        report = evaluate({"b": identified}, truth)
        row = report.per_behavior[0]
        assert row.correct == 1 and row.precision == 1.0 and row.recall == 1.0

    def test_two_of_three_precision(self):
        truth = GroundTruth((("b", 0, 10),))
        identified = [
            Instance(_dummy_embedding((1, 5)), (1, 5)),
            Instance(_dummy_embedding((2, 9)), (2, 9)),
            Instance(_dummy_embedding((8, 30)), (8, 30)),
        ]
        report = evaluate({"b": identified}, truth)
        assert report.per_behavior[0].precision == pytest.approx(2 / 3)

    def test_empty_identified_conventions(self):
        truth = GroundTruth((("present", 0, 10),))
        report = evaluate({"present": [], "ghost": []}, truth)
        rows = {r.behavior: r for r in report.per_behavior}
        assert rows["present"].precision == 0.0 and rows["present"].vacuous_precision
        assert rows["ghost"].precision == 1.0 and rows["ghost"].vacuous_precision

    def test_recall_monotone_in_added_queries(self):
        g, truth = episodes_graph(5)
        q1_instances = find_instances(QUERY, g)[:2]
        single = evaluate({"demo": q1_instances}, truth)
        union = evaluate({"demo": q1_instances + find_instances(QUERY, g)[2:]}, truth)
        assert union.recall >= single.recall

    def test_instance_outside_every_interval(self):
        truth = GroundTruth((("b", 0, 4),))
        report = evaluate({"b": [Instance(_dummy_embedding((5, 6)), (5, 6))]}, truth)
        assert report.per_behavior[0].precision == 0.0
        assert report.per_behavior[0].recall == 0.0

    def test_macro_average(self):
        truth = GroundTruth((("x", 0, 10), ("y", 0, 10)))
        report = evaluate(
            {
                "x": [Instance(_dummy_embedding((1, 2)), (1, 2))],
                "y": [Instance(_dummy_embedding((20, 30)), (20, 30))],
            },
            truth,
        )
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)


def _dummy_embedding(interval):
    from tpmine.graphs import Embedding

    return Embedding((0, 1), interval)


class TestQuerySizeTradeoff:
    def test_precision_never_drops_as_queries_grow(self):
        # Directional check on a small planted corpus: queries mined at
        # growing size caps never lose precision against the ground truth.
        from tpmine.datakit import generate_synthetic, preset_spec
        from tpmine.miner import MiningConfig, mine

        data = generate_synthetic(
            preset_spec("small", n_positive=20, n_negative=20, test_episodes=12), seed=3
        )
        longest = max(e - s for _, s, e in data.truth.entries)
        precisions = []
        for max_edges in range(1, 7):
            result = mine(data.positives, data.negatives, MiningConfig(max_edges=max_edges, top_k=5))
            instances = []
            for sp in result.ranked:
                instances.extend(find_instances(sp.pattern, data.test_graph, window=2 * longest))
            report = evaluate({data.spec.behavior: instances}, data.truth)
            precisions.append(report.precision)
        assert all(b >= a - 1e-12 for a, b in zip(precisions, precisions[1:])), precisions


class TestGroundTruthIO:
    def test_roundtrip(self, tmp_path):
        truth = GroundTruth((("login", 5, 10), ("login", 30, 44), ("upload", 2, 3)))
        path = tmp_path / "truth.txt"
        save_ground_truth(truth, path)
        assert load_ground_truth(path) == truth

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            GroundTruth((("b", 10, 3),))

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("behavior x 1\n")
        with pytest.raises(ValueError):
            load_ground_truth(path)
