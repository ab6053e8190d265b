"""Mining sessions: exactness, anti-monotonicity, determinism, and config handling."""

import json

import pytest

from tpmine.datakit import result_to_dict
from tpmine.graphs import validate
from tpmine.growth import EmbeddingTable
from tpmine.miner import ConfigInvalid, EmptyDataset, MiningConfig, mine
from tpmine.oracle import oracle_best_score
from tpmine.scoring import LogRatio

from conftest import desk_instance


def frequency(table: EmbeddingTable, set_size: int) -> float:
    """Fraction of graphs containing at least one embedding, as the miner counts support."""
    if set_size <= 0:
        raise ValueError("set_size must be positive")
    return len(table.support_ids()) / set_size


class TestFrequency:
    def test_three_of_four(self):
        graphs = [validate(f"g{i}", ["A", "B"], [(0, 1, 1)]) for i in range(4)]
        table = EmbeddingTable({f"g{i}": ([object()] if i < 3 else []) for i in range(4)})
        assert frequency(table, 4) == pytest.approx(0.75)

    def test_no_embeddings(self):
        table = EmbeddingTable({"g0": []})
        assert frequency(table, 4) == 0.0

    def test_multiple_embeddings_count_once(self):
        table = EmbeddingTable({"g0": [object()] * 7, "g1": []})
        assert frequency(table, 2) == pytest.approx(0.5)

    def test_zero_set_size_rejected(self):
        with pytest.raises(ValueError):
            frequency(EmbeddingTable({}), 0)


class TestMineBasics:
    def test_identical_positive_and_negative_sets_score_near_zero(self):
        g = validate("g", ["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        result = mine([g], [g], MiningConfig(max_edges=2, top_k=3))
        assert result.max_score == pytest.approx(0.0, abs=1e-4)
        for sp in result.ranked:
            assert sp.freq_p == sp.freq_n

    def test_empty_dataset_rejected(self):
        g = validate("g", ["A", "B"], [(0, 1, 1)])
        with pytest.raises(EmptyDataset):
            mine([], [g])
        with pytest.raises(EmptyDataset):
            mine([g], [])
        with pytest.raises(EmptyDataset):
            mine([g, g], [g])  # duplicate ids

    def test_bad_config_rejected(self):
        g = validate("g", ["A", "B"], [(0, 1, 1)])
        with pytest.raises(ConfigInvalid):
            mine([g], [g], MiningConfig(max_edges=0))
        with pytest.raises(ConfigInvalid):
            mine([g], [g], MiningConfig(top_k=0))
        with pytest.raises(ConfigInvalid):
            mine([g], [g], MiningConfig(residual_check="other"))
        with pytest.raises(ConfigInvalid):
            mine([g], [g], MiningConfig(min_freq_p=1.5))

    def test_matches_exhaustive_search_on_desk_instances(self):
        for seed in range(5):
            positives, negatives = desk_instance(seed)
            result = mine(positives, negatives, MiningConfig(max_edges=3, top_k=5))
            best, argmax = oracle_best_score(positives, negatives, 3, LogRatio())
            assert result.max_score == pytest.approx(best, abs=1e-9)
            assert {sp.pattern.key() for sp in result.maximizers} == {
                p.key() for p in argmax.values()
            }

    def test_ranked_scores_descend(self):
        positives, negatives = desk_instance(11)
        result = mine(positives, negatives, MiningConfig(max_edges=3, top_k=10))
        scores = [sp.score for sp in result.ranked]
        assert scores == sorted(scores, reverse=True)

    def test_support_floor_restricts_universe(self):
        positives, negatives = desk_instance(12)
        base = mine(positives, negatives, MiningConfig(max_edges=3))
        floored = mine(positives, negatives, MiningConfig(max_edges=3, min_freq_p=1.0))
        assert floored.stats.patterns_visited <= base.stats.patterns_visited
        for sp in floored.ranked:
            assert sp.freq_p == 1.0


class TestDeepPatterns:
    def test_mining_a_45_edge_chain(self):
        # Exercises the maximum advertised search depth: one long chain with
        # distinct labels, whose T-connected subpatterns are its contiguous
        # runs: 45 + 44 + ... + 1 of them.
        n = 45
        labels = [f"N{i:02d}" for i in range(n + 1)]
        edges = [(i, i + 1, i + 1) for i in range(n)]
        pos = [validate("deep", labels, edges)]
        neg = [validate("none", ["X", "Y"], [(0, 1, 1)])]
        result = mine(pos, neg, MiningConfig(max_edges=45, top_k=1))
        assert result.stats.patterns_visited == n * (n + 1) // 2
        deepest = max(sp.pattern.n_edges for sp in result.maximizers)
        assert deepest == 45


class TestTruncationSemantics:
    def test_frequencies_stay_exact_under_tiny_cap(self):
        # With a cap of 1 the stored embedding lists are incomplete, but
        # reported frequencies of visited patterns must still be exact and
        # the registry rules must never fire on inexact signatures.
        from tpmine.oracle import oracle_frequency

        positives, negatives = desk_instance(31)
        seen = []

        def watch(pattern, parent, freq_p, freq_n, action):
            if action == "scored":
                seen.append((pattern, freq_p, freq_n))

        cfg = MiningConfig(max_edges=2, embedding_cap=1, use_bound_prune=False)
        result = mine(positives, negatives, cfg, on_visit=watch)
        assert result.stats.subgraph_prune_fires == 0
        assert result.stats.supergraph_prune_fires == 0
        for pattern, freq_p, freq_n in seen:
            assert freq_p == pytest.approx(oracle_frequency(pattern, positives))
            assert freq_n == pytest.approx(oracle_frequency(pattern, negatives))


    def test_ranked_frequencies_exact_with_cap_one(self, monkeypatch):
        # Cap 1 truncates almost every positive list, so support of children
        # rests on the direct re-check of truncated graphs; negatives go
        # through the first-match search.  Both must agree with the oracle.
        from tpmine import miner
        from tpmine.oracle import oracle_frequency

        witnesses = []

        def first_match(session, p, g):
            witness = real(session, p, g)
            if session.pos_by_id.get(g.id) is g:  # the truncated re-check
                witnesses.append(witness)
            return witness

        real = miner._Session.first_match
        monkeypatch.setattr(miner._Session, "first_match", first_match)
        for seed in range(6):
            positives, negatives = desk_instance(seed)
            result = mine(positives, negatives, MiningConfig(max_edges=3, top_k=5, embedding_cap=1))
            assert result.ranked
            for sp in result.ranked:
                assert sp.freq_p == pytest.approx(oracle_frequency(sp.pattern, positives))
                assert sp.freq_n == pytest.approx(oracle_frequency(sp.pattern, negatives))
        assert any(w is not None for w in witnesses)


class TestScoreVariantsEndToEnd:
    def test_alternative_score_functions_mine_cleanly(self):
        from tpmine.oracle import oracle_best_score
        from tpmine.scoring import GTest, InfoGain

        positives, negatives = desk_instance(8)
        for fn in (GTest(), InfoGain()):
            result = mine(positives, negatives, MiningConfig(max_edges=3, score_fn=fn))
            best, argmax = oracle_best_score(positives, negatives, 3, fn)
            assert result.max_score == pytest.approx(best, abs=1e-9)
            assert {sp.pattern.key() for sp in result.maximizers} == {
                p.key() for p in argmax.values()
            }


class TestSupportAntiMonotonicity:
    def test_child_frequencies_never_exceed_parent(self):
        for seed in (3, 4):
            positives, negatives = desk_instance(seed)
            seen: dict[tuple, tuple[float, float]] = {}
            violations = []

            def watch(pattern, parent, freq_p, freq_n, action):
                if action == "scored":
                    seen[pattern.key()] = (freq_p, freq_n)
                    if parent is not None and parent.key() in seen:
                        pf, pn = seen[parent.key()]
                        if freq_p > pf + 1e-12 or freq_n > pn + 1e-12:
                            violations.append((pattern.text(), (freq_p, freq_n), (pf, pn)))

            cfg = MiningConfig(
                max_edges=3,
                use_bound_prune=False,
                use_subgraph_prune=False,
                use_supergraph_prune=False,
            )
            mine(positives, negatives, cfg, on_visit=watch)
            assert not violations


class TestDeterminism:
    def test_byte_identical_reports(self):
        positives, negatives = desk_instance(21)
        cfg = MiningConfig(max_edges=3, top_k=5)
        a = mine(positives, negatives, cfg)
        b = mine(positives, negatives, cfg)
        ja = json.dumps(result_to_dict(a, include_timing=False), sort_keys=True)
        jb = json.dumps(result_to_dict(b, include_timing=False), sort_keys=True)
        assert ja == jb


class TestPruningReducesWork:
    def test_visited_counts_never_increase_with_pruning(self):
        for seed in range(6):
            positives, negatives = desk_instance(seed)
            full = mine(positives, negatives, MiningConfig(max_edges=3))
            none = mine(
                positives,
                negatives,
                MiningConfig(
                    max_edges=3,
                    use_bound_prune=False,
                    use_subgraph_prune=False,
                    use_supergraph_prune=False,
                ),
            )
            assert full.stats.patterns_visited <= none.stats.patterns_visited
            assert full.max_score == pytest.approx(none.max_score, abs=1e-12)
