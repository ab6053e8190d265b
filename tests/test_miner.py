"""Mining sessions: exactness, anti-monotonicity, determinism, and config handling."""

import gc
import json
import math
import random
import weakref

import pytest

from tpmine.datakit import generate_synthetic, preset_spec, result_to_dict
from tpmine.graphs import canonical_pattern, validate
from tpmine import miner
from tpmine.growth import EmbeddingTable, empty_pattern, empty_table, expand, table_entries
from tpmine.matcher import find_instances
from tpmine.miner import ConfigInvalid, EmptyDataset, MiningConfig, _Session, mine
from tpmine.oracle import oracle_best_score, oracle_frequency
from tpmine.scoring import GTest, InfoGain, LogRatio
from tpmine.sequences import find_embeddings, first_matches

from conftest import desk_instance, embedded_pattern, random_graph, random_pattern


def frequency(table: EmbeddingTable, set_size: int) -> float:
    """Fraction of graphs containing at least one embedding, as the miner counts support."""
    if set_size <= 0:
        raise ValueError("set_size must be positive")
    return sum(1 for embs in table.entries.values() if embs) / set_size


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
            mine([g], [g], MiningConfig(min_freq_p=1.5))

    @pytest.mark.parametrize("fn", [
        LogRatio(epsilon=0.0), LogRatio(epsilon=-1.0), LogRatio(epsilon=math.nan), LogRatio(epsilon=math.inf),
        GTest(epsilon=0.0), GTest(epsilon=1.0), GTest(epsilon=math.nan),
        GTest(scale=0.0), GTest(scale=-5.0), GTest(scale=math.nan), GTest(scale=math.inf),
        InfoGain(pos_prior=-0.1), InfoGain(pos_prior=1.5), InfoGain(pos_prior=math.nan),
    ])
    def test_bad_score_parameters_rejected(self, fn):
        # A negative G-test scale breaks the F(x, 0) bound, so the pruned search would report a
        # wrong maximum; a zero or negative epsilon makes scoring raise.
        g = validate("g", ["A", "B"], [(0, 1, 1)])
        with pytest.raises(ConfigInvalid):
            mine([g], [g], MiningConfig(score_fn=fn))

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
            if g in session.positives:  # the truncated re-check
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


class TestNegativeWitness:
    """Each negative graph's first match is carried from parent to child."""

    def test_full_search_when_first_match_does_not_extend(self):
        # The parent A->B first matches A1->B1@1, which no B->C edge follows;
        # only the later parent match A2->B2@2 extends, by B2->C@3.
        positives = [validate("p", ["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])]
        negatives = [validate("n", ["A", "B", "A", "B", "C"], [(0, 1, 1), (2, 3, 2), (3, 4, 3)])]
        freq_n = {}

        def watch(pattern, parent, freq_p, fn, action):
            if action == "scored":
                freq_n[pattern.text()] = fn

        cfg = MiningConfig(max_edges=2, use_bound_prune=False, use_subgraph_prune=False,
                           use_supergraph_prune=False)
        mine(positives, negatives, cfg, on_visit=watch)
        assert freq_n["0:A->1:B@1;1:B->2:C@2"] == 1.0

    def test_carried_witness_is_the_first_match(self):
        # Lemma: from the parent's first match, the two-step test returns the
        # child's first match, or None exactly when the child has no match.
        rng = random.Random(45)
        cases = extended = 0
        while cases < 300:
            if cases % 3 == 0:
                n = rng.randint(2, 5)
                edges = [(rng.randrange(n), rng.randrange(n), t) for t in range(1, rng.randint(2, 12))]
                edges = [e for e in edges if e[0] != e[1]]  # graphs hold no self-loops
                g = validate("dense", [rng.choice("AB") for _ in range(n)], edges)
                child = embedded_pattern(rng, g, max_edges=3) or random_pattern(rng, max_edges=3, labels="AB")
            else:
                g = random_graph(rng, max_nodes=6, max_edges=12)
                child = embedded_pattern(rng, g, max_edges=4) if rng.random() < 0.7 else None
                child = child or random_pattern(rng, max_edges=4)
            prefix = list(zip(child.srcs, child.dsts, child.timestamps))[:-1]
            parent = canonical_pattern(child.labels, prefix) if prefix else empty_pattern()
            parent_first = find_embeddings(parent, g, limit=1)
            if not parent_first:
                continue  # the miner never tests a graph without the parent
            every = find_embeddings(child, g)
            extensions = [m for m in every if m.times[:-1] == parent_first[0].times]
            parent_entry = table_entries(g, parent_first)[0]
            carried = first_matches(child, [(g, parent_entry)])
            if extensions:
                assert carried == [(g, table_entries(g, extensions[:1])[0])]
            assert carried == ([(g, table_entries(g, every[:1])[0])] if every else [])
            session = _Session([g], [g], MiningConfig(), None)
            witness = session.first_match(child, g)
            assert witness == (every[0] if every else None), (child.text(), g.srcs, g.dsts, g.timestamps)
            assert session.stats.subiso_tests == 1
            cases += 1
            extended += len(extensions) > 1
        assert extended > 30

    @pytest.mark.parametrize("min_freq_p", [0.0, 0.5])
    @pytest.mark.parametrize("cap", [1, MiningConfig().embedding_cap])
    def test_negative_frequencies_match_oracle(self, min_freq_p, cap):
        checked = 0
        for seed in range(4):
            positives, negatives = desk_instance(30 + seed)
            if seed % 2:
                negatives.append(validate("chain", ["A", "B", "C", "D"], [(0, 1, 5), (1, 2, 6)]))
            scored = []

            def watch(pattern, parent, freq_p, freq_n, action):
                if action == "scored":
                    scored.append((pattern, freq_n))

            mine(positives, negatives, MiningConfig(max_edges=3, embedding_cap=cap, min_freq_p=min_freq_p),
                 on_visit=watch)
            for pattern, freq_n in scored:
                assert freq_n == pytest.approx(oracle_frequency(pattern, negatives)), pattern.text()
            checked += len(scored)
        assert checked >= 20


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
        ja, jb = result_to_dict(a), result_to_dict(b)
        del ja["stats"]["wallTime"], jb["stats"]["wallTime"]
        assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)


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

    @pytest.fixture(scope="class")
    def small(self):
        return generate_synthetic(preset_spec("small"), seed=0)

    # (visited, bound fires, subgraph fires, supergraph fires, subgraph tests, residual tests) on the
    # small preset or a desk instance.  The small rows never fire the supergraph rule; the desk rows
    # do, and desk245 also reads the negative signature of bound- or subgraph-pruned entries, whose
    # support takes first-match tests.
    @pytest.mark.parametrize("corpus, cfg, counts", [
        ("small", MiningConfig(max_edges=6, top_k=5, min_freq_p=0.5), (73, 0, 8, 0, 1912, 8)),
        ("small", MiningConfig(max_edges=6, top_k=5, min_freq_p=0.5, use_subgraph_prune=False,
                               use_supergraph_prune=False), (79, 0, 0, 0, 3312, 0)),
        ("small", MiningConfig(max_edges=4, top_k=5), (5424, 4757, 7, 0, 20470, 243)),
        ("small", MiningConfig(max_edges=4, top_k=5, embedding_cap=1), (5186, 4537, 7, 0, 140688, 7)),
        (302, MiningConfig(max_edges=3), (144, 0, 0, 1, 140, 120)),
        (302, MiningConfig(max_edges=3, top_k=1), (99, 24, 0, 3, 90, 87)),
        (245, MiningConfig(max_edges=3, top_k=3), (59, 0, 2, 2, 65, 36)),
    ], ids=["full", "bound-only", "floor0", "floor0-cap1", "desk302", "desk302-top1", "desk245"])
    def test_work_counters_are_pinned(self, small, corpus, cfg, counts):
        # Every counter is deterministic, and the report carries them: a change that moves one
        # changes the work the search does, not just its speed.
        positives, negatives = (small.positives, small.negatives) if corpus == "small" else desk_instance(corpus)
        s = mine(positives, negatives, cfg).stats
        assert (s.patterns_visited, s.bound_prune_fires, s.subgraph_prune_fires, s.supergraph_prune_fires,
                s.subiso_tests, s.residual_tests) == counts


class TestChildTables:
    def test_each_child_table_is_freed_once_consumed(self, monkeypatch):
        data = generate_synthetic(preset_spec("small"), seed=0)
        built = []

        def recording_expand(*args):
            kids = expand(*args)
            built.extend(weakref.ref(t) for t in kids.values())
            return kids

        monkeypatch.setattr(miner, "expand", recording_expand)
        session = _Session(data.positives, data.negatives, MiningConfig(min_freq_p=0.5), None)
        yielded = []
        for _, table, _ in session.children(empty_pattern(), empty_table(session.positives)):
            i = next(k for k, ref in enumerate(built) if ref() is table)
            # siblings before this one were visited or rejected by the floor; later ones wait
            assert all(ref() is None for ref in built[:i])
            assert all(ref() is not None for ref in built[i + 1:])
            yielded.append(i)
        del table
        assert all(ref() is None for ref in built)
        assert len(yielded) < len(built), "the support floor rejects some seeds"


class TestCyclicCollector:
    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_search_makes_no_cyclic_garbage(self):
        data = generate_synthetic(preset_spec("small"), seed=3)
        gc.collect()
        gc.disable()
        for cfg in (MiningConfig(min_freq_p=0.5), MiningConfig(min_freq_p=0.0, max_edges=4)):
            result = mine(data.positives, data.negatives, cfg)
            assert result.stats.patterns_visited > 10
        instances = find_instances(result.ranked[0].pattern, data.test_graph)
        assert instances
        witnesses = [find_embeddings(result.ranked[0].pattern, g, limit=1) for g in data.positives]
        assert any(witnesses)
        del result, instances, witnesses
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_mine_leaves_collector_state_as_found(self, enabled):
        positives, negatives = desk_instance(4)
        (gc.enable if enabled else gc.disable)()
        mine(positives, negatives, MiningConfig(max_edges=3))
        assert gc.isenabled() is enabled

        def hook(*_):
            assert gc.isenabled() is False
            raise RuntimeError("hook failed")

        with pytest.raises(RuntimeError, match="hook failed"):
            mine(positives, negatives, MiningConfig(max_edges=3), on_visit=hook)
        assert gc.isenabled() is enabled
