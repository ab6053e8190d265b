"""Residual signatures, signature equivalence, and the two branch-pruning rules."""

import dataclasses
import json
import math
import random
from bisect import bisect_right

import pytest

from tpmine import miner
from tpmine.datakit import generate_synthetic, preset_spec, result_to_dict
from tpmine.graphs import canonical_pattern, validate
from tpmine.growth import EmbeddingTable, empty_table, table_entries
from tpmine.miner import MiningConfig, mine
from tpmine.oracle import oracle_best_score, oracle_embeddings, oracle_subgraph_test
from tpmine.pruning import (
    PatternRegistry,
    ResidualSignature,
    residual_signature,
    score_upper_bound,
    signatures_equivalent,
    subgraph_prune_check,
    supergraph_prune_check,
)
from tpmine.scoring import LogRatio
from tpmine.sequences import find_embeddings

from conftest import desk_instance, embedded_pattern, random_graph
from oracle_ref import oracle_residual_equal

INF = float("inf")


def sig_of(p, graphs) -> ResidualSignature:
    table = EmbeddingTable({g: table_entries(g, find_embeddings(p, g)) for g in graphs})
    return residual_signature(table, graphs)


def neg_signature_over(neg):
    """A ``neg_signature`` callback over ``neg`` that finds each pattern's graphs itself."""
    return lambda p, graphs=None: sig_of(p, neg)


@dataclasses.dataclass(frozen=True)
class ResidualView:
    """Residual of one embedding: what is left of the graph after its last edge."""

    graph_id: str
    cutoff: int
    size: int
    label_set: frozenset


def profile(sig: ResidualSignature) -> tuple:
    """The per-graph (graph id, sorted residual sizes) pairs the signature's columns hold."""
    return tuple((g.id, sig.sizes[lo:hi]) for g, lo, hi in zip(sig.graphs, (0,) + sig.ends, sig.ends))


def label_union(sig: ResidualSignature) -> frozenset:
    """Every label on a node incident to a residual edge of the signature's graphs."""
    starts = [(g, g.n_edges - sig.sizes[end - 1]) for g, end in zip(sig.graphs, sig.ends)]
    return frozenset(lab for g, start in starts
                     for lab, last in g.last_label_positions().items() if last >= start)


def residual_view(g, cutoff: int) -> ResidualView:
    start = bisect_right(g.timestamps, cutoff)
    labels = frozenset(lab for lab, last in g.last_label_positions().items() if last >= start)
    return ResidualView(g.id, cutoff, g.n_edges - start, labels)


class TestResidualSignature:
    def test_empty_pattern_residual_is_whole_graph(self):
        rng = random.Random(1)
        g = random_graph(rng, max_nodes=6, max_edges=12, min_edges=12, graph_id="g")
        assert g.n_edges == 12
        sig = residual_signature(empty_table([g]), [g])
        assert sig.i_value == 12
        assert (sig.sizes, sig.ends, sig.graphs) == ((12,), (1,), (g,))

    def test_match_on_final_edge_contributes_zero(self):
        g = validate("g", ["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        p = canonical_pattern(["B", "C"], [(0, 1, 1)])
        sig = sig_of(p, [g])
        assert sig.i_value == 0
        assert (sig.sizes, sig.ends, sig.graphs) == ((0,), (1,), (g,))

    def test_matches_oracle_recount(self):
        rng = random.Random(2)
        checked = 0
        while checked < 150:
            g = random_graph(rng, max_nodes=6, max_edges=10)
            p = embedded_pattern(rng, g, max_edges=3)
            if p is None:
                continue
            sig = sig_of(p, [g])
            oracle_sizes = sorted(
                g.n_edges - bisect_right(g.timestamps, emb.max_data_time) for emb in oracle_embeddings(p, g)
            )
            assert sig.i_value == sum(oracle_sizes)
            assert profile(sig) == ((g.id, tuple(oracle_sizes)),)
            assert sig.ends == (len(oracle_sizes),)
            checked += 1

    def test_columns_concatenate_sorted_sizes_of_supporting_graphs(self):
        # Graphs without a match are left out; ends[j] closes graph j's sorted sizes.
        g0 = validate("g0", ["A", "B"], [(0, 1, 1), (0, 1, 2), (0, 1, 3)])
        g1 = validate("g1", ["C", "D"], [(0, 1, 1)])
        g2 = validate("g2", ["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        sig = sig_of(canonical_pattern(["A", "B"], [(0, 1, 1)]), [g0, g1, g2])
        assert (sig.sizes, sig.ends, sig.graphs) == ((0, 1, 2, 1), (3, 4), (g0, g2))
        assert sig.i_value == 4
        assert profile(sig) == (("g0", (0, 1, 2)), ("g2", (1,)))

    def test_label_union_covers_residual_edges(self):
        g = validate("g", ["A", "B", "C", "D"], [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        p = canonical_pattern(["A", "B"], [(0, 1, 1)])
        sig = sig_of(p, [g])
        assert label_union(sig) == {"B", "C", "D"}

    def test_residual_view_of_single_cutoff(self):
        g = validate("g", ["A", "B", "C", "D"], [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        view = residual_view(g, cutoff=1)
        assert view.graph_id == "g"
        assert view.size == 2
        assert view.label_set == {"B", "C", "D"}
        assert residual_view(g, cutoff=3).size == 0

    def test_surplus_label_test_matches_label_union(self):
        # The on-demand test (last label position against the longest
        # residual's start) gives the verdict of intersecting the surplus
        # labels with the residual label union, built here from the edges
        # later than each graph's earliest embedding cutoff.
        rng = random.Random(5)
        checked = hits = 0
        while checked < 300:
            graphs = []
            for i in range(rng.randint(1, 3)):
                if rng.random() < 0.3:
                    n = rng.randint(2, 5)
                    edges = [(rng.randrange(n), rng.randrange(n), t) for t in range(1, rng.randint(2, 10))]
                    edges = [e for e in edges if e[0] != e[1]]  # graphs hold no self-loops
                    graphs.append(validate(f"l{i}", [rng.choice("ABCD") for _ in range(n)], edges))
                else:
                    graphs.append(random_graph(rng, max_nodes=6, max_edges=10, graph_id=f"g{i}"))
            p = embedded_pattern(rng, graphs[0], max_edges=3)
            if p is None:
                continue
            matches = {g: find_embeddings(p, g) for g in graphs}
            table = EmbeddingTable({g: table_entries(g, matches[g]) for g in graphs})
            sig = residual_signature(table, graphs)
            union = set()
            for g in graphs:
                if table.entries[g]:
                    cutoff = min(e.max_data_time for e in matches[g])
                    union |= {g.labels[v] for s, d, t in zip(g.srcs, g.dsts, g.timestamps)
                              if t > cutoff for v in (s, d)}
            assert label_union(sig) == union
            for _ in range(5):
                surplus = set(rng.sample("ABCDE", rng.randint(1, 3)))
                assert sig.residual_has_label(surplus) == bool(surplus & union)
                hits += bool(surplus & union)
            checked += 1
        assert 0 < hits < 1500

    def test_inexact_when_truncated(self):
        g = validate("g", ["A", "B"], [(0, 1, 1), (0, 1, 2)])
        matches = find_embeddings(canonical_pattern(["A", "B"], [(0, 1, 1)]), g)
        table = EmbeddingTable({g: table_entries(g, matches)}, truncated=frozenset({g}))
        assert not residual_signature(table, [g]).exact


class TestSignatureEquivalence:
    def test_integer_collision_with_distinct_residuals(self):
        # The compressed integers can agree while the actual residual
        # multisets differ; this is exactly why pruning compares the
        # per-graph profiles and not just the integers.
        G = validate("G", ["A", "B", "C", "A", "B"], [(0, 1, 1), (1, 2, 2), (1, 2, 3), (3, 4, 4)])
        g1 = canonical_pattern(["A", "B"], [(0, 1, 1)])
        g2 = canonical_pattern(["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        s1, s2 = sig_of(g1, [G]), sig_of(g2, [G])
        assert s1.i_value == s2.i_value == 3
        assert profile(s1) != profile(s2)
        assert not signatures_equivalent(s1, s2)
        assert not oracle_residual_equal(g1, g2, [G])

    def test_profile_equivalence_matches_oracle(self):
        # Production-path profiles against the independent enumerator, on
        # nested pattern pairs: equivalence must agree in both directions.
        rng = random.Random(3)
        total = agree_equal = 0
        while total < 1000:
            graphs = [random_graph(rng, max_nodes=6, max_edges=10, graph_id=f"q{total}.{i}")
                      for i in range(rng.randint(1, 3))]
            g = graphs[rng.randrange(len(graphs))]
            g2 = embedded_pattern(rng, g, max_edges=4)
            if g2 is None:
                continue
            j = rng.randint(1, g2.n_edges)
            g1 = canonical_pattern(
                {i: g2.labels[i] for i in range(g2.n_nodes)},
                list(zip(g2.srcs, g2.dsts, g2.timestamps))[:j],
            )
            fast = signatures_equivalent(sig_of(g1, graphs), sig_of(g2, graphs))
            slow = oracle_residual_equal(g1, g2, graphs)
            assert fast == slow
            agree_equal += fast
            total += 1
        assert 0 < agree_equal < 1000  # both outcomes exercised


class TestScoreUpperBound:
    def test_full_support_bound(self):
        assert math.isclose(score_upper_bound(LogRatio(), 1.0), math.log(1e6), rel_tol=0, abs_tol=1e-9)

    def test_zero_support_floor(self):
        assert score_upper_bound(LogRatio(), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_support(self):
        fn = LogRatio()
        xs = [i / 20 for i in range(21)]
        bounds = [score_upper_bound(fn, x) for x in xs]
        assert all(a <= b + 1e-12 for a, b in zip(bounds, bounds[1:]))


def chain_with_marker_positive():
    """Chain B0->B1->B2->B3 plus a later discriminative A0->A1 edge."""
    return validate(
        "p0",
        ["B0", "B1", "B2", "B3", "A0", "A1"],
        [(0, 1, 1), (1, 2, 2), (2, 3, 3), (4, 5, 5)],
    )


def chain_negative():
    return validate("n0", ["B0", "B1", "B2", "B3"], [(0, 1, 1), (1, 2, 2), (2, 3, 3)])


class TestSubgraphPruneCheck:
    def test_empty_registry(self):
        g2 = canonical_pattern(["B1", "B2"], [(0, 1, 1)])
        registry = PatternRegistry()
        assert subgraph_prune_check(g2, sig_of(g2, [chain_with_marker_positive()]), registry, INF) is None

    def test_constructed_fire(self):
        pos = [chain_with_marker_positive()]
        chain = canonical_pattern(["B0", "B1", "B2"], [(0, 1, 1), (1, 2, 2)])
        g2 = canonical_pattern(["B1", "B2"], [(0, 1, 1)])
        registry = PatternRegistry()
        entry = registry.add(chain, sig_of(chain, pos))
        entry.finalize(branch_max=0.0)
        hit = subgraph_prune_check(g2, sig_of(g2, pos), registry, fstar=10.0)
        assert hit is entry

    def test_surplus_label_in_residual_blocks_fire(self):
        # The explored pattern's extra node label reappears after the match
        # cutoff, so growing the subgraph there could reach new patterns.
        pos = [validate("p0", ["A", "B", "C", "A", "B"],
                        [(0, 1, 1), (1, 2, 2), (3, 4, 3)])]
        chain = canonical_pattern(["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        g2 = canonical_pattern(["B", "C"], [(0, 1, 1)])
        registry = PatternRegistry()
        entry = registry.add(chain, sig_of(chain, pos))
        entry.finalize(branch_max=0.0)
        sig2 = sig_of(g2, pos)
        assert "A" in label_union(sig2)
        assert subgraph_prune_check(g2, sig2, registry, fstar=10.0) is None

    def test_requires_finalized_and_below_threshold(self):
        pos = [chain_with_marker_positive()]
        chain = canonical_pattern(["B0", "B1", "B2"], [(0, 1, 1), (1, 2, 2)])
        g2 = canonical_pattern(["B1", "B2"], [(0, 1, 1)])
        registry = PatternRegistry()
        entry = registry.add(chain, sig_of(chain, pos))
        sig2 = sig_of(g2, pos)
        assert subgraph_prune_check(g2, sig2, registry, INF) is None  # not finalized
        entry.finalize(branch_max=5.0)
        assert subgraph_prune_check(g2, sig2, registry, fstar=5.0) is None  # not strictly below
        assert subgraph_prune_check(g2, sig2, registry, fstar=5.1) is entry

    def test_never_fires_on_inexact_signature(self):
        pos = [chain_with_marker_positive()]
        chain = canonical_pattern(["B0", "B1", "B2"], [(0, 1, 1), (1, 2, 2)])
        g2 = canonical_pattern(["B1", "B2"], [(0, 1, 1)])
        registry = PatternRegistry()
        registry.add(chain, sig_of(chain, pos)).finalize(0.0)
        sig2 = sig_of(g2, pos)
        inexact = dataclasses.replace(sig2, exact=False)
        assert subgraph_prune_check(g2, inexact, registry, INF) is None

    def test_mining_fire_preserves_exact_result(self):
        # max_edges above the chain's natural depth, so explored branches are
        # depth-complete and may certify prunes.
        pos = [chain_with_marker_positive()]
        neg = [chain_negative()]
        cfg = MiningConfig(max_edges=4, top_k=1)
        with_rule = mine(pos, neg, cfg)
        without_rule = mine(pos, neg, MiningConfig(max_edges=4, top_k=1, use_subgraph_prune=False))
        assert with_rule.stats.subgraph_prune_fires >= 1
        assert without_rule.stats.subgraph_prune_fires == 0
        assert with_rule.max_score == pytest.approx(without_rule.max_score, abs=1e-12)
        best, argmax = oracle_best_score(pos, neg, 4, LogRatio())
        assert with_rule.max_score == pytest.approx(best, abs=1e-9)
        assert {sp.pattern.key() for sp in with_rule.maximizers} == {p.key() for p in argmax.values()}
        assert with_rule.stats.patterns_visited < without_rule.stats.patterns_visited

    def test_cap_truncated_branch_cannot_certify(self):
        # With the cap at the chain's depth, the candidate's branch is cut by
        # the cap, the certificate is withheld, and no fire happens: pruned
        # counterparts would have been larger than anything explored.
        pos = [chain_with_marker_positive()]
        neg = [chain_negative()]
        result = mine(pos, neg, MiningConfig(max_edges=3, top_k=1))
        best, argmax = oracle_best_score(pos, neg, 3, LogRatio())
        assert result.max_score == pytest.approx(best, abs=1e-9)
        assert {sp.pattern.key() for sp in result.maximizers} == {p.key() for p in argmax.values()}


def reversed_pair_positive():
    """Every A->B is preceded by B->A between the same nodes."""
    return validate("p0", ["B", "A", "A0", "A1"], [(0, 1, 1), (1, 0, 2), (2, 3, 9)])


def reversed_pair_negative():
    return validate("n0", ["B", "A"], [(0, 1, 1), (1, 0, 2)])


class TestSupergraphPruneCheck:
    def test_node_count_mismatch_blocks(self):
        pos = [chain_with_marker_positive()]
        small = canonical_pattern(["B0", "B1"], [(0, 1, 1)])
        big = canonical_pattern(["B0", "B1", "B2"], [(0, 1, 1), (1, 2, 2)])
        registry = PatternRegistry()
        registry.add(small, sig_of(small, pos)).finalize(0.0)
        hit = supergraph_prune_check(big, sig_of(big, pos), (), registry, fstar=10.0,
                                     neg_signature=neg_signature_over([]))
        assert hit is None

    def test_true_equivalence_fire(self):
        pos = [reversed_pair_positive()]
        neg = [reversed_pair_negative()]
        g1 = canonical_pattern(["A", "B"], [(0, 1, 1)])  # A->B alone
        g2 = canonical_pattern(["B", "A"], [(0, 1, 1), (1, 0, 2)])  # B->A then A->B
        registry = PatternRegistry()
        entry = registry.add(g1, sig_of(g1, pos))
        entry.neg_graphs = tuple(neg)
        entry.finalize(branch_max=0.0)
        hit = supergraph_prune_check(g2, sig_of(g2, pos), tuple(neg), registry, fstar=10.0,
                                     neg_signature=neg_signature_over(neg))
        assert hit is entry

    def test_refuses_integer_sum_collision(self):
        # Multi-edge construction where the residual integers collide across
        # graphs while the actual residual multisets differ: every other
        # condition of the rule holds, so only the profile test refuses.
        G1 = validate("G1", ["A", "B"], [(0, 1, 1), (0, 1, 2), (0, 1, 3)])
        G2 = validate(
            "G2",
            ["A", "B", "X", "Y"],
            [(0, 1, 1), (0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 5), (2, 3, 6)],
        )
        pos = [G1, G2]
        neg = [validate("n0", ["X", "Y"], [(0, 1, 1)])]
        g1 = canonical_pattern(["A", "B"], [(0, 1, 1)])
        g2 = canonical_pattern(["A", "B"], [(0, 1, 1), (0, 1, 2)])
        s1, s2 = sig_of(g1, pos), sig_of(g2, pos)
        assert s1.i_value == s2.i_value == 17
        assert profile(s1) != profile(s2)
        registry = PatternRegistry()
        entry = registry.add(g1, s1)
        entry.neg_graphs = ()
        entry.finalize(branch_max=0.0)
        common = dict(neg_graphs=(), registry=registry, fstar=10.0, neg_signature=neg_signature_over(neg))
        assert supergraph_prune_check(g2, s2, **common) is None
        entry.sig_p = s2  # equal profiles: the same entry now certifies
        assert supergraph_prune_check(g2, s2, **common) is entry

    def test_candidate_must_occur_in_current_pattern(self):
        # B->A then A->B against A->B twice: same nodes and labels, and in
        # p0 both patterns' only embeddings end on the last edge, so their
        # positive residuals are equal; neither occurs in the negative.
        # Only the containment step can refuse the candidate.
        pos = [validate("p0", ["A", "B"], [(0, 1, 1), (1, 0, 2), (0, 1, 3)])]
        neg = [validate("n0", ["X", "Y"], [(0, 1, 1)])]
        g1 = canonical_pattern(["B", "A"], [(0, 1, 1), (1, 0, 2)])
        g2 = canonical_pattern(["A", "B"], [(0, 1, 1), (0, 1, 2)])
        s1, s2 = sig_of(g1, pos), sig_of(g2, pos)
        assert signatures_equivalent(s1, s2)
        assert signatures_equivalent(sig_of(g1, neg), sig_of(g2, neg))
        assert g1.label_multiset() == g2.label_multiset() and g1.n_nodes == g2.n_nodes
        assert not find_embeddings(g1, g2)
        registry = PatternRegistry()
        entry = registry.add(g1, s1)
        entry.neg_graphs = ()
        entry.finalize(branch_max=0.0)
        hit = supergraph_prune_check(g2, s2, (), registry, fstar=10.0, neg_signature=neg_signature_over(neg))
        assert hit is None

    def test_mining_fire_preserves_exact_result(self):
        pos = [reversed_pair_positive()]
        neg = [reversed_pair_negative()]
        cfg = MiningConfig(max_edges=2, top_k=1)
        with_rule = mine(pos, neg, cfg)
        without_rule = mine(pos, neg, MiningConfig(max_edges=2, top_k=1, use_supergraph_prune=False))
        assert with_rule.stats.supergraph_prune_fires >= 1
        assert with_rule.max_score == pytest.approx(without_rule.max_score, abs=1e-12)
        best, argmax = oracle_best_score(pos, neg, 2, LogRatio())
        assert with_rule.max_score == pytest.approx(best, abs=1e-9)
        assert {sp.pattern.key() for sp in with_rule.maximizers} == {p.key() for p in argmax.values()}


class TestIntegerCollision:
    def test_mining_keeps_every_maximizer(self):
        # Pinned instance where the residual integers collide spuriously: a
        # prune trusting the integer alone discards one of three
        # maximum-score patterns, and the profile test keeps the result exact.
        pos = [
            validate("p0", ["A", "B", "A"], [(1, 2, 1), (2, 0, 2), (2, 1, 3), (2, 1, 4), (0, 1, 5)]),
            validate("p1", ["A", "A"], [(1, 0, 1), (1, 0, 2), (1, 0, 3), (0, 1, 4), (0, 1, 5), (1, 0, 6)]),
            validate("p2", ["A", "B", "B"], [(0, 2, 1), (2, 1, 2), (0, 2, 3), (2, 0, 4), (2, 0, 5), (1, 2, 6)]),
            validate("p3", ["A", "B", "A", "A"], [(3, 1, 1), (0, 1, 2), (1, 0, 3), (1, 3, 4), (2, 3, 5), (2, 1, 6)]),
        ]
        neg = [
            validate("n0", ["B", "A"], [(1, 0, 1), (1, 0, 2), (0, 1, 3), (0, 1, 4), (1, 0, 5), (1, 0, 6)]),
            validate("n1", ["A", "A", "A"], [(1, 2, 1), (1, 2, 2), (0, 1, 3), (1, 0, 4), (1, 2, 5)]),
        ]
        best, argmax = oracle_best_score(pos, neg, 3, LogRatio())
        res = mine(pos, neg, MiningConfig(max_edges=3, top_k=1))
        assert res.max_score == pytest.approx(best, abs=1e-12)
        assert {sp.pattern.key() for sp in res.maximizers} == {p.key() for p in argmax.values()}


class TestRegistry:
    def test_capacity_stops_inserting(self):
        # Past the cap, add still hands out an entry to finalize, but no candidate walk finds it.
        pos = [chain_negative()]
        registry = PatternRegistry()
        registry.max_entries = 1
        p1 = canonical_pattern(["B0", "B1"], [(0, 1, 1)])
        p2 = canonical_pattern(["B1", "B2"], [(0, 1, 1)])
        e1 = registry.add(p1, sig_of(p1, pos))
        e2 = registry.add(p2, sig_of(p2, pos))
        assert e1 is not None and e2 is not None
        e1.finalize(0.0)
        e2.finalize(0.0)
        assert list(registry.equivalent(sig_of(p1, pos), INF, lambda e: True)) == [e1]
        assert list(registry.equivalent(sig_of(p2, pos), INF, lambda e: True)) == []
        assert registry.residual_tests == 1

    def test_bucket_filter_is_decision_neutral(self):
        # Same decisions with the I-value bucket index as with a full scan
        # over every entry (the bucket only narrows the candidate list).
        rng = random.Random(13)
        pos = [random_graph(rng, max_nodes=5, max_edges=8, graph_id=f"g{i}") for i in range(3)]
        registry = PatternRegistry()
        patterns = []
        entries = []
        for _ in range(40):
            g = pos[rng.randrange(len(pos))]
            p = embedded_pattern(rng, g, max_edges=3)
            if p is None:
                continue
            patterns.append(p)
            entry = registry.add(p, sig_of(p, pos))
            entry.finalize(branch_max=rng.uniform(-1, 1))
            entries.append(entry)

        def exhaustive_subgraph_check(g2, sig2, fstar):
            for entry in entries:
                bucket_match = entry.sig_p.i_value == sig2.i_value
                full = PatternRegistry()
                full._by_ip = {sig2.i_value: [entry]} if bucket_match else {}
                hit = subgraph_prune_check(g2, sig2, full, fstar)
                if hit is not None:
                    return hit
            return None

        for p in patterns[:15]:
            sig = sig_of(p, pos)
            bucketed = subgraph_prune_check(p, sig, registry, fstar=0.5)
            exhaustive = exhaustive_subgraph_check(p, sig, fstar=0.5)
            assert (bucketed is None) == (exhaustive is None)


def report(result) -> str:
    """The whole report a mining run writes, counters included, without its timing field."""
    doc = result_to_dict(result)
    del doc["stats"]["wallTime"]
    return json.dumps(doc, sort_keys=True)


def ranking(scored) -> list:
    return [(sp.pattern.text(), sp.score, sp.freq_p, sp.freq_n, sp.interest) for sp in scored]


class TestGraphOrder:
    def test_supergraph_fire_in_either_negative_order(self):
        # Two copies of the negative, listed out of id order in the second run.  The candidate's
        # negative signature and the current pattern's must list the copies in one order, or they
        # never compare equal.
        a0 = validate("a0", ["B", "A"], [(0, 1, 1), (1, 0, 2)])
        cfg = MiningConfig(max_edges=2, top_k=1)
        reports = []
        for negatives in ([a0, reversed_pair_negative()], [reversed_pair_negative(), a0]):
            result = mine([reversed_pair_positive()], negatives, cfg)
            assert result.stats.supergraph_prune_fires == 1
            reports.append(report(result))
        assert reports[0] == reports[1]

    def test_shuffled_graph_lists_leave_the_report_unchanged(self):
        rng = random.Random(25)
        cfg = MiningConfig(max_edges=3, top_k=3)
        fired = 0
        for seed in range(400):
            positives, negatives = desk_instance(seed)
            result = mine(positives, negatives, cfg)
            rng.shuffle(positives)
            rng.shuffle(negatives)
            assert report(mine(positives, negatives, cfg)) == report(result), seed
            fired += result.stats.supergraph_prune_fires > 0
        assert fired >= 5


    @pytest.mark.parametrize("cap", [1, MiningConfig.embedding_cap])
    def test_negative_graphs_follow_the_shuffled_negative_list(self, monkeypatch, cap):
        # A scored entry's negative graphs, and a negative signature's graphs, are exactly the
        # negatives holding the pattern, in the order of the negative list as given: the signatures
        # the supergraph rule builds while mining, and one over every negative graph per entry.
        added, signed = [], []

        class RecordingRegistry(PatternRegistry):
            def add(self, pattern, sig_p):
                added.append(super().add(pattern, sig_p))
                return added[-1]

        def neg_signature(session, pattern, graphs=None):
            signed.append((pattern, real(session, pattern, graphs)))
            return signed[-1][1]

        real = miner._Session.neg_signature
        monkeypatch.setattr(miner, "PatternRegistry", RecordingRegistry)
        monkeypatch.setattr(miner._Session, "neg_signature", neg_signature)
        rng = random.Random(26)
        cfg = MiningConfig(max_edges=4, top_k=3, embedding_cap=cap)
        scored = in_search = 0
        for seed in range(400):
            positives, negatives = desk_instance(seed)
            rng.shuffle(negatives)
            del added[:], signed[:]
            mine(positives, negatives, cfg)
            in_search += len(signed)
            session = miner._Session(positives, negatives, cfg, None)
            holding = {}
            for entry in added:
                want = holding[entry.pattern.key()] = tuple(
                    g for g in negatives if oracle_subgraph_test(entry.pattern, g) is not None)
                if entry.neg_graphs is not None:
                    assert entry.neg_graphs == want, seed
                    scored += 1
                signed.append((entry.pattern, real(session, entry.pattern)))
            for pattern, sig in signed:
                assert sig.graphs == holding[pattern.key()], seed
        assert scored > 10_000 and in_search > 20, (scored, in_search)


class TestFinalizedEntries:
    def test_supergraph_prune_keeps_its_certificate_depth(self, monkeypatch):
        # The 3-edge pattern is pruned by the 2-edge entry, whose branch reached the cap; the entry
        # the prune finalizes must not claim a depth-complete branch either.
        added = []

        class RecordingRegistry(PatternRegistry):
            def add(self, pattern, sig_p):
                added.append(super().add(pattern, sig_p))
                return added[-1]

        monkeypatch.setattr(miner, "PatternRegistry", RecordingRegistry)
        positives, negatives = desk_instance(302)
        result = mine(positives, negatives, MiningConfig(max_edges=3, top_k=1))
        assert result.stats.supergraph_prune_fires >= 1
        flags = {e.pattern.text(): e.depth_complete for e in added}
        assert flags["0:A->1:A@1;0:A->1:A@2"] is False
        assert flags["0:A->1:A@1;1:A->0:A@2;0:A->1:A@3"] is False

    @pytest.mark.parametrize("cap", [0, 1, 10])
    def test_full_registry_keeps_the_result(self, monkeypatch, cap):
        # Past max_entries the registry records nothing more: pruning weakens, the result does not.
        small = generate_synthetic(preset_spec("small"), seed=0)
        cases = [((small.positives, small.negatives), MiningConfig(max_edges=6, top_k=5, min_freq_p=0.5))]
        cases += [(desk_instance(seed), MiningConfig(max_edges=me, top_k=3)) for seed in range(30) for me in (3, 4)]
        for (positives, negatives), cfg in cases:
            full = mine(positives, negatives, cfg)
            with monkeypatch.context() as m:
                m.setattr(PatternRegistry, "max_entries", cap)
                capped = mine(positives, negatives, cfg)
            assert ranking(capped.ranked) == ranking(full.ranked)
            assert ranking(capped.maximizers) == ranking(full.maximizers)
            assert capped.stats.subgraph_prune_fires <= full.stats.subgraph_prune_fires
            assert capped.stats.supergraph_prune_fires <= full.stats.supergraph_prune_fires
            if cap == 0:
                assert capped.stats.subgraph_prune_fires == capped.stats.supergraph_prune_fires == 0
