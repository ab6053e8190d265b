"""The library's embedding search, and the paper's sequence-based subgraph test kept as its reference."""

import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from tpmine.graphs import canonical_pattern, validate, verify_embedding
from tpmine.oracle import oracle_embeddings, oracle_subgraph_test
from tpmine.growth import table_entries
from tpmine.sequences import find_embeddings, first_matches, temporal_subgraph_test

from conftest import embedded_pattern, random_graph, random_pattern
from sequence_ref import SubgraphTestOptions, encode, is_subsequence, sequence_subgraph_test


class TestEncode:
    def test_chain(self):
        g = validate("g", ["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        nsq, esq, enh = encode(g)
        assert [n for n, _ in nsq.entries] == [0, 1, 2]
        assert esq.entries == ((0, 1), (1, 2))
        assert [n for n, _ in enh.entries] == [0, 1, 2]

    def test_single_edge(self):
        g = validate("g", ["A", "B"], [(0, 1, 1)])
        nsq, _, enh = encode(g)
        assert [n for n, _ in nsq.entries] == [0, 1]
        assert [n for n, _ in enh.entries] == [0, 1]

    def test_converging_edges_repeat_destination(self):
        # Second source is neither the last appended node nor the previous
        # edge's source, so both endpoints of the second edge are appended.
        g = validate("g", ["A", "B", "C"], [(0, 1, 1), (2, 1, 2)])
        nsq, _, enh = encode(g)
        assert [n for n, _ in nsq.entries] == [0, 1, 2]
        assert [n for n, _ in enh.entries] == [0, 1, 2, 1]

    def test_repeated_source_skipped(self):
        g = validate("g", ["A", "B", "C"], [(0, 1, 1), (0, 2, 2)])
        _, _, enh = encode(g)
        assert [n for n, _ in enh.entries] == [0, 1, 2]

    def test_enhanced_length_bound(self):
        rng = random.Random(11)
        for _ in range(400):
            g = random_graph(rng, max_nodes=6, max_edges=12)
            _, _, enh = encode(g)
            assert len(enh.entries) <= 2 * g.n_edges

    def test_labels_carried(self):
        g = validate("g", ["A", "B"], [(0, 1, 1)])
        nsq, _, enh = encode(g)
        assert nsq.entries == ((0, "A"), (1, "B"))
        assert enh.entries == ((0, "A"), (1, "B"))


class TestIsSubsequence:
    def test_basic(self):
        assert is_subsequence(["A", "C"], ["A", "B", "C"])

    def test_order_violated(self):
        assert not is_subsequence(["C", "A"], ["A", "B", "C"])

    def test_empty_is_subsequence_of_anything(self):
        assert is_subsequence([], [])
        assert is_subsequence([], ["A"])

    @given(st.lists(st.integers(0, 3), max_size=8), st.lists(st.integers(0, 3), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_bruteforce(self, s1, s2):
        def brute(a, b):
            if not a:
                return True
            if not b:
                return False
            if a[0] == b[0] and brute(a[1:], b[1:]):
                return True
            return brute(a, b[1:])

        assert is_subsequence(s1, s2) == brute(s1, s2)


def _worked_example():
    """A pattern/graph pair where the plain node sequence fails but the
    enhanced sequence admits the (unique) correct injective mapping."""
    p = canonical_pattern(["A", "B", "C", "D"], [(0, 1, 1), (1, 2, 2), (3, 2, 3)])
    g = validate(
        "g",
        ["A", "E", "X", "X", "D", "B", "C"],
        [(0, 1, 1), (1, 4, 2), (0, 5, 3), (5, 6, 4), (4, 6, 5)],
    )
    return p, g


class TestTemporalSubgraphTest:
    def test_worked_example_mapping(self):
        p, g = _worked_example()
        p_nsq, _, _ = encode(p)
        _, _, g_enh = encode(g)
        # The enhanced sequence repeats node 4's label after node 6 enters,
        # while the plain node sequence orders D before B and C.
        nsq_labels = [lab for _, lab in encode(g)[0].entries]
        assert not is_subsequence([lab for _, lab in p_nsq.entries], nsq_labels)
        emb = sequence_subgraph_test(p, g)
        assert emb is not None
        assert emb.nodes == (0, 5, 6, 4)
        mapped_edges = [(emb.nodes[s], emb.nodes[d]) for s, d in encode(p)[1].entries]
        assert mapped_edges == [(0, 5), (5, 6), (4, 6)]
        assert verify_embedding(p, g, emb)

    def test_reflexivity(self):
        rng = random.Random(21)
        for _ in range(50):
            p = random_pattern(rng, max_edges=5)
            emb = sequence_subgraph_test(p, p)
            assert emb is not None
            assert emb.nodes == tuple(range(p.n_nodes))

    def test_witness_times_strictly_increase(self):
        rng = random.Random(22)
        found = 0
        while found < 40:
            g = random_graph(rng, max_nodes=6, max_edges=10)
            p = embedded_pattern(rng, g)
            if p is None:
                continue
            emb = sequence_subgraph_test(p, g)
            assert emb is not None
            assert all(a < b for a, b in zip(emb.times, emb.times[1:]))
            found += 1

    def _verdict_corpus(self, seed, n):
        rng = random.Random(seed)
        pairs = []
        while len(pairs) < n:
            g = random_graph(rng, max_nodes=6, max_edges=12)
            if rng.random() < 0.5:
                p = embedded_pattern(rng, g, max_edges=5)
                if p is None:
                    continue
            else:
                p = random_pattern(rng, max_edges=6)
            pairs.append((p, g))
        return pairs

    def test_matches_backtracking_oracle(self):
        positives = 0
        for p, g in self._verdict_corpus(31, 500):
            fast = sequence_subgraph_test(p, g)
            slow = oracle_subgraph_test(p, g)
            assert (fast is None) == (slow is None), (p.text(), g.labels, g.srcs, g.dsts, g.timestamps)
            if fast is not None:
                positives += 1
                assert verify_embedding(p, g, fast)
        # both verdict directions must be exercised
        assert 0 < positives < 500

    def test_heuristic_toggles_never_change_verdicts(self):
        pairs = self._verdict_corpus(32, 120)
        combos = [
            SubgraphTestOptions(label_sequence_test=a, local_info=b, prefix_pruning=c)
            for a, b, c in product([False, True], repeat=3)
        ]
        for p, g in pairs:
            verdicts = {sequence_subgraph_test(p, g, opts) is None for opts in combos}
            assert len(verdicts) == 1

    def test_label_precheck_failure_implies_no_match(self):
        rng = random.Random(33)
        for _ in range(300):
            p = random_pattern(rng, max_edges=5)
            g = random_graph(rng, max_nodes=6, max_edges=10)
            p_nsq, _, _ = encode(p)
            _, _, g_enh = encode(g)
            if not is_subsequence(
                [lab for _, lab in p_nsq.entries], [lab for _, lab in g_enh.entries]
            ):
                assert sequence_subgraph_test(p, g) is None

    def test_pattern_larger_than_graph(self):
        p = canonical_pattern(["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        g = validate("g", ["A", "B"], [(0, 1, 5)])
        assert sequence_subgraph_test(p, g) is None


def _parent_first_entry(p, g):
    """First match in g of p without its last edge, as a growth table entry (the empty match
    ``((), -1)`` for a one-edge p), or None."""
    if p.n_edges == 1:
        return ((), -1)
    edges = list(zip(p.srcs, p.dsts, p.timestamps))[:-1]
    n_nodes = 1 + max(max(s, d) for s, d, _ in edges)
    parent = canonical_pattern(p.labels[:n_nodes], edges)
    first = find_embeddings(parent, g, limit=1)
    return table_entries(g, first)[0] if first else None


class TestFirstMatches:
    def test_agrees_with_a_fresh_search_inside_mining(self, monkeypatch):
        # Every batch the miner decides, with the default cap and with cap 1, must equal
        # find_embeddings(p, g, limit=1) turned into an entry, per carried graph; the corpora
        # cover all four last-edge shapes and graphs where the parent's first match does not
        # extend, so the full-search fallback runs.
        from tpmine import miner
        from tpmine.miner import MiningConfig, mine
        from conftest import desk_instance

        shapes = {}
        fallbacks = 0

        def checked(p, carried):
            nonlocal fallbacks
            got = first_matches(p, carried)
            want = []
            for g, (nodes, last) in carried:
                first = find_embeddings(p, g, limit=1)
                if first:
                    want.append((g, table_entries(g, first)[0]))
                if p.n_edges > 1:
                    parent_nodes = max(max(p.srcs[:-1]), max(p.dsts[:-1])) + 1
                    shape = "inward" if parent_nodes == p.n_nodes else (
                        "forward" if p.dsts[-1] == p.n_nodes - 1 else "backward")
                else:
                    shape = "seed"
                shapes[shape] = shapes.get(shape, 0) + 1
                if first and p.n_edges > 1 and first[0].nodes[:len(nodes)] != nodes:
                    fallbacks += 1  # p occurs, but not by extending the parent's first match
            assert got == want, p.text()
            return got

        monkeypatch.setattr(miner, "first_matches", checked)
        for seed in range(40):
            positives, negatives = desk_instance(seed)
            for cap in (1, 10_000):
                mine(positives, negatives, MiningConfig(max_edges=4, top_k=3, embedding_cap=cap,
                                                        use_bound_prune=False))
        assert min(shapes.get(k, 0) for k in ("seed", "forward", "backward", "inward")) > 20, shapes
        assert fallbacks > 0


class TestFindEmbeddings:
    def test_equals_oracle_enumeration(self):
        rng = random.Random(41)
        checked = 0
        while checked < 300:
            g = random_graph(rng, max_nodes=6, max_edges=10)
            p = embedded_pattern(rng, g, max_edges=4) if rng.random() < 0.6 else random_pattern(rng, max_edges=4)
            if p is None:
                continue
            fast = set(find_embeddings(p, g))
            slow = set(oracle_embeddings(p, g))
            assert fast == slow, (p.text(), g.labels, g.srcs, g.dsts, g.timestamps)
            checked += 1

    def test_limit_respected(self):
        g = validate("g", ["A", "B"], [(0, 1, 1), (0, 1, 2), (0, 1, 3)])
        p = canonical_pattern(["A", "B"], [(0, 1, 1)])
        assert len(find_embeddings(p, g)) == 3
        assert len(find_embeddings(p, g, limit=2)) == 2

    def test_window_and_limit_against_oracle(self):
        # Differential check of the chronological search: the whole set, the
        # set under a duration window and a limited prefix, on sparse graphs
        # and on dense two-label ones.
        rng = random.Random(43)
        for case in range(200):
            if case % 4 == 0:
                n = rng.randint(2, 5)
                edges = [(rng.randrange(n), rng.randrange(n), t) for t in range(1, rng.randint(2, 10))]
                edges = [e for e in edges if e[0] != e[1]]  # graphs hold no self-loops
                g = validate("dense", [rng.choice("AB") for _ in range(n)], edges)
                p = random_pattern(rng, max_edges=3, labels="AB")
            else:
                g = random_graph(rng, max_nodes=6, max_edges=10)
                p = embedded_pattern(rng, g, max_edges=4) or random_pattern(rng, max_edges=4)
            every = set(oracle_embeddings(p, g))
            assert set(find_embeddings(p, g)) == every
            window = rng.randint(0, 12) or None
            within = {e for e in every if window is None or e.times[-1] - e.times[0] <= window}
            assert set(find_embeddings(p, g, window=window)) == within
            limit = rng.randint(1, 4)
            got = find_embeddings(p, g, limit=limit)
            assert len(got) == min(limit, len(every)) and set(got) <= every

    def test_first_match_existence_agrees_with_subgraph_test(self):
        # The miner answers "does p occur in g?" with temporal_subgraph_test,
        # the first match of the indexed search, found from scratch or by
        # extending the first match of p's parent (p without its last edge);
        # it must give the sequence-based test's and the oracle's verdict,
        # also on dense two-label graphs.
        rng = random.Random(44)
        found = 0
        for case in range(500):
            if case % 3 == 0:
                n = rng.randint(2, 5)
                edges = [(rng.randrange(n), rng.randrange(n), t) for t in range(1, rng.randint(2, 10))]
                edges = [e for e in edges if e[0] != e[1]]  # graphs hold no self-loops
                g = validate("dense", [rng.choice("AB") for _ in range(n)], edges)
                p = embedded_pattern(rng, g, max_edges=3) or random_pattern(rng, max_edges=3, labels="AB")
            else:
                g = random_graph(rng, max_nodes=6, max_edges=10)
                p = embedded_pattern(rng, g, max_edges=4) if rng.random() < 0.5 else None
                p = p or random_pattern(rng, max_edges=4)
            first = find_embeddings(p, g, limit=1)
            first = first[0] if first else None
            exists = first is not None
            assert temporal_subgraph_test(p, g) == first
            parent_entry = _parent_first_entry(p, g)
            if parent_entry is not None:
                assert first_matches(p, [(g, parent_entry)]) == (
                    [(g, table_entries(g, [first])[0])] if exists else [])
            assert exists == (sequence_subgraph_test(p, g) is not None)
            assert exists == (oracle_subgraph_test(p, g) is not None)
            found += exists
        assert 0 < found < 500

    def test_every_embedding_verifies(self):
        rng = random.Random(42)
        for _ in range(100):
            g = random_graph(rng, max_nodes=5, max_edges=8)
            p = embedded_pattern(rng, g, max_edges=3)
            if p is None:
                continue
            for emb in find_embeddings(p, g):
                assert verify_embedding(p, g, emb)
