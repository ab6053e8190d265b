"""Pattern growth: expand's child patterns and tables, against the oracle reference."""

import random

import pytest

from tpmine.graphs import canonical_pattern, is_t_connected, validate, verify_embedding
from tpmine.growth import empty_pattern, empty_table, expand
from tpmine.oracle import oracle_embeddings, oracle_enumerate_patterns

from conftest import random_graph
from oracle_ref import oracle_children


def chain_graph():
    return validate("chain", ["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])


def dense_graphs(rng):
    """One to three small random graphs, dense in repeated node pairs."""
    graphs = []
    for i in range(rng.randint(1, 3)):
        n = rng.randint(2, 5)
        edges = [(rng.randrange(n), rng.randrange(n), t) for t in range(1, rng.randint(2, 12))]
        edges = [e for e in edges if e[0] != e[1]]  # graphs hold no self-loops
        graphs.append(validate(f"l{i}", [rng.choice("ABC") for _ in range(n)], edges))
    return graphs


def shape(p):
    return p.labels, p.srcs, p.dsts, p.timestamps


def as_entries(table, graphs):
    """A reference table's Embeddings as (nodes, position of the last edge) entries."""
    by_id = {g.id: g for g in graphs}
    return {gid: tuple((m.nodes, by_id[gid].timestamps.index(m.times[-1])) for m in embs)
            for gid, embs in table.entries.items()}


def children(p, table, ref_table, graphs, cap=10_000):
    """p's children as [(child, expand's table, the reference's table)], in expand's order.

    ``table`` is p's table for expand, ``ref_table`` the reference's (None:
    recounted).  Both must give the same child patterns, the same entries
    in the same order and the same truncated graphs.
    """
    fast = expand(p, table, graphs, cap)
    ref = {child.key(): (child, t) for child, t in oracle_children(p, ref_table, graphs, cap).items()}
    assert {child.key() for child in fast} == set(ref)
    out = []
    for child, t in fast.items():
        ref_child, ref_t = ref[child.key()]
        assert shape(child) == shape(ref_child)
        assert t.entries == as_entries(ref_t, graphs)
        assert t.truncated == ref_t.truncated
        out.append((child, t, ref_t))
    return out


def seed(g, labels=("A", "B")):
    """(seed pattern with these labels, expand's table, the reference's table) in g."""
    for child, t, ref_t in children(empty_pattern(), empty_table([g]), None, [g]):
        if child.labels == labels:
            return child, t, ref_t
    raise AssertionError(f"no {labels} seed")


def grown_shapes(p, t, ref_t, g):
    return [shape(child) for child, _, _ in children(p, t, ref_t, [g])]


class TestEnumerateExtensions:
    """The children of hand-built graphs, by expand and by the reference."""

    def test_empty_pattern_seeds_are_distinct_label_pairs(self):
        g = validate("g", ["A", "B", "C", "A"], [(0, 1, 1), (1, 2, 2), (3, 1, 3)])
        kids = children(empty_pattern(), empty_table([g]), None, [g])
        assert [shape(child) for child, _, _ in kids] == [
            (("A", "B"), (0,), (1,), (1,)),
            (("B", "C"), (0,), (1,), (1,)),
        ]
        assert kids[0][1].entries == {"g": (((0, 1), 0), ((3, 1), 2))}

    def test_forward_extension_from_embedding(self):
        g = chain_graph()
        assert grown_shapes(*seed(g), g) == [(("A", "B", "C"), (0, 1), (1, 2), (1, 2))]

    def test_inward_extension_for_multi_edge(self):
        g = validate("g", ["A", "B"], [(0, 1, 1), (0, 1, 5)])
        (child, t, _), = children(*seed(g), [g])
        assert shape(child) == (("A", "B"), (0, 0), (1, 1), (1, 2))
        assert t.entries == {"g": (((0, 1), 1),)}

    def test_backward_extension(self):
        g = validate("g", ["A", "B", "C"], [(0, 1, 1), (2, 0, 2)])
        assert grown_shapes(*seed(g), g) == [(("A", "B", "C"), (0, 2), (1, 0), (1, 2))]

    def test_only_edges_after_cutoff_count(self):
        # The match uses the final edge, so nothing is left to grow with.
        g = validate("g", ["A", "B", "C"], [(1, 2, 1), (0, 1, 9)])
        p, t, ref_t = seed(g)
        assert t.entries == {"g": (((0, 1), 1),)}
        assert ref_t.entries["g"][0].max_data_time == 9
        assert grown_shapes(p, t, ref_t, g) == []


class TestGrow:
    """Grown patterns: timestamps 1..|E|, new nodes at the next free index."""

    def test_forward_timestamp_is_next(self):
        g = validate("g", ["A", "B", "C", "D"], [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        (abc, t, ref_t), = children(*seed(g), [g])
        assert grown_shapes(abc, t, ref_t, g) == [(("A", "B", "C", "D"), (0, 1, 2), (1, 2, 3), (1, 2, 3))]

    def test_backward_adds_new_source(self):
        g = validate("g", ["A", "B", "C", "D"], [(0, 1, 1), (2, 0, 2), (3, 2, 3)])
        (cab, t, ref_t), = children(*seed(g), [g])
        assert shape(cab) == (("A", "B", "C"), (0, 2), (1, 0), (1, 2))
        assert grown_shapes(cab, t, ref_t, g) == [(("A", "B", "C", "D"), (0, 2, 3), (1, 0, 2), (1, 2, 3))]

    def test_grown_patterns_stay_valid(self):
        rng = random.Random(3)
        g = random_graph(rng, max_nodes=6, max_edges=10)
        stack = list(expand(empty_pattern(), empty_table([g]), [g]).items())
        seen = 0
        while stack and seen < 200:
            p, table = stack.pop()
            seen += 1
            assert p.timestamps == tuple(range(1, p.n_edges + 1))
            assert is_t_connected(p)
            assert canonical_pattern(p.labels, zip(p.srcs, p.dsts, p.timestamps)).key() == p.key()
            if p.n_edges < 3:
                stack.extend(expand(p, table, [g]).items())


class TestExtendEmbeddings:
    """The reference's child tables."""

    def test_no_realizing_edge_gives_empty_table(self):
        # A graph with no edge realizing a child gets no entry for it, not an empty one.
        graphs = [chain_graph(), validate("ab", ["A", "B"], [(0, 1, 1)])]
        (ab, table), = ((p, t) for p, t in oracle_children(empty_pattern(), None, graphs).items()
                        if p.labels == ("A", "B"))
        assert set(table.entries) == {"chain", "ab"}
        (abc, child), = oracle_children(ab, table, graphs).items()
        assert shape(abc) == (("A", "B", "C"), (0, 1), (1, 2), (1, 2))
        assert set(child.entries) == {"chain"}

    def test_children_verify_against_grown_pattern(self):
        rng = random.Random(8)
        for _ in range(60):
            g = random_graph(rng, max_nodes=6, max_edges=10)
            kids = oracle_children(empty_pattern(), None, [g])
            for _ in range(3):
                if not kids:
                    break
                p, table = rng.choice(list(kids.items()))
                for emb in table.entries[g.id]:
                    assert verify_embedding(p, g, emb)
                kids = oracle_children(p, table, [g])

    def test_child_count_matches_oracle_recount(self):
        rng = random.Random(9)
        checked = 0
        while checked < 80:
            g = random_graph(rng, max_nodes=6, max_edges=10)
            p, table = empty_pattern(), None
            for _ in range(rng.randint(1, 3)):
                kids = oracle_children(p, table, [g])
                if not kids:
                    break
                p, table = rng.choice(list(kids.items()))
            else:
                assert table.entries[g.id] == oracle_embeddings(p, g)
                checked += 1

    def test_truncation_flag(self):
        g = validate("g", ["A", "B"], [(0, 1, 1), (0, 1, 2), (0, 1, 3)])
        (p, table), = oracle_children(empty_pattern(), None, [g], cap=2).items()
        assert len(table.entries["g"]) == 2
        assert "g" in table.truncated
        assert not table.exact
        # truncation is inherited by children
        (_, child), = oracle_children(p, table, [g], cap=100).items()
        assert "g" in child.truncated


def growth_step(parent, child):
    """The (kind, node indices, labels) of child's new edge, kind 0-3 for seed, forward, backward, inward."""
    s, d, n, labels = child.srcs[-1], child.dsts[-1], parent.n_nodes, child.labels
    if n == 0:
        return 0, -1, -1, labels[s], labels[d]
    if d == n:
        return 1, s, -1, "", labels[d]
    if s == n:
        return 2, -1, d, labels[s], ""
    return 3, s, d, "", ""


class TestExpand:
    def test_matches_per_extension_api(self):
        # expand agrees with the reference along random growth paths.
        rng = random.Random(17)
        for _ in range(40):
            graphs = [random_graph(rng, max_nodes=6, max_edges=10, graph_id=f"g{i}")
                      for i in range(rng.randint(1, 3))]
            p, table, ref_table = empty_pattern(), empty_table(graphs), None
            for _ in range(rng.randint(1, 3)):
                kids = children(p, table, ref_table, graphs)
                if not kids:
                    break
                p, table, ref_table = rng.choice(kids)

    def test_cap_matches_per_extension_api(self):
        g = validate("g", ["A", "B"], [(0, 1, 1), (0, 1, 2), (0, 1, 3), (0, 1, 4)])
        (p, table, ref_table), = children(empty_pattern(), empty_table([g]), None, [g], cap=2)
        assert table.entries == {"g": (((0, 1), 0), ((0, 1), 1))}
        assert table.truncated == frozenset({"g"})
        (_, child, _), = children(p, table, ref_table, [g], cap=2)
        assert child.truncated == frozenset({"g"})

    @pytest.mark.parametrize("cap", [1, 2, 10_000])
    def test_seed_tables_match_per_extension_api(self, cap):
        # Every pattern of up to three edges grown from the seeds: the same
        # children, entries in edge order, cap and truncation as the reference.
        rng = random.Random(40 + cap)
        truncated = 0
        for _ in range(60):
            graphs = dense_graphs(rng)
            stack = [(empty_pattern(), empty_table(graphs), None)]
            while stack:
                for child, table, ref_table in children(*stack.pop(), graphs, cap=cap):
                    truncated += bool(table.truncated)
                    if child.n_edges < 3:
                        stack.append((child, table, ref_table))
        assert truncated > 0 or cap == 10_000

    def test_children_come_out_in_dfs_order(self):
        # Seed, forward, backward, inward, then node indices, then labels:
        # the order decides the search's visits, stats and reports.
        rng = random.Random(5)
        mixed = 0
        for _ in range(40):
            graphs = dense_graphs(rng)
            stack = [(empty_pattern(), empty_table(graphs))]
            while stack:
                p, table = stack.pop()
                kids = expand(p, table, graphs)
                steps = [growth_step(p, child) for child in kids]
                assert steps == sorted(set(steps))
                mixed += len({step[0] for step in steps}) > 1
                stack.extend((child, t) for child, t in kids.items() if child.n_edges < 3)
        assert mixed > 0


def _dfs_all_patterns(graphs, max_edges):
    """DFS over the reference's children, recording every visited pattern key."""
    visited = {}

    def walk(p, table):
        key = p.key()
        visited[key] = visited.get(key, 0) + 1
        if p.n_edges >= max_edges:
            return
        for child, child_table in oracle_children(p, table, graphs).items():
            walk(child, child_table)

    for seedling, table in oracle_children(empty_pattern(), None, graphs).items():
        walk(seedling, table)
    return visited


class TestSearchCoversPatternSpaceOnce:
    def test_completeness_and_no_repetition(self):
        rng = random.Random(77)
        for instance in range(10):
            graphs = [
                random_graph(rng, max_nodes=5, max_edges=6, graph_id=f"g{instance}.{i}")
                for i in range(rng.randint(1, 3))
            ]
            visited = _dfs_all_patterns(graphs, max_edges=4)
            expected = oracle_enumerate_patterns(graphs, 4)
            expected_keys = {p.key() for p in expected.values()}
            assert set(visited) == expected_keys
            assert all(count == 1 for count in visited.values())

    def test_hand_counted_two_edge_space(self):
        g = chain_graph()
        visited = _dfs_all_patterns([g], max_edges=2)
        assert len(visited) == 3  # two single edges plus the chain
