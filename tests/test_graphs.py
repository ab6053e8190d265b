"""Core model: validation, T-connectivity, pattern equality, canonical form."""

import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpmine.graphs import (
    DanglingEndpoint,
    DuplicateTimestamp,
    Embedding,
    EmptyLabel,
    NotTConnected,
    SelfLoop,
    canonical_pattern,
    is_t_connected,
    validate,
    verify_embedding,
)
from tpmine.oracle import oracle_subgraph_test

from conftest import edge_columns, random_graph, random_pattern


def _renumbered(p, offset):
    """p rebuilt in canonical form from node ids shifted by ``offset``."""
    return canonical_pattern({i + offset: lab for i, lab in enumerate(p.labels)},
                             [(s + offset, d + offset, t) for s, d, t in zip(p.srcs, p.dsts, p.timestamps)])


def _identity(p):
    """The node and time correspondence between two equal canonical patterns."""
    return Embedding(tuple(range(p.n_nodes)), p.timestamps)


class TestValidate:
    def test_minimal_graph(self):
        g = validate("g", ["A", "B"], [(0, 1, 7)])
        assert g.n_nodes == 2 and g.n_edges == 1
        assert g.timestamps == (7,)

    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(DuplicateTimestamp):
            validate("g", ["A", "B"], [(0, 1, 3), (0, 1, 3)])

    def test_edges_sorted_by_timestamp(self):
        g = validate("g", ["A", "B", "C"], [(0, 1, 2), (1, 2, 1)])
        assert list(zip(g.srcs, g.dsts, g.timestamps)) == [(1, 2, 1), (0, 1, 2)]

    def test_dangling_endpoint(self):
        with pytest.raises(DanglingEndpoint):
            validate("g", ["A"], [(0, 1, 1)])

    def test_self_loop_rejected_by_default(self):
        with pytest.raises(SelfLoop):
            validate("g", ["A"], [(0, 0, 1)])

    def test_empty_label(self):
        with pytest.raises(EmptyLabel):
            validate("g", ["A", ""], [(0, 1, 1)])

    def test_timestamp_zero_accepted(self):
        g = validate("g", ["A", "B"], [(0, 1, 0)])
        assert g.timestamps == (0,)


def _oracle_t_connected(g) -> bool:
    """Rebuild every timestamp prefix and walk its components directly."""
    edges = sorted(zip(g.srcs, g.dsts, g.timestamps), key=lambda e: e[2])
    for k in range(1, len(edges) + 1):
        prefix = edges[:k]
        nodes = {v for src, dst, _ in prefix for v in (src, dst)}
        adj = {v: set() for v in nodes}
        for src, dst, _ in prefix:
            adj[src].add(dst)
            adj[dst].add(src)
        start = next(iter(nodes))
        seen, stack = {start}, [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != nodes:
            return False
    return True


class TestTConnected:
    def test_chain(self):
        g = validate("g", ["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        assert is_t_connected(g)

    def test_disconnected_second_edge(self):
        g = validate("g", ["A", "B", "C", "D"], [(0, 1, 1), (2, 3, 2)])
        assert not is_t_connected(g)

    def test_disconnected_prefix_below_five(self):
        # Edges with timestamps below 5 split into two components.
        g = validate(
            "g",
            ["A", "B", "C", "D", "E"],
            [(0, 1, 1), (1, 2, 2), (3, 4, 3), (3, 4, 4), (2, 3, 5)],
        )
        assert not is_t_connected(g)

    def test_empty_and_single_edge(self):
        assert is_t_connected(validate("g", [], []))
        assert is_t_connected(validate("g", ["A", "B"], [(0, 1, 5)]))

    def test_agrees_with_direct_oracle(self):
        rng = random.Random(123)
        checked = 0
        disagreements = 0
        for _ in range(1000):
            g = random_graph(rng, max_nodes=6, max_edges=8)
            checked += 1
            if is_t_connected(g) != _oracle_t_connected(g):
                disagreements += 1
        assert checked == 1000 and disagreements == 0


class TestPatternsEqual:
    """Canonical patterns are equal exactly when their keys are."""

    def test_reflexive_identity(self):
        p = canonical_pattern(["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        assert p.key() == _renumbered(p, 0).key()
        assert verify_embedding(p, p, _identity(p))

    def test_renaming_invariance(self):
        p1 = canonical_pattern(["A", "B"], [(0, 1, 1)])
        p2 = canonical_pattern({7: "A", 3: "B"}, [(7, 3, 1)])
        assert p1.key() == p2.key()

    def test_direction_mismatch(self):
        p1 = canonical_pattern(["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        p2 = canonical_pattern(["A", "B", "C"], [(0, 1, 1), (2, 1, 2)])
        assert p1.key() != p2.key()

    def test_label_mismatch(self):
        p1 = canonical_pattern(["A", "B"], [(0, 1, 1)])
        p2 = canonical_pattern(["A", "C"], [(0, 1, 1)])
        assert p1.key() != p2.key()

    def test_equivalence_relation_on_random_triples(self):
        rng = random.Random(5)
        for _ in range(300):
            p = random_pattern(rng, max_edges=5)
            q = _renumbered(p, 10)
            r = random_pattern(rng, max_edges=5)
            assert p.key() == q.key()
            assert (p.key() == r.key()) == (q.key() == r.key())

    def test_mapping_reconstructs_target(self):
        # Equal canonical patterns are identical, so node i corresponds to node i.
        rng = random.Random(6)
        for _ in range(200):
            p = random_pattern(rng, max_edges=5)
            q = _renumbered(p, 3)
            assert (q.labels, q.srcs, q.dsts, q.timestamps) == (p.labels, p.srcs, p.dsts, p.timestamps)
            assert verify_embedding(p, q, _identity(p))


class TestCanonicalPattern:
    def test_shift_down_to_one(self):
        p = canonical_pattern(["A", "B", "C"], [(0, 1, 4), (1, 2, 5), (2, 0, 6)])
        assert p.timestamps == (1, 2, 3)

    def test_single_edge(self):
        p = canonical_pattern(["A", "B"], [(0, 1, 99)])
        assert p.timestamps == (1,)

    def test_order_isomorphic_relabeling(self):
        p = canonical_pattern(["A", "B", "C"], [(0, 1, 2), (1, 2, 10), (2, 0, 11)])
        assert p.timestamps == (1, 2, 3)
        assert is_t_connected(p)

    def test_idempotent(self):
        rng = random.Random(9)
        for _ in range(200):
            p = random_pattern(rng, max_edges=6)
            again = canonical_pattern(p.labels, zip(p.srcs, p.dsts, p.timestamps))
            assert p.key() == again.key()
            assert verify_embedding(p, again, _identity(p))

    def test_strict_rejects_disconnected(self):
        with pytest.raises(NotTConnected):
            canonical_pattern(["A", "B", "C", "D"], [(0, 1, 1), (2, 3, 2)])

    def test_first_visit_compaction(self):
        p = canonical_pattern({5: "X", 9: "Y", 2: "Z"}, [(9, 5, 3), (5, 2, 8)])
        assert p.labels == ("Y", "X", "Z")
        assert list(zip(p.srcs, p.dsts)) == [(0, 1), (1, 2)]

    def test_duplicate_timestamps_rejected(self):
        with pytest.raises(DuplicateTimestamp):
            canonical_pattern(["A", "B"], [(0, 1, 1), (1, 0, 1)])

    @pytest.mark.parametrize("strict", [True, False])
    def test_self_loop_rejected(self, strict):
        with pytest.raises(SelfLoop, match="self-loop on node 1 at t=5"):
            canonical_pattern(["A", "B"], [(0, 1, 1), (1, 1, 5)], strict=strict)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50, deadline=None)
def test_pattern_key_identifies_equality(seed):
    # Two patterns are equal when they have the same size and one occurs in the other, which the
    # brute-force oracle decides; canonical keys must agree with it.
    rng = random.Random(seed)
    p = random_pattern(rng, max_edges=4)
    for q in (random_pattern(rng, max_edges=4), _renumbered(p, 5)):
        same_size = (p.n_nodes, p.n_edges) == (q.n_nodes, q.n_edges)
        assert (same_size and oracle_subgraph_test(p, q) is not None) == (p.key() == q.key())


def test_edge_indexes_hold_position_tuples():
    # Graphs never change, so each cached index is a few flat tuples of ints: CSR groups (edge
    # positions by node id, in time order, then the n + 1 offsets) or sorted codes key * m + pos.
    g = validate("g", ["A", "B", "A"], [(0, 1, 4), (1, 2, 2), (0, 1, 7), (2, 0, 9)])
    by_src, by_dst, by_pair = edge_columns(g)
    assert by_src == ((1, 2, 0, 3), (0, 2, 3, 4))  # {0: (1, 2), 1: (0,), 2: (3,)}
    assert by_dst == ((3, 1, 2, 0), (0, 1, 3, 4))  # {0: (3,), 1: (1, 2), 2: (0,)}
    # (src * 3 + dst) * 4 + pos: {(0, 1): (1, 2), (1, 2): (0,), (2, 0): (3,)}
    assert by_pair == (5, 6, 20, 27)
    ids, codes = g.label_pair_index()
    assert (ids, codes) == ({"A": 0, "B": 1}, (3, 5, 6, 8))  # (id(src label) * 2 + id(dst label)) * 4 + pos
    by_label = {pair: _positions(*g.label_pair_range(*pair))
                for pair in [("B", "A"), ("A", "B"), ("A", "A"), ("B", "B"), ("A", "Z")]}
    assert by_label == {("B", "A"): (0,), ("A", "B"): (1, 2), ("A", "A"): (3,),
                        ("B", "B"): (), ("A", "Z"): ()}
    assert _positions(*g.label_pair_range("A", "B", after=1)) == (2,)
    assert _positions(*g.edge_range(0, 1, after=1)) == (2,) and _positions(*g.edge_range(-1, 0)) == (3,)
    columns = [*by_src, *by_dst, by_pair, codes, *g.incident()]
    assert all(type(col) is tuple and all(type(v) is int for v in col) for col in columns)
    assert all(a is b for a, b in zip(columns, [*by_src, *by_dst, edge_columns(g)[2], g.label_pair_index()[1],
                                                *g.incident()]))


def test_edge_range_builds_only_the_column_it_reads():
    # Each edge-index column has its own cache key and is built on the first lookup that reads it.
    g = validate("g", ["A", "B", "A"], [(0, 1, 4), (1, 2, 2), (0, 1, 7), (2, 0, 9)])
    columns = {"src_positions", "src_offsets", "dst_positions", "dst_offsets", "by_pair"}

    def built():
        return columns & g._cache.keys()

    assert built() == set()
    assert _positions(*g.edge_range(0, -1)) == (1, 2)
    assert built() == {"src_positions", "src_offsets"}
    assert _positions(*g.edge_range(0, 1, after=1)) == (2,)
    assert built() == {"src_positions", "src_offsets", "by_pair"}
    assert _positions(*g.edge_range(-1, 0)) == (3,)
    assert built() == columns
    cached = {key: g._cache[key] for key in columns}
    edge_columns(g)
    assert all(g._cache[key] is col for key, col in cached.items())
    fresh = validate("g", g.labels, zip(g.srcs, g.dsts, g.timestamps))
    assert edge_columns(fresh) == edge_columns(g) and columns <= fresh._cache.keys()


def test_incident_index_lists_non_loop_edges_per_node():
    # Positions in time order per node id; every edge is listed under both of its endpoints.
    g = validate("g", ["A", "B", "A", "C"], [(0, 1, 4), (1, 2, 2), (0, 1, 7), (2, 1, 9), (2, 0, 12)])
    positions, offsets = g.incident()
    assert offsets == (0, 3, 7, 10, 10)
    assert [positions[lo:hi] for lo, hi in zip(offsets, offsets[1:])] == [(1, 2, 4), (0, 1, 2, 3), (0, 3, 4), ()]
    assert all(a is b for a, b in zip(g.incident(), (positions, offsets)))


def _positions(column, base, lo, hi):
    """The edge positions an ``edge_range`` or ``label_pair_range`` result stands for."""
    return tuple(c - base for c in column[lo:hi])


def _incident_lookup(g, v, after):
    """Positions past ``after`` of node v's incident group, read as ``expand`` reads them."""
    positions, offsets = g.incident()
    hi = offsets[v + 1]
    return positions[bisect_right(positions, after, offsets[v], hi):hi]


@pytest.mark.parametrize("seed", range(4))
def test_index_lookups_match_a_filter_over_all_edges(seed):
    # Every node, node pair and label pair, each past random positions, on dense random graphs
    # and on one without edges: the lookups give the filter's positions, in order.
    rng = random.Random(seed)
    graphs = [validate("empty", ["A", "B"], [])]
    for i in range(30):
        n = rng.randint(1, 7)
        edges = [(rng.randrange(n), rng.randrange(n), t) for t in rng.sample(range(60), rng.randint(1, 25))]
        edges = [e for e in edges if e[0] != e[1]]  # graphs hold no self-loops
        graphs.append(validate(f"g{i}", [rng.choice("ABC") for _ in range(n)], edges))
    checked = 0
    for g in graphs:
        m, n, srcs, dsts, labels = g.n_edges, g.n_nodes, g.srcs, g.dsts, g.labels
        for after in sorted({-1, m - 1, m} | {rng.randint(-1, m) for _ in range(3)}):
            def brute(keep):
                return tuple(p for p in range(after + 1, m) if keep(p))

            for v in range(n):
                assert _positions(*g.edge_range(v, -1, after)) == brute(lambda p: srcs[p] == v)
                assert _positions(*g.edge_range(-1, v, after)) == brute(lambda p: dsts[p] == v)
                assert _incident_lookup(g, v, after) == brute(lambda p: v in (srcs[p], dsts[p]))
                for w in range(n):
                    got = _positions(*g.edge_range(v, w, after))
                    assert got == brute(lambda p: (srcs[p], dsts[p]) == (v, w))
                    checked += 1
            for a in "ABCZ":
                for b in "ABCZ":
                    got = _positions(*g.label_pair_range(a, b, after))
                    assert got == brute(lambda p: (labels[srcs[p]], labels[dsts[p]]) == (a, b))
    assert checked > 1000
