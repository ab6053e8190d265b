"""Pattern growth: extension enumeration, growing, and embedding maintenance."""

import random

import pytest

from tpmine.graphs import is_t_connected, validate, verify_embedding
from tpmine.growth import (
    Extension,
    InvalidExtension,
    empty_pattern,
    empty_table,
    expand,
    grow,
)
from tpmine.oracle import (
    enumerate_extensions,
    extend_embeddings,
    oracle_embeddings,
    oracle_enumerate_patterns,
    root_table,
)

from conftest import random_graph


def chain_graph():
    return validate("chain", ["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])


class TestEnumerateExtensions:
    def test_empty_pattern_seeds_are_distinct_label_pairs(self):
        g = chain_graph()
        exts = enumerate_extensions(empty_pattern(), root_table([g]), [g])
        assert exts == [
            Extension("seed", src_label="A", dst_label="B"),
            Extension("seed", src_label="B", dst_label="C"),
        ]

    def test_forward_extension_from_embedding(self):
        g = chain_graph()
        seed = Extension("seed", src_label="A", dst_label="B")
        p = grow(empty_pattern(), seed)
        table = extend_embeddings(root_table([g]), seed, [g])
        exts = enumerate_extensions(p, table, [g])
        assert exts == [Extension("forward", src=1, dst_label="C")]

    def test_inward_extension_for_multi_edge(self):
        g = validate("g", ["A", "B"], [(0, 1, 1), (0, 1, 5)])
        seed = Extension("seed", src_label="A", dst_label="B")
        p = grow(empty_pattern(), seed)
        table = extend_embeddings(root_table([g]), seed, [g])
        exts = enumerate_extensions(p, table, [g])
        assert Extension("inward", src=0, dst=1) in exts

    def test_backward_extension(self):
        g = validate("g", ["A", "B", "C"], [(0, 1, 1), (2, 0, 2)])
        seed = Extension("seed", src_label="A", dst_label="B")
        p = grow(empty_pattern(), seed)
        table = extend_embeddings(root_table([g]), seed, [g])
        exts = enumerate_extensions(p, table, [g])
        assert exts == [Extension("backward", dst=0, src_label="C")]

    def test_only_edges_after_cutoff_count(self):
        # The match uses the final edge, so nothing is left to extend with.
        g = validate("g", ["A", "B", "C"], [(1, 2, 1), (0, 1, 9)])
        seed = Extension("seed", src_label="A", dst_label="B")
        p = grow(empty_pattern(), seed)
        table = extend_embeddings(root_table([g]), seed, [g])
        assert table.entries["g"][0].max_data_time == 9
        assert enumerate_extensions(p, table, [g]) == []


class TestGrow:
    def test_seed(self):
        p = grow(empty_pattern(), Extension("seed", src_label="A", dst_label="B"))
        assert p.labels == ("A", "B")
        assert (p.srcs, p.dsts, p.timestamps) == ((0,), (1,), (1,))

    def test_forward_timestamp_is_next(self):
        p = grow(empty_pattern(), Extension("seed", src_label="A", dst_label="B"))
        q = grow(p, Extension("forward", src=1, dst_label="C"))
        assert list(zip(q.srcs, q.dsts, q.timestamps)) == [(0, 1, 1), (1, 2, 2)]
        assert q.labels == ("A", "B", "C")

    def test_backward_adds_new_source(self):
        p = grow(empty_pattern(), Extension("seed", src_label="A", dst_label="B"))
        q = grow(p, Extension("backward", dst=0, src_label="C"))
        assert list(zip(q.srcs, q.dsts, q.timestamps)) == [(0, 1, 1), (2, 0, 2)]
        assert q.labels == ("A", "B", "C")

    def test_grown_patterns_stay_valid(self):
        rng = random.Random(3)
        g = random_graph(rng, max_nodes=6, max_edges=10)
        frontier = [(grow(empty_pattern(), ext), ext) for ext in
                    enumerate_extensions(empty_pattern(), root_table([g]), [g])]
        table0 = root_table([g])
        stack = [(p, extend_embeddings(table0, ext, [g])) for p, ext in frontier]
        seen = 0
        while stack and seen < 200:
            p, table = stack.pop()
            seen += 1
            assert p.timestamps == tuple(range(1, p.n_edges + 1))
            assert is_t_connected(p)
            if p.n_edges >= 3:
                continue
            for ext in enumerate_extensions(p, table, [g]):
                stack.append((grow(p, ext), extend_embeddings(table, ext, [g])))

    def test_invalid_extensions_raise(self):
        p = grow(empty_pattern(), Extension("seed", src_label="A", dst_label="B"))
        with pytest.raises(InvalidExtension):
            grow(p, Extension("seed", src_label="A", dst_label="B"))
        with pytest.raises(InvalidExtension):
            grow(p, Extension("forward", src=5, dst_label="C"))
        with pytest.raises(InvalidExtension):
            grow(p, Extension("inward", src=0, dst=0))
        with pytest.raises(InvalidExtension):
            grow(empty_pattern(), Extension("forward", src=0, dst_label="C"))


class TestExtendEmbeddings:
    def test_no_realizing_edge_gives_empty_table(self):
        g = chain_graph()
        seed = Extension("seed", src_label="B", dst_label="C")
        p = grow(empty_pattern(), seed)
        table = extend_embeddings(root_table([g]), seed, [g])
        out = extend_embeddings(table, Extension("forward", src=1, dst_label="A"), [g])
        assert out.entries == {}

    def test_children_verify_against_grown_pattern(self):
        rng = random.Random(8)
        for _ in range(60):
            g = random_graph(rng, max_nodes=6, max_edges=10)
            table = root_table([g])
            p = empty_pattern()
            for _ in range(3):
                exts = enumerate_extensions(p, table, [g])
                if not exts:
                    break
                ext = exts[rng.randrange(len(exts))]
                p = grow(p, ext)
                table = extend_embeddings(table, ext, [g])
                for emb in table.entries[g.id]:
                    assert verify_embedding(p, g, emb)

    def test_child_count_matches_oracle_recount(self):
        rng = random.Random(9)
        checked = 0
        while checked < 80:
            g = random_graph(rng, max_nodes=6, max_edges=10)
            table = root_table([g])
            p = empty_pattern()
            depth = rng.randint(1, 3)
            ok = True
            for _ in range(depth):
                exts = enumerate_extensions(p, table, [g])
                if not exts:
                    ok = False
                    break
                ext = exts[rng.randrange(len(exts))]
                p = grow(p, ext)
                table = extend_embeddings(table, ext, [g])
            if not ok:
                continue
            assert set(table.entries[g.id]) == set(oracle_embeddings(p, g))
            checked += 1

    def test_truncation_flag(self):
        g = validate("g", ["A", "B"], [(0, 1, 1), (0, 1, 2), (0, 1, 3)])
        seed = Extension("seed", src_label="A", dst_label="B")
        table = extend_embeddings(root_table([g]), seed, [g], cap=2)
        assert len(table.entries["g"]) == 2
        assert "g" in table.truncated
        assert not table.exact
        # truncation is inherited by children
        child = extend_embeddings(table, Extension("inward", src=0, dst=1), [g], cap=100)
        assert "g" in child.truncated


class TestExpand:
    def test_matches_per_extension_api(self):
        # The fused single-pass expansion must agree exactly with running
        # enumerate_extensions followed by extend_embeddings per extension.
        rng = random.Random(17)
        for _ in range(40):
            graphs = [random_graph(rng, max_nodes=6, max_edges=10, graph_id=f"g{i}")
                      for i in range(rng.randint(1, 3))]
            table = empty_table(graphs)
            oracle_table = root_table(graphs)
            p = empty_pattern()
            for _ in range(rng.randint(1, 3)):
                fused = expand(table, graphs)
                listed = enumerate_extensions(p, oracle_table, graphs)
                assert list(fused) == listed
                for ext in listed:
                    split = extend_embeddings(oracle_table, ext, graphs)
                    assert fused[ext].entries == as_entries(split, graphs)
                    assert fused[ext].truncated == split.truncated
                if not listed:
                    break
                ext = listed[rng.randrange(len(listed))]
                p = grow(p, ext)
                table = fused[ext]
                oracle_table = extend_embeddings(oracle_table, ext, graphs)

    def test_cap_matches_per_extension_api(self):
        g = validate("g", ["A", "B"], [(0, 1, 1), (0, 1, 2), (0, 1, 3), (0, 1, 4)])
        table = empty_table([g])
        fused = expand(table, [g], cap=2)
        seed = Extension("seed", src_label="A", dst_label="B")
        split = extend_embeddings(root_table([g]), seed, [g], cap=2)
        assert fused[seed].entries == as_entries(split, [g])
        assert fused[seed].truncated == split.truncated == frozenset({"g"})

    @pytest.mark.parametrize("cap", [1, 2, 10_000])
    def test_seed_tables_match_per_extension_api(self, cap):
        # Seeds come from the label-pair index: same keys, entries in edge
        # order, cap and truncation as the per-extension reference, and no
        # self-loop edge ever seeds a pattern.
        rng = random.Random(40 + cap)
        loops = 0
        for _ in range(60):
            graphs = []
            for i in range(rng.randint(1, 3)):
                n = rng.randint(2, 5)
                edges = [(rng.randrange(n), rng.randrange(n), t) for t in range(1, rng.randint(2, 12))]
                loops += sum(s == d for s, d, _ in edges)
                graphs.append(validate(f"l{i}", [rng.choice("ABC") for _ in range(n)], edges,
                                       allow_self_loops=True))
            fused = expand(empty_table(graphs), graphs, cap=cap)
            oracle_table = root_table(graphs)
            listed = enumerate_extensions(empty_pattern(), oracle_table, graphs)
            assert list(fused) == listed
            for ext in listed:
                split = extend_embeddings(oracle_table, ext, graphs, cap=cap)
                assert fused[ext].entries == as_entries(split, graphs)
                assert fused[ext].truncated == split.truncated
        assert loops > 0


def as_entries(table, graphs):
    """An oracle table's Embeddings as (nodes, position of the last edge) entries."""
    by_id = {g.id: g for g in graphs}
    return {gid: tuple((m.nodes, by_id[gid].timestamps.index(m.times[-1])) for m in embs)
            for gid, embs in table.entries.items()}


def _dfs_all_patterns(graphs, max_edges):
    """DFS over seeds and extensions, recording every visited pattern key."""
    visited = {}
    root = empty_pattern()
    table0 = root_table(graphs)

    def walk(p, table):
        key = p.key()
        visited[key] = visited.get(key, 0) + 1
        if p.n_edges >= max_edges:
            return
        for ext in enumerate_extensions(p, table, graphs):
            walk(grow(p, ext), extend_embeddings(table, ext, graphs))

    for ext in enumerate_extensions(root, table0, graphs):
        walk(grow(root, ext), extend_embeddings(table0, ext, graphs))
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
