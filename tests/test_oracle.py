"""Sanity checks for the brute-force references themselves."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import tpmine.oracle
from tpmine.graphs import canonical_pattern, validate, verify_embedding
from tpmine.oracle import (
    BudgetExceeded,
    OracleBudget,
    oracle_best_score,
    oracle_embeddings,
    oracle_enumerate_patterns,
    oracle_frequency,
    oracle_subgraph_test,
)
from tpmine.scoring import LogRatio

import oracle_ref
import sequence_ref
from oracle_ref import oracle_residual_equal


def multi_edge_graph():
    """T-connected graph with a multi-edge whose last three edges form a chain."""
    return validate(
        "G1",
        ["A", "B", "C", "B"],
        [(0, 1, 1), (0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 0, 5), (0, 2, 6)],
    )


class TestOracleSubgraphTest:
    def test_match_of_trailing_edges(self):
        g1 = multi_edge_graph()
        # The pattern carried by the edges with timestamps 4, 5, 6.
        g2 = canonical_pattern(
            {2: "C", 3: "B", 0: "A"}, [(2, 3, 4), (3, 0, 5), (0, 2, 6)]
        )
        assert g2.timestamps == (1, 2, 3)
        emb = oracle_subgraph_test(g2, g1)
        assert emb is not None
        assert emb.times == (4, 5, 6)
        assert verify_embedding(g2, g1, emb)

    def test_reflexivity(self):
        p = canonical_pattern(["A", "B"], [(0, 1, 1)])
        assert oracle_subgraph_test(p, p) is not None

    def test_absent_label(self):
        p = canonical_pattern(["Z", "B"], [(0, 1, 1)])
        assert oracle_subgraph_test(p, multi_edge_graph()) is None

    def test_budget_enforced(self):
        p = canonical_pattern(["A"] * 10, [(i, i + 1, i + 1) for i in range(9)])
        with pytest.raises(BudgetExceeded):
            oracle_subgraph_test(p, multi_edge_graph(), OracleBudget(max_pattern_edges=4))


class TestOracleEnumeration:
    def test_hand_counted_two_edge_space(self):
        g = validate("g", ["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        found = oracle_enumerate_patterns([g], 2)
        assert len(found) == 3

    def test_max_edges_zero(self):
        g = validate("g", ["A", "B"], [(0, 1, 1)])
        assert oracle_enumerate_patterns([g], 0) == {}

    def test_duplicated_graph_same_set(self):
        g = validate("g", ["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        g2 = validate("g2", g.labels, zip(g.srcs, g.dsts, g.timestamps))
        single = set(oracle_enumerate_patterns([g], 2))
        double = set(oracle_enumerate_patterns([g, g2], 2))
        assert single == double

    def test_all_enumerated_patterns_occur(self):
        g = multi_edge_graph()
        for p in oracle_enumerate_patterns([g], 3).values():
            assert oracle_subgraph_test(p, g) is not None


class TestOracleScores:
    def test_chain_vs_edge(self):
        pos = [validate("p", ["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])]
        neg = [validate("n", ["A", "B"], [(0, 1, 1)])]
        best, argmax = oracle_best_score(pos, neg, 2, LogRatio())
        assert best == pytest.approx(LogRatio().score(1.0, 0.0))
        texts = {p.text() for p in argmax.values()}
        # every maximizer contains the B->C step that never occurs in the negatives
        assert all("B->" in t and ":C" in t for t in texts)

    def test_identical_sets_score_zero(self):
        g = validate("g", ["A", "B"], [(0, 1, 1)])
        best, _ = oracle_best_score([g], [g], 1, LogRatio())
        assert abs(best) < 1e-4

    def test_frequency(self):
        g1 = validate("a", ["A", "B"], [(0, 1, 1)])
        g2 = validate("b", ["X", "Y"], [(0, 1, 1)])
        p = canonical_pattern(["A", "B"], [(0, 1, 1)])
        assert oracle_frequency(p, [g1, g2]) == pytest.approx(0.5)


class TestOracleResiduals:
    def test_identical_patterns_equal(self):
        g = multi_edge_graph()
        p = canonical_pattern(["A", "B"], [(0, 1, 1)])
        assert oracle_residual_equal(p, p, [g])

    def test_extra_trailing_consumption_detected(self):
        g = validate("g", ["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        p1 = canonical_pattern(["A", "B"], [(0, 1, 1)])
        p2 = canonical_pattern(["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])
        assert not oracle_residual_equal(p1, p2, [g])

    def test_embeddings_deterministic(self):
        g = multi_edge_graph()
        p = canonical_pattern(["A", "B"], [(0, 1, 1)])
        assert oracle_embeddings(p, g) == oracle_embeddings(p, g)


SEARCH_MODULES = {"tpmine.growth", "tpmine.sequences", "tpmine.pruning", "tpmine.miner"}


def search_code_taken(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each name the file imports that a search module defines, wherever it
    is imported from (``tpmine`` re-exports search names)."""
    taken = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            taken |= {(a.name, "*") for a in node.names if a.name in SEARCH_MODULES}
        elif isinstance(node, ast.ImportFrom):
            source = ("tpmine" + (f".{node.module}" if node.module else "")) if node.level else node.module
            if source.split(".")[0] != "tpmine":
                continue
            for alias in node.names:
                obj = getattr(importlib.import_module(source), alias.name)
                home = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", source)
                if home in SEARCH_MODULES:
                    taken.add((home, alias.name))
    return taken


def test_oracle_shares_no_search_code():
    # Agreement with a reference only counts if it does not run the code it checks: the library's
    # oracle and the paper's sequence engine take nothing from the search modules, and the
    # test-only oracle references take the EmbeddingTable container and nothing else.
    assert search_code_taken(Path(tpmine.oracle.__file__)) == set()
    assert search_code_taken(Path(sequence_ref.__file__)) == set()
    assert search_code_taken(Path(oracle_ref.__file__)) <= {("tpmine.growth", "EmbeddingTable")}
