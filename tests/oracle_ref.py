"""Brute-force references that only the test suite compares against.

Residual comparison by full re-enumeration (``oracle_residual_profile``,
``oracle_residual_equal``) and one-edge growth (``oracle_children``, which
rebuilds each child with ``canonical_pattern`` and groups ``Embedding``
objects by the child's key) as the reference for ``growth.expand``.  They
build on ``tpmine.oracle``'s exhaustive match enumeration and, of the search
modules, use only the ``EmbeddingTable`` container, so agreement with the
production paths is meaningful evidence of correctness.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Sequence

from tpmine.graphs import Embedding, TemporalGraph, TemporalPattern, canonical_pattern
from tpmine.growth import EmbeddingTable
from tpmine.oracle import OracleBudget, oracle_embeddings


def oracle_residual_profile(
    p: TemporalPattern,
    graphs: Sequence[TemporalGraph],
    budget: OracleBudget = OracleBudget(),
) -> dict[str, tuple[int, ...]]:
    """Per-graph sorted multiset of residual sizes, one entry per match."""
    out: dict[str, tuple[int, ...]] = {}
    for g in graphs:
        sizes = []
        for emb in oracle_embeddings(p, g, budget):
            sizes.append(g.n_edges - bisect_right(g.timestamps, emb.max_data_time))
        if sizes:
            out[g.id] = tuple(sorted(sizes))
    return out


def oracle_residual_equal(
    g1: TemporalPattern,
    g2: TemporalPattern,
    graphs: Sequence[TemporalGraph],
    budget: OracleBudget = OracleBudget(),
) -> bool:
    """Direct residual comparison: per-graph multisets of residual sizes must agree."""
    return oracle_residual_profile(g1, graphs, budget) == oracle_residual_profile(g2, graphs, budget)


def oracle_children(
    p: TemporalPattern,
    table: Optional[EmbeddingTable],
    graphs: Sequence[TemporalGraph],
    cap: int = 10_000,
    budget: OracleBudget = OracleBudget(),
) -> dict[TemporalPattern, EmbeddingTable]:
    """Every one-edge child of p with its matches, the reference for ``growth.expand``.

    ``table`` holds p's matches as lists of ``Embedding`` per graph (None:
    recount them with ``oracle_embeddings``).  Each match grows by every
    later non-loop data edge that touches its image (any edge for the empty
    pattern); the child is rebuilt by ``canonical_pattern`` from p's edges
    plus the mapped new edge, and the grown match is filed under the child's
    key.  Per child and graph the first ``cap`` matches are kept and the
    graph is flagged truncated; every child inherits p's truncated graphs.
    """
    found: dict[tuple, tuple[TemporalPattern, dict[TemporalGraph, list[Embedding]]]] = {}
    for g in graphs:
        matches = oracle_embeddings(p, g, budget) if table is None else table.entries.get(g, ())
        for emb in matches:
            image = set(emb.nodes)
            for pos in range(bisect_right(g.timestamps, emb.max_data_time), g.n_edges):
                src, dst = g.srcs[pos], g.dsts[pos]
                if src == dst or (image and src not in image and dst not in image):
                    continue
                nodes = emb.nodes + tuple(v for v in (src, dst) if v not in image)
                index = {dn: i for i, dn in enumerate(nodes)}
                edges = list(zip(p.srcs, p.dsts, p.timestamps)) + [(index[src], index[dst], p.n_edges + 1)]
                child = canonical_pattern([g.labels[v] for v in nodes], edges)
                _, per_graph = found.setdefault(child.key(), (child, {}))
                per_graph.setdefault(g, []).append(Embedding(nodes, emb.times + (g.timestamps[pos],)))
    out: dict[TemporalPattern, EmbeddingTable] = {}
    for child, per_graph in found.values():
        truncated = set(table.truncated) if table is not None else set()
        truncated.update(g for g, embs in per_graph.items() if len(embs) > cap)
        out[child] = EmbeddingTable({g: embs[:cap] for g, embs in per_graph.items()}, frozenset(truncated))
    return out
