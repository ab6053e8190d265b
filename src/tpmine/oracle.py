"""Brute-force reference implementations for cross-checking the fast paths.

Everything here is deliberately simple and slow: exhaustive backtracking for
subgraph tests, edge-subset enumeration for pattern spaces, full
re-enumeration for residual comparisons, and per-extension growth
(``enumerate_extensions`` then ``extend_embeddings``, over tables of
``Embedding`` objects that start from ``root_table``) as the reference for
``growth.expand``.  These functions share no code with
the production search/matching paths so that agreement between the two is
meaningful evidence of correctness.  Budgets fail loudly instead of
degrading, so a passing test run implies full oracle coverage.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .graphs import Embedding, TemporalGraph, TemporalPattern
from .growth import EmbeddingTable, Extension


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class OracleBudget:
    max_nodes: int = 200
    max_edges: int = 64
    max_pattern_edges: int = 8
    max_labels: int = 64
    wall_seconds: float = 60.0

    def check_graph(self, g: TemporalGraph) -> None:
        if g.n_nodes > self.max_nodes or g.n_edges > self.max_edges:
            raise BudgetExceeded(f"graph {g.id} exceeds oracle budget ({g.n_nodes} nodes, {g.n_edges} edges)")
        if len(set(g.labels)) > self.max_labels:
            raise BudgetExceeded(f"graph {g.id} exceeds oracle label budget")

    def check_pattern(self, p: TemporalPattern) -> None:
        if p.n_edges > self.max_pattern_edges:
            raise BudgetExceeded(f"pattern with {p.n_edges} edges exceeds oracle budget")


class _Deadline:
    def __init__(self, seconds: float):
        self.expires = time.monotonic() + seconds

    def check(self) -> None:
        if time.monotonic() > self.expires:
            raise BudgetExceeded("oracle wall-time budget exhausted")


def _assignments(p: TemporalPattern, g: TemporalGraph, deadline: _Deadline):
    """Yield every (node map, data edge positions) realizing p inside g.

    Backtracks over pattern edges in timestamp order, assigning each to a
    strictly later data edge with matching endpoint labels and a consistent
    one-to-one node correspondence.
    """
    m = p.n_edges
    fwd: dict[int, int] = {}
    rev: dict[int, int] = {}
    chosen: list[int] = []

    def rec(k: int, min_pos: int):
        deadline.check()
        if k == m:
            yield dict(fwd), tuple(chosen)
            return
        ps, pd = p.srcs[k], p.dsts[k]
        for pos in range(min_pos, g.n_edges):
            gs, gd = g.srcs[pos], g.dsts[pos]
            if p.labels[ps] != g.labels[gs] or p.labels[pd] != g.labels[gd]:
                continue
            bound = []
            ok = True
            for u, v in ((ps, gs), (pd, gd)):
                got = fwd.get(u)
                if got is not None:
                    if got != v:
                        ok = False
                        break
                elif v in rev:
                    ok = False
                    break
                else:
                    fwd[u] = v
                    rev[v] = u
                    bound.append((u, v))
            if ok:
                chosen.append(pos)
                yield from rec(k + 1, pos + 1)
                chosen.pop()
            for u, v in bound:
                del fwd[u]
                del rev[v]

    yield from rec(0, 0)


def _to_embedding(p: TemporalPattern, g: TemporalGraph, fmap: dict[int, int], positions: tuple[int, ...]) -> Embedding:
    nodes = tuple(fmap[i] for i in range(p.n_nodes))
    times = tuple(g.timestamps[pos] for pos in positions)
    return Embedding(nodes, times)


def oracle_subgraph_test(
    p: TemporalPattern,
    g: TemporalGraph,
    budget: OracleBudget = OracleBudget(),
) -> Optional[Embedding]:
    """Exhaustive backtracking temporal subgraph test; first witness wins."""
    budget.check_pattern(p)
    budget.check_graph(g)
    deadline = _Deadline(budget.wall_seconds)
    if p.n_nodes == 0:
        return Embedding((), ())
    for fmap, positions in _assignments(p, g, deadline):
        return _to_embedding(p, g, fmap, positions)
    return None


def oracle_embeddings(
    p: TemporalPattern,
    g: TemporalGraph,
    budget: OracleBudget = OracleBudget(),
) -> list[Embedding]:
    """All distinct matches of p inside g, by exhaustive backtracking."""
    budget.check_pattern(p)
    budget.check_graph(g)
    deadline = _Deadline(budget.wall_seconds)
    if p.n_nodes == 0:
        return [Embedding((), ())]
    out = []
    seen = set()
    for fmap, positions in _assignments(p, g, deadline):
        emb = _to_embedding(p, g, fmap, positions)
        if emb not in seen:
            seen.add(emb)
            out.append(emb)
    return out


def _canonical_string(labels: Sequence[str], edges: list[tuple[int, int, int]]) -> str:
    """First-visit canonical rendering, independent of graphs.canonical_pattern."""
    order = sorted(edges, key=lambda e: e[2])
    remap: dict[int, int] = {}
    parts = []
    for src, dst, _ in order:
        for v in (src, dst):
            if v not in remap:
                remap[v] = len(remap)
        parts.append(f"{remap[src]}|{labels[src]}|{remap[dst]}|{labels[dst]}")
    return ";".join(parts)


def _prefixes_connected(edges: list[tuple[int, int, int]]) -> bool:
    """Direct prefix-connectivity check: rebuild each prefix and walk components."""
    order = sorted(edges, key=lambda e: e[2])
    for k in range(1, len(order) + 1):
        prefix = order[:k]
        nodes = set()
        adj: dict[int, set[int]] = {}
        for src, dst, _ in prefix:
            nodes.add(src)
            nodes.add(dst)
            adj.setdefault(src, set()).add(dst)
            adj.setdefault(dst, set()).add(src)
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adj.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != nodes:
            return False
    return True


def oracle_enumerate_patterns(
    graphs: Iterable[TemporalGraph],
    max_edges: int,
    budget: OracleBudget = OracleBudget(),
) -> dict[str, TemporalPattern]:
    """Every T-connected pattern with at least one match in any graph, up to max_edges.

    Enumerates all edge subsets of each graph, keeps the prefix-connected
    ones, and deduplicates by an independent canonical string.  Returns a
    mapping canonical string -> one representative pattern.
    """
    from .graphs import canonical_pattern  # structural constructor only

    deadline = _Deadline(budget.wall_seconds)
    found: dict[str, TemporalPattern] = {}
    for g in graphs:
        budget.check_graph(g)
        raw = list(zip(g.srcs, g.dsts, g.timestamps))
        for size in range(1, max_edges + 1):
            for subset in combinations(raw, size):
                deadline.check()
                subset = list(subset)
                if not _prefixes_connected(subset):
                    continue
                key = _canonical_string(g.labels, subset)
                if key not in found:
                    found[key] = canonical_pattern(
                        {i: g.labels[i] for i in {v for s, d, _ in subset for v in (s, d)}},
                        subset,
                        graph_id=key,
                    )
    return found


def oracle_frequency(
    p: TemporalPattern,
    graphs: Sequence[TemporalGraph],
    budget: OracleBudget = OracleBudget(),
) -> float:
    if not graphs:
        raise ValueError("frequency over an empty graph set")
    hits = sum(1 for g in graphs if oracle_subgraph_test(p, g, budget) is not None)
    return hits / len(graphs)


def oracle_best_score(
    positives: Sequence[TemporalGraph],
    negatives: Sequence[TemporalGraph],
    max_edges: int,
    score_fn,
    budget: OracleBudget = OracleBudget(),
) -> tuple[float, dict[str, TemporalPattern]]:
    """Exhaustive maximum discriminative score over patterns supported in the positives.

    Returns (best score, canonical string -> pattern for every maximizer).
    """
    universe = oracle_enumerate_patterns(positives, max_edges, budget)
    best = float("-inf")
    argmax: dict[str, TemporalPattern] = {}
    for key, p in universe.items():
        x = oracle_frequency(p, positives, budget)
        y = oracle_frequency(p, negatives, budget)
        s = score_fn.score(x, y)
        if s > best + 1e-12:
            best = s
            argmax = {key: p}
        elif abs(s - best) <= 1e-12:
            argmax[key] = p
    return best, argmax


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
            sizes.append(g.edges_after(emb.max_data_time))
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


def root_table(graphs: Sequence[TemporalGraph]) -> EmbeddingTable:
    """The empty pattern's table for the reference growth: one empty Embedding per graph."""
    return EmbeddingTable({g.id: [Embedding((), ())] for g in graphs})


def enumerate_extensions(
    p: TemporalPattern,
    table: EmbeddingTable,
    graphs: Sequence[TemporalGraph],
) -> list[Extension]:
    """All distinct growth steps realizable from the stored embeddings.

    For every embedding and every data edge strictly later than the
    embedding's last matched timestamp, the edge is classified by which of
    its endpoints the embedding already maps.  The empty pattern's
    extensions are the distinct (source label, destination label) seeds.
    """
    out: set[Extension] = set()
    for g in graphs:
        embs = table.entries.get(g.id)
        if not embs:
            continue
        ts = g.timestamps
        for emb in embs:
            inverse = {dn: i for i, dn in enumerate(emb.nodes)}
            for pos in range(bisect_right(ts, emb.max_data_time), g.n_edges):
                src, dst = g.srcs[pos], g.dsts[pos]
                if src == dst:
                    continue
                si = inverse.get(src)
                di = inverse.get(dst)
                if si is None and di is None:
                    if not emb.nodes:
                        out.add(Extension("seed", src_label=g.labels[src], dst_label=g.labels[dst]))
                elif si is not None and di is None:
                    out.add(Extension("forward", src=si, dst_label=g.labels[dst]))
                elif si is None and di is not None:
                    out.add(Extension("backward", dst=di, src_label=g.labels[src]))
                else:
                    out.add(Extension("inward", src=si, dst=di))
    return sorted(out, key=Extension.sort_key)


def extend_embeddings(
    table: EmbeddingTable,
    x: Extension,
    graphs: Sequence[TemporalGraph],
    cap: int = 10_000,
) -> EmbeddingTable:
    """Embedding table of the grown pattern, derived from the parent's table.

    Each parent embedding spawns one child per data edge that realizes the
    extension with a timestamp after the parent's last matched edge.  Lists
    stop growing at ``cap`` per graph and are flagged truncated (parent
    truncation is inherited).
    """
    entries: dict[str, list[Embedding]] = {}
    truncated = set(table.truncated)
    for g in graphs:
        parents = table.entries.get(g.id)
        if not parents:
            continue
        out: list[Embedding] = []
        ts = g.timestamps
        room = cap
        full = False
        for emb in parents:
            if full:
                break
            nodes = emb.nodes
            for pos in range(bisect_right(ts, emb.max_data_time), g.n_edges):
                src, dst, t = g.srcs[pos], g.dsts[pos], ts[pos]
                if src == dst:
                    continue
                if x.kind == "seed":
                    if g.labels[src] == x.src_label and g.labels[dst] == x.dst_label:
                        child = Embedding((src, dst), (t,))
                    else:
                        continue
                elif x.kind == "forward":
                    if src == nodes[x.src] and g.labels[dst] == x.dst_label and dst not in nodes:
                        child = Embedding(nodes + (dst,), emb.times + (t,))
                    else:
                        continue
                elif x.kind == "backward":
                    if dst == nodes[x.dst] and g.labels[src] == x.src_label and src not in nodes:
                        child = Embedding(nodes + (src,), emb.times + (t,))
                    else:
                        continue
                else:  # inward
                    if src == nodes[x.src] and dst == nodes[x.dst]:
                        child = Embedding(nodes, emb.times + (t,))
                    else:
                        continue
                if room <= 0:
                    truncated.add(g.id)
                    full = True
                    break
                out.append(child)
                room -= 1
        if out:
            entries[g.id] = out
    return EmbeddingTable(entries, frozenset(truncated))
