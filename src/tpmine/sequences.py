"""Temporal embedding search: every match of a pattern in a graph, or the first one.

One engine answers every embedding question the library asks.  Pattern edges
are bound in time order, each to a later data edge read from the tightest
per-graph edge index the node mapping so far allows (after Mackey et al.,
arXiv:1801.08098).  ``find_embeddings`` enumerates matches in chronological
order, and ``temporal_subgraph_test`` returns the first one, the witness that
a pattern occurs in a graph.  ``first_matches`` answers that question for a
grown pattern in a batch of graphs at once: it extends the first match of the
pattern's parent in each graph by the new edge, with one index lookup or one
index-group walk, carrying matches as growth table entries ``(nodes, last)``,
and searches afresh only where that match does not extend.  Graphs and patterns
hold no self-loops (``validate`` and ``canonical_pattern`` refuse them), so an
edge's two endpoints always bind two distinct nodes.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .graphs import Embedding, TemporalGraph, TemporalPattern
from .growth import Entry, table_entries


def _fitting_edges(g: TemporalGraph, plabels: Sequence[str], ps: int, pd: int, fwd: list[int],
                   after: int, horizon: float) -> Iterator[int]:
    """Time-ordered positions past ``after``, up to time ``horizon``, of the data edges that
    can take pattern edge ps -> pd under the node map ``fwd`` (-1: unmapped).
    """
    ds, dd = fwd[ps], fwd[pd]
    if ds >= 0 or dd >= 0:
        cands, base, lo, hi = g.edge_range(ds, dd, after)
    else:
        cands, base, lo, hi = g.label_pair_range(plabels[ps], plabels[pd], after)
    srcs, dsts, times, glabels = g.srcs, g.dsts, g.timestamps, g.labels
    for i in range(lo, hi):
        pos = cands[i] - base
        if times[pos] > horizon:
            return
        src, dst = srcs[pos], dsts[pos]
        if ds < 0 and (src in fwd or glabels[src] != plabels[ps]):
            continue
        if dd < 0 and (dst in fwd or glabels[dst] != plabels[pd]):
            continue
        yield pos


def find_embeddings(
    p: TemporalPattern,
    g: TemporalGraph,
    limit: Optional[int] = None,
    window: Optional[int] = None,
) -> list[Embedding]:
    """All matches of p inside g (up to limit), by indexed chronological search.

    Pattern edges are bound in time order, each to a later data edge taken
    from the tightest index the node mapping so far allows (the node pair,
    one mapped endpoint, or the label pair), starting past the previous
    edge by bisection.  ``window``, a positive number of ticks or None (no
    bound), bounds a match's duration, last minus first edge time.  Matches
    come out in chronological order of their edge positions (by first edge,
    then second, ...), and ``limit`` keeps the first ``limit`` of them.
    """
    if window is not None and window < 1:
        raise ValueError(f"window must be positive, got {window}")
    if limit is not None and limit < 1:
        return []
    if p.n_nodes == 0:
        return [Embedding((), ())]
    plabels = p.labels
    pedges = list(zip(p.srcs, p.dsts))
    if p.n_edges > g.n_edges or p.n_nodes > g.n_nodes:
        return []
    if any(lo == hi for _, _, lo, hi in (g.label_pair_range(plabels[s], plabels[d]) for s, d in pedges)):
        return []
    m = len(pedges)
    srcs, dsts, times = g.srcs, g.dsts, g.timestamps
    fwd = [-1] * p.n_nodes  # data node per pattern node, -1 while unmapped
    chosen = [0] * m  # data time per pattern edge
    out: list[Embedding] = []

    def rec(k: int, after: int, horizon: float) -> bool:
        ps, pd = pedges[k]
        unbound = fwd[ps], fwd[pd]
        for pos in _fitting_edges(g, plabels, ps, pd, fwd, after, horizon):
            fwd[ps], fwd[pd] = srcs[pos], dsts[pos]
            t = chosen[k] = times[pos]
            if k + 1 == m:
                out.append(Embedding(tuple(fwd), tuple(chosen)))
                stop = limit is not None and len(out) >= limit
            else:
                stop = rec(k + 1, pos, t + window if k == 0 and window else horizon)
            fwd[ps], fwd[pd] = unbound
            if stop:
                return True
        return False

    rec(0, -1, float("inf"))
    del rec  # rec refers to itself through its closure cell; this frees both without the collector
    return out


def first_matches(p: TemporalPattern,
                  carried: Sequence[tuple[TemporalGraph, Entry]]) -> list[tuple[TemporalGraph, Entry]]:
    """``(g, first match of p in g)`` for each graph of ``carried`` that holds p, in its order.

    ``carried`` pairs each graph holding p's parent (p without its last edge, as ``expand``
    grows it) with the parent's first match there, as a growth table entry ``(nodes, last)``;
    a one-edge p's parent is the empty pattern, matched by ``((), -1)``.  Matches are ordered
    by edge positions and each match of p extends one of its parent, so the parent's earliest
    extension, if any, is p's first match.  The last edge's shape is read once: a seed takes
    the first edge of its label pair past ``last``, an inward edge the first edge between the
    two mapped nodes, and a forward or backward edge the first edge at the mapped node whose
    other end has the new node's label and is unmapped.  When the parent's first match does
    not extend, a full search decides; for a seed there is nothing else to search.
    """
    out = []
    append = out.append
    ps, pd = p.srcs[-1], p.dsts[-1]
    if p.n_edges == 1:  # the parent is the empty pattern, matched before every edge
        ls, ld = p.labels
        for g, (_, last) in carried:
            codes, base, lo, hi = g.label_pair_range(ls, ld, last)
            if lo < hi:
                pos = codes[lo] - base
                append((g, ((g.srcs[pos], g.dsts[pos]), pos)))
        return out
    n = p.n_nodes
    if max(max(p.srcs[:-1]), max(p.dsts[:-1])) + 1 == n:  # inward: both endpoints already mapped
        for g, (nodes, last) in carried:
            cands, base, lo, hi = g.edge_range(nodes[ps], nodes[pd], last)
            if lo < hi:
                append((g, (nodes, cands[lo] - base)))
            elif found := table_entries(g, find_embeddings(p, g, limit=1)):
                append((g, found[0]))
        return out
    forward = pd == n - 1
    known, label = (ps, p.labels[pd]) if forward else (pd, p.labels[ps])
    for g, (nodes, last) in carried:
        if forward:
            positions, _, lo, hi = g.edge_range(nodes[known], -1, last)
            ends = g.dsts
        else:
            positions, _, lo, hi = g.edge_range(-1, nodes[known], last)
            ends = g.srcs
        glabels = g.labels
        for i in range(lo, hi):
            pos = positions[i]
            v = ends[pos]
            if glabels[v] == label and v not in nodes:
                append((g, (nodes + (v,), pos)))
                break
        else:
            if found := table_entries(g, find_embeddings(p, g, limit=1)):
                append((g, found[0]))
    return out


def temporal_subgraph_test(p: TemporalPattern, g: TemporalGraph) -> Optional[Embedding]:
    """Chronologically first match of p in g (a witness that p is a temporal subgraph of g), or None."""
    found = find_embeddings(p, g, limit=1)
    return found[0] if found else None
