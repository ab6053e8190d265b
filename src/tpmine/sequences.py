"""Temporal embedding search: every match of a pattern in a graph, or the first one.

One engine answers every embedding question the library asks.  Pattern edges
are bound in time order, each to a later data edge read from the tightest
per-graph edge index the node mapping so far allows (after Mackey et al.,
arXiv:1801.08098).  ``find_embeddings`` enumerates matches in chronological
order, ``first_extension`` extends a known match of a pattern's first edges
by one edge, and ``temporal_subgraph_test`` combines the two into the first
match that decides whether a pattern occurs in a graph.  Graphs and patterns
hold no self-loops (``validate`` and ``canonical_pattern`` refuse them), so an
edge's two endpoints always bind two distinct nodes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, Optional, Sequence

from .graphs import Embedding, TemporalGraph, TemporalPattern


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


def first_extension(p: TemporalPattern, g: TemporalGraph, prefix: Embedding) -> Optional[Embedding]:
    """Earliest match of p in g extending ``prefix``, a match of p without its last edge."""
    ps, pd = p.srcs[-1], p.dsts[-1]
    fwd = list(prefix.nodes) + [-1] * (p.n_nodes - len(prefix.nodes))
    after = bisect_right(g.timestamps, prefix.max_data_time) - 1
    for pos in _fitting_edges(g, p.labels, ps, pd, fwd, after, float("inf")):
        fwd[ps], fwd[pd] = g.srcs[pos], g.dsts[pos]
        return Embedding(tuple(fwd), prefix.times + (g.timestamps[pos],))
    return None


def temporal_subgraph_test(p: TemporalPattern, g: TemporalGraph,
                           prefix: Optional[Embedding] = None) -> Optional[Embedding]:
    """Chronologically first match of p in g (a witness that p is a temporal subgraph of g), or None.

    ``prefix`` is the first match in g of p minus its last edge; matches are ordered by edge
    positions and each match of p extends a match of its prefix, so the prefix's earliest
    extension, if any, is p's first match, and with no prefix edge there is nothing else to search.
    """
    if prefix is not None:
        found = first_extension(p, g, prefix)
        if found is not None or not prefix.times:
            return found
    found = find_embeddings(p, g, limit=1)
    return found[0] if found else None
