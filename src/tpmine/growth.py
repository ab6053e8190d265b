"""Consecutive pattern growth and incremental embedding maintenance.

A pattern grows by exactly one edge at a time, and the new edge always takes
pattern timestamp |E|+1, so there is at most one way to grow one pattern into
another and a depth-first search over grown patterns never revisits a
pattern.  Three growth shapes cover the whole T-connected pattern space:
forward (new destination node), backward (new source node), and inward (both
endpoints already present; this is what admits multi-edges).

Children are read off the embeddings of the current pattern, so every
child is realizable and has support.  Data graphs hold no self-loops (see
``graphs.validate``), so no grown pattern has one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Embedding, TemporalGraph, TemporalPattern


# One match: (data node per pattern node, edge position in g of the match's last edge).
Entry = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class EmbeddingTable:
    """All known matches of one pattern, per data graph.

    ``entries[graph_id]`` is a tuple of ``(nodes, last)`` pairs: ``nodes[i]``
    is the data node pattern node i maps to, and ``last`` is the position in
    the graph's edge list of the match's last edge (-1 for the empty
    pattern), so the match can only grow with edges after it.  Graphs in
    ``truncated`` hit the per-graph cap, so their tuples (and anything
    derived from them other than plain existence) are incomplete.
    """

    entries: dict[str, tuple[Entry, ...]]
    truncated: frozenset[str] = frozenset()

    @property
    def exact(self) -> bool:
        return not self.truncated

    def total_embeddings(self) -> int:
        return sum(len(v) for v in self.entries.values())


def empty_pattern() -> TemporalPattern:
    return TemporalPattern("empty", (), (), (), ())


def empty_table(graphs: Sequence[TemporalGraph]) -> EmbeddingTable:
    """The empty pattern matches every graph once, before all of its edges."""
    return EmbeddingTable({g.id: (((), -1),) for g in graphs})


def table_entries(g: TemporalGraph, matches: Iterable[Embedding]) -> tuple[Entry, ...]:
    """The ``(nodes, last)`` table entries of matches found in g (by ``find_embeddings``)."""
    ts = g.timestamps
    return tuple((m.nodes, bisect_left(ts, m.times[-1]) if m.times else -1) for m in matches)


def expand(
    pattern: TemporalPattern,
    table: EmbeddingTable,
    graphs: Sequence[TemporalGraph],
    cap: int = 10_000,
) -> dict[TemporalPattern, EmbeddingTable]:
    """Every child of ``pattern`` (``table`` holds its matches) with the child's table.

    Each data edge after a match's last edge and touching its image, read
    from the graph's incident index, is classified once by which endpoints
    the match maps; the empty pattern's seeds are every edge.  One
    parent's children for one growth step come from one index group in edge
    order, as a plain scan would give them; per graph and step the first
    ``cap`` children are kept.  A step is bucketed under the tuple
    ``(kind, src, dst, src_label, dst_label)``, with kind 0-3 for seed,
    forward, backward and inward and -1 or "" in the fields the kind leaves
    unused.  Children come back in key order, which fixes the search's DFS
    order: the new edge takes timestamp |E|+1 and a new node the next free
    index, its first-visit position, so every child is in canonical form.
    """
    entries: dict[tuple, dict[str, tuple[Entry, ...]]] = {}
    truncated: dict[tuple, set[str]] = {}
    for g in graphs:
        parents = table.entries.get(g.id)
        if not parents:
            continue
        labels, srcs, dsts = g.labels, g.srcs, g.dsts
        incident, offsets = g.incident()
        kids: dict[tuple, list[Entry]] = {}
        for nodes, last in parents:
            start = last + 1
            if not nodes:
                for pos in range(start, len(srcs)):
                    src, dst = srcs[pos], dsts[pos]
                    kids.setdefault((0, -1, -1, labels[src], labels[dst]), []).append(((src, dst), pos))
                continue
            inverse = {dn: i for i, dn in enumerate(nodes)}
            for i, v in enumerate(nodes):
                hi = offsets[v + 1]
                if hi == offsets[v] or incident[hi - 1] < start:
                    continue
                for j in range(bisect_left(incident, start, offsets[v], hi), hi):
                    pos = incident[j]
                    if srcs[pos] == v:
                        dst = dsts[pos]
                        di = inverse.get(dst)
                        if di is None:
                            key, child = (1, i, -1, "", labels[dst]), (nodes + (dst,), pos)
                        else:
                            key, child = (3, i, di, "", ""), (nodes, pos)
                    else:
                        src = srcs[pos]
                        if src in inverse:
                            continue  # an inward edge, taken from its source's side
                        key, child = (2, -1, i, labels[src], ""), (nodes + (src,), pos)
                    out = kids.get(key)
                    if out is None:
                        kids[key] = [child]
                    else:
                        out.append(child)
        for key, out in kids.items():
            if len(out) > cap:
                truncated.setdefault(key, set()).add(g.id)
                del out[cap:]
            entries.setdefault(key, {})[g.id] = tuple(out)
    n, t = pattern.n_nodes, pattern.n_edges + 1
    result: dict[TemporalPattern, EmbeddingTable] = {}
    for key in sorted(entries):
        kind, src, dst, src_label, dst_label = key
        labels = pattern.labels
        if kind == 0:
            labels, src, dst = (src_label, dst_label), 0, 1
        elif kind == 1:
            labels, dst = labels + (dst_label,), n
        elif kind == 2:
            labels, src = labels + (src_label,), n
        child = TemporalPattern(pattern.id, labels, pattern.srcs + (src,), pattern.dsts + (dst,),
                                pattern.timestamps + (t,))
        bad = truncated.get(key, set())
        if table.truncated:
            bad = bad | set(table.truncated)
        result[child] = EmbeddingTable(entries[key], frozenset(bad))
    return result
