"""Consecutive pattern growth and incremental embedding maintenance.

A pattern grows by exactly one edge at a time, and the new edge always takes
pattern timestamp |E|+1, so there is at most one way to grow one pattern into
another and a depth-first search over grown patterns never revisits a
pattern.  Three growth shapes cover the whole T-connected pattern space:
forward (new destination node), backward (new source node), and inward (both
endpoints already present; this is what admits multi-edges).

Extensions are enumerated from the embeddings of the current pattern, so
every emitted extension is realizable and every grown pattern has support.
Self-loop data edges are never offered as extensions: patterns model
pairwise interactions and exclude self-loops.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import Embedding, TemporalGraph, TemporalPattern


class InvalidExtension(ValueError):
    pass


_KIND_ORDER = {"seed": 0, "forward": 1, "backward": 2, "inward": 3}
_KINDS = tuple(_KIND_ORDER)


@dataclass(frozen=True)
class Extension:
    """One abstract growth step, deduplicated across embeddings and graphs.

    seed:     src_label/dst_label set, both nodes new (empty pattern only)
    forward:  src = existing node index, dst_label = new node's label
    backward: src_label = new node's label, dst = existing node index
    inward:   src and dst both existing node indices
    """

    kind: str
    src: Optional[int] = None
    dst: Optional[int] = None
    src_label: Optional[str] = None
    dst_label: Optional[str] = None

    def sort_key(self) -> tuple:
        return (
            _KIND_ORDER[self.kind],
            self.src if self.src is not None else -1,
            self.dst if self.dst is not None else -1,
            self.src_label or "",
            self.dst_label or "",
        )


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


def grow(p: TemporalPattern, x: Extension) -> TemporalPattern:
    """p plus one edge at pattern timestamp |E|+1; T-connected by construction.

    New nodes take the next free index, which is exactly their first-visit
    position, so grown patterns stay in canonical form.
    """
    n = p.n_nodes
    t = p.n_edges + 1
    labels = list(p.labels)
    if x.kind == "seed":
        if p.n_edges != 0 or not x.src_label or not x.dst_label:
            raise InvalidExtension(f"seed extension not applicable: {x}")
        return TemporalPattern(p.id, (x.src_label, x.dst_label), (0,), (1,), (1,))
    if p.n_edges == 0:
        raise InvalidExtension("only seed extensions can grow the empty pattern")
    if x.kind == "forward":
        if x.src is None or not (0 <= x.src < n) or not x.dst_label:
            raise InvalidExtension(f"bad forward extension {x} for {n}-node pattern")
        labels.append(x.dst_label)
        src, dst = x.src, n
    elif x.kind == "backward":
        if x.dst is None or not (0 <= x.dst < n) or not x.src_label:
            raise InvalidExtension(f"bad backward extension {x} for {n}-node pattern")
        labels.append(x.src_label)
        src, dst = n, x.dst
    elif x.kind == "inward":
        if (
            x.src is None
            or x.dst is None
            or not (0 <= x.src < n)
            or not (0 <= x.dst < n)
            or x.src == x.dst
        ):
            raise InvalidExtension(f"bad inward extension {x} for {n}-node pattern")
        src, dst = x.src, x.dst
    else:
        raise InvalidExtension(f"unknown extension kind {x.kind!r}")
    return TemporalPattern(p.id, labels, p.srcs + (src,), p.dsts + (dst,), p.timestamps + (t,))


def _extension(key: tuple) -> Extension:
    """The Extension an expand bucket key stands for (-1 and "" mark unused fields)."""
    kind, *fields = key
    return Extension(_KINDS[kind], *(None if f == -1 or f == "" else f for f in fields))


def expand(
    table: EmbeddingTable,
    graphs: Sequence[TemporalGraph],
    cap: int = 10_000,
) -> dict[Extension, EmbeddingTable]:
    """All extensions and their child tables, from one pass over the embeddings.

    Each data edge after a match's last edge and touching its image, read
    from the graph's incident index, is classified once by which endpoints
    the match maps; the empty pattern's seeds are every non-loop edge.  One
    parent's children for one extension come from one index group in edge
    order, as a plain scan would give them; per graph and
    extension the first ``cap`` children are kept.  Buckets are plain
    tuples ordered like ``Extension.sort_key``; keys come back in that
    order, with one Extension built per distinct key.
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
                    if src != dst:
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
    result: dict[Extension, EmbeddingTable] = {}
    for key in sorted(entries):
        bad = truncated.get(key, set())
        if table.truncated:
            bad = bad | set(table.truncated)
        result[_extension(key)] = EmbeddingTable(entries[key], frozenset(bad))
    return result
