"""Core temporal graph model.

A temporal graph is a labeled directed multigraph whose edges join two
distinct nodes (no self-loops) and carry distinct, totally ordered integer
timestamps.  A temporal pattern is a
temporal graph whose timestamps are exactly 1..|E|; patterns are the unit
of search in the miner.  An embedding is one concrete match of a pattern
inside a data graph: an injective node map plus an order-preserving
timestamp map.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from operator import eq, lt
from typing import Iterable, Mapping, Sequence

MAX_TIMESTAMP = 2**63 - 1


class GraphError(ValueError):
    """Base class for temporal graph validation failures."""


class DuplicateTimestamp(GraphError):
    pass


class TieRejected(DuplicateTimestamp):
    """Events share a timestamp under the ``reject`` tie policy."""


class DanglingEndpoint(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class EmptyLabel(GraphError):
    pass


class NotTConnected(GraphError):
    pass


def _groups(col: Sequence[int], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """CSR groups of a column of node ids: its indices grouped by node id, in order within a group
    (the sort is stable), and the n + 1 offsets where the groups of nodes 0..n-1 start and end."""
    counts = Counter(col)
    return (tuple(sorted(range(len(col)), key=col.__getitem__)),
            tuple(accumulate(map(counts.__getitem__, range(n)), initial=0)))


def _code_range(codes: tuple[int, ...], key: int, m: int, after: int) -> tuple[tuple, int, int, int]:
    """(codes, base, lo, hi): codes[lo:hi] are the sorted packed codes ``key * m + pos`` with
    pos past ``after``, and ``code - base`` is the edge position of each."""
    base = key * m
    lo = bisect_right(codes, base + after)
    return codes, base, lo, bisect_left(codes, base + m, lo)


class TemporalGraph:
    """Labeled directed temporal multigraph.

    Nodes are dense integer indices 0..n-1; ``labels[i]`` is the label of node
    i.  Edge k runs from ``srcs[k]`` to ``dsts[k]`` at ``timestamps[k]``, in strictly
    increasing time and never from a node to itself: tuples of ints, which the garbage
    collector does not track.
    Instances are immutable and safe to share between threads.  Derived structures are built
    lazily and cached, each index column under its own key as its own flat tuple of ints: the
    cyclic collector untracks a tuple only once its items are untracked, so one collection
    untracks flat columns but not tuples of them.
    """

    __slots__ = ("id", "labels", "srcs", "dsts", "timestamps", "_cache")

    def __init__(self, graph_id: str, labels: Sequence[str], srcs: tuple, dsts: tuple, timestamps: tuple):
        """Unchecked: the columns must already be in strictly increasing time order, with no
        self-loops (see ``validate``)."""
        self.id, self.labels, self._cache = graph_id, tuple(map(sys.intern, labels)), {}
        self.srcs, self.dsts, self.timestamps = srcs, dsts, timestamps

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.srcs)

    def edge_range(self, src: int, dst: int, after: int = -1) -> tuple[tuple, int, int, int]:
        """(column, base, lo, hi): ``column[i] - base`` for i in [lo, hi) are the time-ordered
        positions past ``after`` of the edges from ``src`` to ``dst``, one of which may be -1
        (any node), read from the tightest column: CSR groups (see ``_groups``) by source or by
        destination, or the sorted codes ``(src * n_nodes + dst) * n_edges + pos``.  Only that
        column is built, on the first lookup that needs it."""
        c = self._cache
        if src < 0:
            if "dst_offsets" not in c:
                c["dst_positions"], c["dst_offsets"] = _groups(self.dsts, len(self.labels))
            positions, offsets, v = c["dst_positions"], c["dst_offsets"], dst
        elif dst < 0:
            if "src_offsets" not in c:
                c["src_positions"], c["src_offsets"] = _groups(self.srcs, len(self.labels))
            positions, offsets, v = c["src_positions"], c["src_offsets"], src
        else:
            codes, m, n = c.get("by_pair"), len(self.srcs), len(self.labels)
            if codes is None:
                codes = c["by_pair"] = tuple(sorted(
                    [(s * n + d) * m + p for p, (s, d) in enumerate(zip(self.srcs, self.dsts))]))
            return _code_range(codes, src * n + dst, m, after)
        hi = offsets[v + 1]
        return positions, 0, bisect_right(positions, after, offsets[v], hi), hi

    def incident(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per node id, the positions of its edges in time order, as CSR groups (cached flat)."""
        c = self._cache
        if "incident_positions" not in c:
            ends = tuple(chain.from_iterable(zip(self.srcs, self.dsts)))  # edge p's endpoints at 2p, 2p + 1
            order, c["incident_offsets"] = _groups(ends, len(self.labels))
            c["incident_positions"] = tuple([i >> 1 for i in order])
        return c["incident_positions"], c["incident_offsets"]

    def last_label_positions(self) -> dict[str, int]:
        """Per node label, the last edge position with an endpoint of that label (cached)."""
        last = self._cache.get("last_label_positions")
        if last is None:
            last = {}
            for pos, (src, dst) in enumerate(zip(self.srcs, self.dsts)):
                last[self.labels[src]] = pos
                last[self.labels[dst]] = pos
            self._cache["last_label_positions"] = last
        return last

    def label_pair_index(self) -> tuple[dict[str, int], tuple[int, ...]]:
        """Per-graph label ids, and the sorted codes ``(id(src label) * n_ids + id(dst label)) *
        n_edges + pos`` grouping edge positions in time order by label pair (cached flat)."""
        c = self._cache
        if "label_pairs" not in c:
            ids: dict[str, int] = {}
            lid = [ids.setdefault(lab, len(ids)) for lab in self.labels]
            k, m = len(ids), len(self.srcs)
            c["label_ids"], c["label_pairs"] = ids, tuple(sorted(
                [(lid[s] * k + lid[d]) * m + p for p, (s, d) in enumerate(zip(self.srcs, self.dsts))]))
        return c["label_ids"], c["label_pairs"]

    def label_pair_range(self, src_label: str, dst_label: str,
                         after: int = -1) -> tuple[tuple, int, int, int]:
        """(column, base, lo, hi) as in ``edge_range``, for the edges with this label pair."""
        ids, codes = self.label_pair_index()
        if src_label not in ids or dst_label not in ids:
            return codes, 0, 0, 0
        return _code_range(codes, ids[src_label] * len(ids) + ids[dst_label], len(self.srcs), after)

    def label_multiset(self) -> tuple[str, ...]:
        key = self._cache.get("label_multiset")
        if key is None:
            key = tuple(sorted(self.labels))
            self._cache["label_multiset"] = key
        return key

    def __repr__(self):
        return f"TemporalGraph({self.id!r}, {self.n_nodes} nodes, {self.n_edges} edges)"


class TemporalPattern(TemporalGraph):
    """Temporal graph whose timestamps are exactly 1..|E| and which is T-connected.

    Patterns produced by :func:`canonical_pattern` and by pattern growth are
    in canonical form: node indices follow first-visit order under the edge
    timestamp traversal, so two equivalent patterns are structurally
    identical and :meth:`key` can be used for hashing and deduplication.
    """

    def key(self) -> tuple:
        k = self._cache.get("key")
        if k is None:
            k = (self.labels, tuple(zip(self.srcs, self.dsts)))
            self._cache["key"] = k
        return k

    def text(self) -> str:
        """Canonical one-line rendering, usable as a deterministic sort key."""
        labels = self.labels
        return ";".join(f"{s}:{labels[s]}->{d}:{labels[d]}@{t}"
                        for s, d, t in zip(self.srcs, self.dsts, self.timestamps))

    def __repr__(self):
        return f"TemporalPattern({self.text()!r})"


@dataclass(frozen=True)
class Embedding:
    """One match of a pattern inside a data graph.

    ``nodes[i]`` is the data node that pattern node i maps to (injective);
    ``times[k-1]`` is the data timestamp that pattern timestamp k maps to
    (strictly increasing).
    """

    nodes: tuple[int, ...]
    times: tuple[int, ...]

    @property
    def max_data_time(self) -> int:
        # Sentinel -1 sorts before any valid timestamp (timestamps are >= 0),
        # so the empty pattern's residual is the whole graph.
        return self.times[-1] if self.times else -1


def ordered_columns(srcs: Sequence[int], dsts: Sequence[int], timestamps: Sequence[int],
                    tie_policy: str = "reject") -> tuple[tuple, tuple, tuple]:
    """Edge columns as tuples in time order, sorted (stably) only when not strictly increasing.

    ``reject`` raises TieRejected on the first shared timestamp; ``inputOrder``
    keeps tied events in input order and bumps timestamps minimally upward from 0.
    """
    if tie_policy not in ("reject", "inputOrder"):
        raise ValueError(f"unknown tie policy {tie_policy!r}")
    ts = timestamps
    if not all(map(lt, ts, islice(ts, 1, None))):
        order = sorted(range(len(ts)), key=ts.__getitem__)
        srcs, dsts, ts = ([col[i] for i in order] for col in (srcs, dsts, ts))
        if tie_policy == "reject" and not all(map(lt, ts, islice(ts, 1, None))):
            t = next(a for a, b in zip(ts, islice(ts, 1, None)) if a == b)
            raise TieRejected(f"events share timestamp {t} under the reject policy")
    if tie_policy == "inputOrder":
        ts = list(accumulate(ts, lambda prev, t: max(t, prev + 1), initial=-1))[1:]
    return tuple(srcs), tuple(dsts), tuple(ts)


def validate_columns(graph_id: str, labels: Sequence[str], srcs: Sequence[int], dsts: Sequence[int],
                     timestamps: Sequence[int], tie_policy: str = "reject") -> TemporalGraph:
    """A validated TemporalGraph from node labels and edge columns in any time order.

    Timestamps are range-checked as given, before ties are sequenced; the rest is checked
    with builtins after :func:`ordered_columns`, and a per-edge loop runs only to name the
    first offending edge.  Raises GraphError, TieRejected, EmptyLabel, DanglingEndpoint or
    SelfLoop."""
    low, high = (min(timestamps), max(timestamps)) if timestamps else (0, 0)
    if low < 0 or high > MAX_TIMESTAMP:
        raise GraphError(f"graph {graph_id}: timestamp {low if low < 0 else high} outside the supported range")
    srcs, dsts, ts = ordered_columns(srcs, dsts, timestamps, tie_policy)
    if not all(labels):
        raise EmptyLabel(f"graph {graph_id}: node {list(map(bool, labels)).index(False)} has an empty label")
    n = len(labels)
    if srcs and (min(srcs) < 0 or min(dsts) < 0 or max(srcs) >= n or max(dsts) >= n
                 or ts[-1] > MAX_TIMESTAMP  # inputOrder can bump a tie past the range
                 or any(map(eq, srcs, dsts))):
        for src, dst, t in zip(srcs, dsts, ts):
            if not (0 <= src < n) or not (0 <= dst < n):
                raise DanglingEndpoint(
                    f"graph {graph_id}: edge ({src},{dst},{t}) has an endpoint outside 0..{n - 1}")
            if src == dst:
                raise SelfLoop(f"graph {graph_id}: self-loop on node {src} at t={t}")
            if not (0 <= t <= MAX_TIMESTAMP):
                raise GraphError(f"graph {graph_id}: timestamp {t} outside the supported range")
    return TemporalGraph(graph_id, labels, srcs, dsts, ts)


def validate(
    graph_id: str,
    labels: Sequence[str],
    edges: Iterable[tuple[int, int, int]],
) -> TemporalGraph:
    """Build a validated TemporalGraph from raw node labels and (src, dst, t) triples, as
    :func:`validate_columns` does (TieRejected is a DuplicateTimestamp)."""
    srcs, dsts, ts = tuple(zip(*edges)) or ((), (), ())
    return validate_columns(graph_id, list(labels), srcs, dsts, ts)


def is_t_connected(g: TemporalGraph) -> bool:
    """True iff every timestamp-prefix of the edge sequence forms a connected graph.

    Empty and single-edge graphs count as connected.  Uses an incremental
    union-find over the edges in timestamp order, checking after each edge
    that all nodes seen so far form one component.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    components = 0
    for src, dst in zip(g.srcs, g.dsts):
        for v in (src, dst):
            if v not in parent:
                parent[v] = v
                components += 1
        ru, rv = find(src), find(dst)
        if ru != rv:
            parent[ru] = rv
            components -= 1
        if components != 1:
            return False
    return True


def canonical_pattern(
    labels: Mapping[int, str] | Sequence[str],
    edges: Iterable[tuple[int, int, int]],
    graph_id: str = "pattern",
    strict: bool = True,
) -> TemporalPattern:
    """Re-map an edge list with distinct timestamps into canonical pattern form.

    Timestamps become 1..|E| preserving order; node indices are compacted in
    first-visit order under the timestamp traversal.  A self-loop edge raises
    SelfLoop; with strict=True the result must be T-connected (NotTConnected
    otherwise).
    """
    if not isinstance(labels, Mapping):
        labels = {i: lab for i, lab in enumerate(labels)}
    ordered = sorted(edges, key=lambda e: e[2])
    for a, b in zip(ordered, ordered[1:]):
        if a[2] == b[2]:
            raise DuplicateTimestamp(f"duplicate timestamp {a[2]} in pattern edge list")
    remap: dict[int, int] = {}
    new_labels: list[str] = []

    def visit(node: int) -> int:
        if node not in remap:
            lab = labels[node]
            if not lab:
                raise EmptyLabel(f"node {node} has an empty label")
            remap[node] = len(new_labels)
            new_labels.append(lab)
        return remap[node]

    srcs, dsts = [], []
    for src, dst, t in ordered:
        if src == dst:
            raise SelfLoop(f"self-loop on node {src} at t={t}")
        srcs.append(visit(src))
        dsts.append(visit(dst))
    pattern = TemporalPattern(graph_id, new_labels, tuple(srcs), tuple(dsts), tuple(range(1, len(srcs) + 1)))
    if strict and not is_t_connected(pattern):
        raise NotTConnected(f"edge list does not form a T-connected pattern: {pattern.text()}")
    return pattern


def verify_embedding(p: TemporalPattern, g: TemporalGraph, emb: Embedding) -> bool:
    """Independently check that emb is a valid match of p inside g."""
    if len(emb.nodes) != p.n_nodes or len(emb.times) != p.n_edges:
        return False
    if len(set(emb.nodes)) != len(emb.nodes):
        return False
    for i, data_node in enumerate(emb.nodes):
        if not (0 <= data_node < g.n_nodes) or p.labels[i] != g.labels[data_node]:
            return False
    if any(a >= b for a, b in zip(emb.times, emb.times[1:])):
        return False
    data_edges = set(zip(g.srcs, g.dsts, g.timestamps))
    nodes, times = emb.nodes, emb.times
    return all((nodes[s], nodes[d], times[t - 1]) in data_edges
               for s, d, t in zip(p.srcs, p.dsts, p.timestamps))
