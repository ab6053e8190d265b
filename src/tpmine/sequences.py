"""Sequence encodings of temporal graphs and the subsequence-based subgraph test.

Because edges are totally ordered, a temporal graph is faithfully described
by three sequences: the node sequence (nodes in first-visit order), the edge
sequence (endpoint pairs in timestamp order), and the enhanced node sequence
(a node may repeat; built so that any subgraph's node sequence embeds into
it).  A temporal subgraph test then reduces to: find an injective node
mapping realized by a subsequence match of the pattern's node sequence into
the data graph's enhanced node sequence, whose induced edge sequence is a
subsequence of the data edge sequence.

Three independently toggleable heuristics speed up mapping enumeration
without ever changing verdicts: a label-level subsequence pre-check, a local
degree/neighbor-label filter, and memoization of exhausted partial-mapping
prefixes.

Enumerating every embedding instead walks the pattern edges in time order
over per-graph edge indexes (``find_embeddings``, after Mackey et al.,
arXiv:1801.08098).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .graphs import Embedding, TemporalGraph, TemporalPattern


@dataclass(frozen=True)
class NodeSeq:
    """Nodes with labels, ordered by first visit under the timestamp traversal."""

    entries: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class EdgeSeq:
    """Endpoint pairs in ascending timestamp order."""

    entries: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EnhSeq:
    """Enhanced node sequence; nodes may appear multiple times, length <= 2|E|."""

    entries: tuple[tuple[int, str], ...]


def encode(g: TemporalGraph) -> tuple[NodeSeq, EdgeSeq, EnhSeq]:
    """All three sequence encodings, computed in one traversal and cached on g.

    Enhanced-sequence rule per edge (u, v): skip u iff u is the last node
    appended so far or u is the source of the previously processed edge;
    always append v.
    """
    cached = g._cache.get("sequences")
    if cached is not None:
        return cached
    node_entries: list[tuple[int, str]] = []
    seen: set[int] = set()
    edge_entries: list[tuple[int, int]] = []
    enh_entries: list[tuple[int, str]] = []
    prev_src: Optional[int] = None
    for e in g.edges:
        for v in (e.src, e.dst):
            if v not in seen:
                seen.add(v)
                node_entries.append((v, g.labels[v]))
        edge_entries.append((e.src, e.dst))
        last_added = enh_entries[-1][0] if enh_entries else None
        if e.src != last_added and e.src != prev_src:
            enh_entries.append((e.src, g.labels[e.src]))
        enh_entries.append((e.dst, g.labels[e.dst]))
        prev_src = e.src
    result = (NodeSeq(tuple(node_entries)), EdgeSeq(tuple(edge_entries)), EnhSeq(tuple(enh_entries)))
    g._cache["sequences"] = result
    return result


def is_subsequence(s1: Sequence, s2: Sequence, eq: Optional[Callable] = None) -> bool:
    """Greedy left-to-right subsequence test; O(len(s2)) comparisons."""
    i = 0
    n = len(s1)
    if n == 0:
        return True
    if eq is None:
        want = s1[0]
        for item in s2:
            if want == item:
                i += 1
                if i == n:
                    return True
                want = s1[i]
        return False
    for item in s2:
        if eq(s1[i], item):
            i += 1
            if i == n:
                return True
    return False


@dataclass(frozen=True)
class SubgraphTestOptions:
    """Heuristic toggles for the subsequence-based subgraph test."""

    label_sequence_test: bool = True
    local_info: bool = True
    prefix_pruning: bool = True


DEFAULT_OPTIONS = SubgraphTestOptions()
_MEMO_CAP = 1_048_576  # exhausted prefixes kept per search; bounds memory, never a verdict


def _local_compatible(p_prof, g_prof, pnode: int, dnode: int) -> bool:
    """Degree bounds plus incident-neighbor-label multiset containment.

    Superset-safe: a true match maps each incident pattern edge to a distinct
    data edge with the same direction and neighbor label, so any valid
    candidate passes this filter.
    """
    p_in, p_out, p_innbr, p_outnbr = p_prof
    g_in, g_out, g_innbr, g_outnbr = g_prof
    if p_in[pnode] > g_in[dnode] or p_out[pnode] > g_out[dnode]:
        return False
    got = g_innbr[dnode]
    for lab, cnt in p_innbr[pnode].items():
        if got.get(lab, 0) < cnt:
            return False
    got = g_outnbr[dnode]
    for lab, cnt in p_outnbr[pnode].items():
        if got.get(lab, 0) < cnt:
            return False
    return True


def _greedy_edge_match(
    mapped: list[tuple[int, int]], data_pairs: tuple[tuple[int, int], ...]
) -> Optional[list[int]]:
    """Leftmost positions embedding mapped into data_pairs, or None."""
    positions: list[int] = []
    i = 0
    n = len(mapped)
    if n == 0:
        return []
    for pos, pair in enumerate(data_pairs):
        if pair == mapped[i]:
            positions.append(pos)
            i += 1
            if i == n:
                return positions
    return None


def _label_views(g: TemporalGraph) -> tuple[list[str], list[str], list[tuple[str, str]]]:
    """(node-sequence labels, enhanced-sequence labels, edge label pairs), cached."""
    views = g._cache.get("label_views")
    if views is None:
        nsq, esq, enh = encode(g)
        views = (
            [lab for _, lab in nsq.entries],
            [lab for _, lab in enh.entries],
            [(g.labels[s], g.labels[d]) for s, d in esq.entries],
        )
        g._cache["label_views"] = views
    return views


def _label_precheck(p: TemporalPattern, g: TemporalGraph) -> bool:
    """Pure label-level tests; a failed check rules out any match."""
    if not p.label_set() <= g.label_set():
        return False
    p_nsq_labels, _, p_pairs = _label_views(p)
    _, g_enh_labels, g_pairs = _label_views(g)
    if not is_subsequence(p_nsq_labels, g_enh_labels):
        return False
    return is_subsequence(p_pairs, g_pairs)


def _search_mappings(
    p: TemporalPattern,
    g: TemporalGraph,
    opts: SubgraphTestOptions,
    on_mapping: Callable[[dict[int, int]], bool],
) -> None:
    """Enumerate distinct injective node mappings from subsequence matches.

    Pattern nodes are bound in node-sequence order by scanning the enhanced
    node sequence left to right, so mappings come out in a deterministic
    order and witnesses are reproducible.  ``on_mapping`` is called once per
    distinct complete mapping; returning True stops the search.

    Prefix memoization is sound here: positions are explored in increasing
    order, so the first fully explored occurrence of a partial assignment is
    its leftmost realization, whose continuation window is a superset of any
    later occurrence's window.  A memo hit therefore only skips work whose
    outcomes were already covered.
    """
    p_nsq, _, _ = encode(p)
    _, _, g_enh = encode(g)
    nsq = p_nsq.entries
    enh = g_enh.entries
    n = len(nsq)
    if n > len(enh):
        return
    p_prof = p.degree_profile() if opts.local_info else None
    g_prof = g.degree_profile() if opts.local_info else None

    exhausted: set[tuple[int, ...]] = set()
    seen_complete: set[tuple[int, ...]] = set()
    used: set[int] = set()
    assignment: list[int] = []

    def rec(i: int, start: int) -> bool:
        if i == n:
            key = tuple(assignment)
            if key in seen_complete:
                return False
            seen_complete.add(key)
            fmap = {nsq[j][0]: assignment[j] for j in range(n)}
            return on_mapping(fmap)
        prefix = tuple(assignment)
        if opts.prefix_pruning and prefix in exhausted:
            return False
        want_label = nsq[i][1]
        for pos in range(start, len(enh) - (n - i) + 1):
            dnode, dlabel = enh[pos]
            if dlabel != want_label or dnode in used:
                continue
            if opts.local_info and not _local_compatible(p_prof, g_prof, nsq[i][0], dnode):
                continue
            used.add(dnode)
            assignment.append(dnode)
            stop = rec(i + 1, pos + 1)
            assignment.pop()
            used.discard(dnode)
            if stop:
                return True
        if opts.prefix_pruning and len(exhausted) < _MEMO_CAP:
            exhausted.add(prefix)
        return False

    rec(0, 0)


def temporal_subgraph_test(
    p: TemporalPattern,
    g: TemporalGraph,
    opts: SubgraphTestOptions = DEFAULT_OPTIONS,
) -> Optional[Embedding]:
    """Witness embedding if p is a temporal subgraph of g, else None."""
    if p.n_edges > g.n_edges or p.n_nodes > g.n_nodes:
        return None
    if p.n_nodes == 0:
        return Embedding((), ())
    if opts.label_sequence_test and not _label_precheck(p, g):
        return None
    _, p_esq, _ = encode(p)
    _, g_esq, _ = encode(g)
    found: list[Embedding] = []

    def try_mapping(fmap: dict[int, int]) -> bool:
        mapped = [(fmap[s], fmap[d]) for s, d in p_esq.entries]
        positions = _greedy_edge_match(mapped, g_esq.entries)
        if positions is None:
            return False
        nodes = tuple(fmap[i] for i in range(p.n_nodes))
        times = tuple(g.edges[pos].t for pos in positions)
        found.append(Embedding(nodes, times))
        return True

    _search_mappings(p, g, opts, try_mapping)
    return found[0] if found else None


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
    edge by bisection.  ``window`` bounds a match's duration, last minus
    first edge time (None or 0: no bound).  Matches come out in
    chronological order of their edge positions (by first edge, then
    second, ...), and ``limit`` keeps the first ``limit`` of them.
    """
    if window is not None and window < 0:
        raise ValueError("window must be a non-negative number of ticks")
    if limit is not None and limit < 1:
        return []
    if p.n_nodes == 0:
        return [Embedding((), ())]
    plabels = p.labels
    pedges = [(e.src, e.dst) for e in p.edges]
    by_label = g.label_pair_index()
    if (p.n_edges > g.n_edges or p.n_nodes > g.n_nodes
            or any((plabels[s], plabels[d]) not in by_label for s, d in pedges)):
        return []
    by_src, by_dst, by_pair = g.edge_index()
    edges, times, glabels = g.edges, g.timestamps, g.labels
    m = len(pedges)
    fwd = [-1] * p.n_nodes  # data node per pattern node, -1 while unmapped
    chosen = [0] * m  # data time per pattern edge
    out: list[Embedding] = []

    def rec(k: int, after: int, horizon: float) -> bool:
        ps, pd = pedges[k]
        ds, dd = fwd[ps], fwd[pd]
        if ds >= 0:
            cands = by_pair.get((ds, dd), ()) if dd >= 0 else by_src.get(ds, ())
        elif dd >= 0:
            cands = by_dst.get(dd, ())
        else:
            cands = by_label[(plabels[ps], plabels[pd])]
        loop = ps == pd
        bind_dst = dd < 0 and not loop
        for i in range(bisect_right(cands, after), len(cands)):
            pos = cands[i]
            t = times[pos]
            if t > horizon:
                break
            src, dst = edges[pos].src, edges[pos].dst
            if (src == dst) != loop:
                continue
            if ds < 0 and (src in fwd or glabels[src] != plabels[ps]):
                continue
            if bind_dst and (dst in fwd or glabels[dst] != plabels[pd]):
                continue
            if ds < 0:
                fwd[ps] = src
            if bind_dst:
                fwd[pd] = dst
            chosen[k] = t
            if k + 1 == m:
                out.append(Embedding(tuple(fwd), tuple(chosen)))
                stop = limit is not None and len(out) >= limit
            else:
                stop = rec(k + 1, pos, t + window if k == 0 and window else horizon)
            if ds < 0:
                fwd[ps] = -1
            if bind_dst:
                fwd[pd] = -1
            if stop:
                return True
        return False

    rec(0, -1, float("inf"))
    return out
