"""The paper's sequence-based temporal subgraph test, kept as a reference for the tests.

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

The library answers the same question with one indexed chronological search
(``tpmine.sequences.temporal_subgraph_test``); this engine shares no code
with it and takes only the data model from ``tpmine.graphs``, so agreement
between the two is evidence for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from tpmine.graphs import Embedding, TemporalGraph, TemporalPattern


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
    for src, dst in zip(g.srcs, g.dsts):
        for v in (src, dst):
            if v not in seen:
                seen.add(v)
                node_entries.append((v, g.labels[v]))
        edge_entries.append((src, dst))
        last_added = enh_entries[-1][0] if enh_entries else None
        if src != last_added and src != prev_src:
            enh_entries.append((src, g.labels[src]))
        enh_entries.append((dst, g.labels[dst]))
        prev_src = src
    result = (NodeSeq(tuple(node_entries)), EdgeSeq(tuple(edge_entries)), EnhSeq(tuple(enh_entries)))
    g._cache["sequences"] = result
    return result


def is_subsequence(s1: Sequence, s2: Sequence) -> bool:
    """Greedy left-to-right subsequence test; O(len(s2)) comparisons."""
    if not s1:
        return True
    i, n, want = 0, len(s1), s1[0]
    for item in s2:
        if want == item:
            i += 1
            if i == n:
                return True
            want = s1[i]
    return False


@dataclass(frozen=True)
class SubgraphTestOptions:
    """Heuristic toggles for the subsequence-based subgraph test."""

    label_sequence_test: bool = True
    local_info: bool = True
    prefix_pruning: bool = True


DEFAULT_OPTIONS = SubgraphTestOptions()
_MEMO_CAP = 1_048_576  # exhausted prefixes kept per search; bounds memory, never a verdict


def _degree_profile(g: TemporalGraph) -> tuple:
    """Per-node (in degree, out degree, in-neighbor label counts, out-neighbor label counts), cached."""
    prof = g._cache.get("degree_profile")
    if prof is None:
        n = g.n_nodes
        indeg = [0] * n
        outdeg = [0] * n
        innbr: list[dict[str, int]] = [dict() for _ in range(n)]
        outnbr: list[dict[str, int]] = [dict() for _ in range(n)]
        for src, dst in zip(g.srcs, g.dsts):
            outdeg[src] += 1
            indeg[dst] += 1
            dl = g.labels[dst]
            sl = g.labels[src]
            outnbr[src][dl] = outnbr[src].get(dl, 0) + 1
            innbr[dst][sl] = innbr[dst].get(sl, 0) + 1
        prof = (tuple(indeg), tuple(outdeg), tuple(innbr), tuple(outnbr))
        g._cache["degree_profile"] = prof
    return prof


def _label_set(g: TemporalGraph) -> frozenset[str]:
    s = g._cache.get("label_set")
    if s is None:
        s = frozenset(g.labels)
        g._cache["label_set"] = s
    return s


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
    if not _label_set(p) <= _label_set(g):
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
    p_prof = _degree_profile(p) if opts.local_info else None
    g_prof = _degree_profile(g) if opts.local_info else None

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
    del rec  # rec refers to itself through its closure cell; this frees both without the collector


def sequence_subgraph_test(
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
        times = tuple(g.timestamps[pos] for pos in positions)
        found.append(Embedding(nodes, times))
        return True

    _search_mappings(p, g, opts, try_mapping)
    return found[0] if found else None
