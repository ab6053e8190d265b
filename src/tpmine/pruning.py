"""Residual signatures and the registry-based branch pruning rules.

After an embedding is fixed, the data edges strictly later than its last
matched timestamp are the room the pattern still has to grow (its residual).
Summing residual sizes over all embeddings compresses a pattern's residual
structure into one integer I; two nested patterns with equal residual
structure have equal I, so I works as a constant-time necessary filter.

The integer alone is not sufficient: distinct residual structures can
collide on the sum (the README's residual-signature section shows a minimal
example), so signatures also carry the per-graph multiset of residual sizes,
and a branch is pruned only when those multisets agree in full.

Two rules skip a pattern's whole search branch when a previously explored
pattern proves it cannot reach the current score threshold:

- subgraph pruning: the current pattern is a temporal subgraph of an already
  fully explored pattern with identical positive residuals whose surplus
  node labels never appear in the current pattern's residual.  The residual
  label set is never built: a graph's longest residual starts at its edge
  count minus its largest residual size, and a surplus label occurs in that
  residual iff the graph's last edge touching the label is at or after the
  start (a per-graph index built once);
- supergraph pruning: the current pattern is a temporal supergraph of an
  already fully explored pattern with the same node count and identical
  positive and negative residuals.

Both rules walk one candidate list, ``PatternRegistry.equivalent``: entries
whose subtree finished (an entry is added at visit and finalizes itself with
its branch maximum at subtree exit, so "largest score in the branch" is well
defined) below the threshold, with equivalent positive residuals.  A
signature holds the graphs themselves, in the order of their graph set for
every pattern, so no decision depends on how either graph list is ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import ge
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graphs import TemporalGraph, TemporalPattern
from .growth import EmbeddingTable
from .scoring import ScoreFunction
from .sequences import find_embeddings, temporal_subgraph_test


@dataclass(frozen=True)
class ResidualSignature:
    """Aggregated residual structure of a pattern over one graph set, in flat columns.

    ``i_value`` sums residual sizes over every embedding of every graph.
    ``graphs`` holds each graph with an embedding, in the order of the graph
    list; ``sizes`` concatenates each one's sorted residual sizes, and
    ``ends[j]`` is where graph j's sizes end, so its longest residual starts
    at edge position ``len(graphs[j].srcs) - sizes[ends[j] - 1]``, which is
    all the surplus-label test reads.  ``exact`` is False when any embedding
    list was cap-truncated, in which case the pruning rules refuse to use the
    signature.
    """

    i_value: int
    sizes: tuple[int, ...]
    ends: tuple[int, ...]
    graphs: tuple[TemporalGraph, ...]
    exact: bool = True

    @cached_property
    def _residual_columns(self) -> tuple[tuple[dict[str, int], ...], tuple[int, ...]]:
        """Per graph, its last edge position per label and where its longest residual starts."""
        sizes = self.sizes
        return (tuple([g.last_label_positions() for g in self.graphs]),
                tuple([len(g.srcs) - sizes[end - 1] for g, end in zip(self.graphs, self.ends)]))

    def residual_has_label(self, labels: Iterable[str]) -> bool:
        """True iff a node with one of ``labels`` touches a residual edge of some graph.

        Later residuals nest inside a graph's longest one, which holds a
        label iff the label's last edge position is at or after its start.
        """
        lasts, starts = self._residual_columns
        return any(any(map(ge, map(dict.get, lasts, repeat(lab), repeat(-1)), starts)) for lab in labels)


def residual_signature(table: EmbeddingTable, graphs: Sequence[TemporalGraph]) -> ResidualSignature:
    """Single pass over the embedding table; one residual per match, the edges after its last.

    Most graphs hold one match, whose residual is read without sorting.
    """
    sizes: list[int] = []
    ends: list[int] = []
    kept: list[TemporalGraph] = []
    entries = table.entries
    for g in graphs:
        embs = entries.get(g)
        if not embs:
            continue
        n = len(g.srcs)
        if len(embs) == 1:
            sizes.append(n - 1 - embs[0][1])
        else:
            sizes += sorted([n - 1 - last for _, last in embs])
        ends.append(len(sizes))
        kept.append(g)
    return ResidualSignature(sum(sizes), tuple(sizes), tuple(ends), tuple(kept), table.exact)


def signatures_equivalent(a: ResidualSignature, b: ResidualSignature) -> bool:
    """Residual equivalence: equal per-graph residual-size multisets over the same graphs.

    The integers are compared first, a constant-time necessary condition;
    the multisets are the property the pruning correctness arguments use.
    """
    return a.i_value == b.i_value and a.sizes == b.sizes and a.ends == b.ends and a.graphs == b.graphs


def score_upper_bound(fn: ScoreFunction, freq_p: float) -> float:
    """Largest score any superpattern can reach: the score at zero negative frequency."""
    if not (0.0 <= freq_p <= 1.0):
        raise ValueError(f"freq_p must lie in [0, 1], got {freq_p}")
    return fn.score(freq_p, 0.0)


@dataclass
class RegistryEntry:
    """An explored pattern; ``neg_graphs`` is None until it is scored, then the negative graphs
    holding it, ``branch_max`` is None until its subtree finishes, and ``sig_n`` until the
    supergraph rule first reads it."""

    pattern: TemporalPattern
    sig_p: ResidualSignature
    neg_graphs: Optional[tuple[TemporalGraph, ...]] = None
    sig_n: Optional[ResidualSignature] = None
    branch_max: Optional[float] = None
    depth_complete: bool = False

    def finalize(self, branch_max: float, depth_complete: bool = True) -> None:
        """Close the entry's subtree.

        ``depth_complete`` records that the subtree never touched the search's
        edge cap, i.e. the explored branch equals the unbounded branch.  Only
        such entries may certify subgraph pruning: the patterns a pruned
        branch corresponds to are LARGER than their counterparts, so a branch
        cut off by the cap says nothing about them.
        """
        self.branch_max = branch_max
        self.depth_complete = depth_complete


class PatternRegistry:
    """Explored patterns bucketed by positive residual integer.

    Bucketing by I never changes a pruning decision (equal I is a necessary
    condition of residual equivalence, which both rules then test on the
    full residual multisets); it only narrows the candidate list.  Once
    ``max_entries`` are recorded, ``add`` still returns an entry but files
    it in no bucket: pruning power degrades but decisions stay sound.
    ``residual_tests`` counts the residual equivalence tests the prune
    checks run against its entries.
    """

    max_entries = 2**20

    def __init__(self):
        self._by_ip: dict[int, list[RegistryEntry]] = {}
        self._recorded = 0
        self.residual_tests = 0

    def add(self, pattern: TemporalPattern, sig_p: ResidualSignature) -> RegistryEntry:
        entry = RegistryEntry(pattern, sig_p)
        if self._recorded < self.max_entries:
            self._recorded += 1
            self._by_ip.setdefault(sig_p.i_value, []).append(entry)
        return entry

    def equivalent(self, sig: ResidualSignature, fstar: float,
                   fits: Callable[[RegistryEntry], bool]) -> Iterator[RegistryEntry]:
        """Finished entries below fstar that pass ``fits`` and whose positive residuals are
        equivalent to ``sig`` (one residual test each), in insertion order; none if sig is inexact."""
        if not sig.exact:
            return
        for entry in self._by_ip.get(sig.i_value, ()):
            if entry.branch_max is None or not entry.branch_max < fstar or not fits(entry):
                continue
            self.residual_tests += 1
            if signatures_equivalent(sig, entry.sig_p):
                yield entry


def _label_multiset_contains(big: tuple[str, ...], small: tuple[str, ...]) -> bool:
    """True iff the sorted tuple ``small`` is a sub-multiset of ``big``."""
    i = 0
    for lab in big:
        if i < len(small) and small[i] == lab:
            i += 1
    return i == len(small)


def subgraph_prune_check(
    g2: TemporalPattern,
    sig2p: ResidualSignature,
    registry: PatternRegistry,
    fstar: float,
) -> Optional[RegistryEntry]:
    """Find a fully explored pattern that makes g2's branch not worth searching.

    Fires on the first registry entry g1 such that g1's branch maximum is
    below fstar, g1's branch is depth-complete (never cut by the edge cap:
    growing g2 tracks growing g1 into strictly larger patterns, so a
    cap-truncated branch cannot vouch for them), g2 is a temporal subgraph
    of g1, their positive residuals are equivalent, and the labels of g1's
    nodes outside g2's image never occur in g2's positive residual label
    set.  Residual equivalence is checked before the node mapping because
    equivalence is what guarantees the mapping is unique; if several
    mappings survive anyway, the rule is skipped for that candidate.
    """
    g2_labels = g2.label_multiset()

    def fits(entry: RegistryEntry) -> bool:
        g1 = entry.pattern
        return (entry.depth_complete and g1.n_edges >= g2.n_edges and g1.n_nodes >= g2.n_nodes
                and _label_multiset_contains(g1.label_multiset(), g2_labels))

    for entry in registry.equivalent(sig2p, fstar, fits):
        node_maps = {emb.nodes for emb in find_embeddings(g2, entry.pattern)}
        if len(node_maps) != 1:
            continue
        image = set(next(iter(node_maps)))
        labels = entry.pattern.labels
        # g2's residuals equal the entry's, whose signature keeps its columns across checks
        if not entry.sig_p.residual_has_label({labels[v] for v in range(len(labels)) if v not in image}):
            return entry
    return None


def supergraph_prune_check(
    g2: TemporalPattern,
    sig2p: ResidualSignature,
    neg_graphs: Sequence[TemporalGraph],
    registry: PatternRegistry,
    fstar: float,
    neg_signature: Callable[[TemporalPattern, Optional[Sequence[TemporalGraph]]], ResidualSignature],
) -> Optional[RegistryEntry]:
    """Mirror rule: g2 extends an explored pattern without changing residuals.

    Fires on a finished entry g1 with branch maximum below fstar such that
    g1 is a temporal subgraph of g2 (``temporal_subgraph_test`` finds a
    first match), node counts match, and both positive and negative
    residuals are equivalent.  ``neg_signature(pattern, graphs)`` builds a
    negative signature over ``graphs``, the negative graphs holding the
    pattern (every negative graph when None), only when needed: first for
    the candidate, over its ``neg_graphs`` and cached on the entry, then
    once for g2, because negative-side enumeration is the expensive part.
    Entries that are ancestors of g2 are never finished while g2 is open, so
    a pattern can never be pruned against its own growth path.
    """
    g2_labels = g2.label_multiset()

    def fits(entry: RegistryEntry) -> bool:
        g1 = entry.pattern
        return g1.n_nodes == g2.n_nodes and g1.n_edges <= g2.n_edges and g1.label_multiset() == g2_labels

    sig2n: Optional[ResidualSignature] = None
    for entry in registry.equivalent(sig2p, fstar, fits):
        if temporal_subgraph_test(entry.pattern, g2) is None:
            continue
        if entry.sig_n is None:
            entry.sig_n = neg_signature(entry.pattern, entry.neg_graphs)
        if not entry.sig_n.exact:
            continue
        if sig2n is None:
            sig2n = neg_signature(g2, neg_graphs)
        if not sig2n.exact:
            return None
        registry.residual_tests += 1
        if signatures_equivalent(sig2n, entry.sig_n):
            return entry
    return None
