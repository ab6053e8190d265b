"""Residual signatures and the registry-based branch pruning rules.

After an embedding is fixed, the data edges strictly later than its last
matched timestamp are the room the pattern still has to grow (its residual).
Summing residual sizes over all embeddings compresses a pattern's residual
structure into one integer I; two nested patterns with equal residual
structure have equal I, so I works as a constant-time necessary filter.

The integer alone is not sufficient: distinct residual structures can
collide on the sum (the README's residual-signature section shows a minimal
example), so signatures also carry the per-graph multiset of residual sizes,
and the default "profile" mode requires full multiset equality before a
branch is pruned.  "int" mode trusts the integer alone.

Two rules skip a pattern's whole search branch when a previously explored
pattern proves it cannot reach the current score threshold:

- subgraph pruning: the current pattern is a temporal subgraph of an already
  fully explored pattern with identical positive residuals whose surplus
  node labels never appear in the current pattern's residual.  The residual
  label set is never built: a signature keeps, per graph, where its longest
  residual starts, and a surplus label occurs in that residual iff the
  graph's last edge touching the label is at or after the start (a per-graph
  index built once);
- supergraph pruning: the current pattern is a temporal supergraph of an
  already fully explored pattern with the same node count and identical
  positive and negative residuals.

Both rules consult only registry entries whose subtree finished (entries are
inserted provisionally at visit and finalized with their branch-maximum
score at subtree exit), so "largest score in the branch" is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .graphs import TemporalGraph, TemporalPattern
from .growth import EmbeddingTable
from .scoring import ScoreFunction
# temporal_subgraph_test is not called: bench/tracing.py patches the name for --trace 1
from .sequences import find_embeddings, temporal_subgraph_test  # noqa: F401


@dataclass(frozen=True)
class ResidualSignature:
    """Aggregated residual structure of a pattern over one graph set.

    ``i_value`` sums residual sizes over every embedding of every graph;
    ``profile`` keeps the per-graph sorted multisets the sum was built from;
    ``starts`` pairs each graph holding an embedding with the edge position
    where its longest residual starts (edge count minus the largest size),
    which is all the surplus-label test reads.  ``exact`` is False when any
    embedding list was cap-truncated, in which case the pruning rules refuse
    to use the signature.
    """

    i_value: int
    profile: tuple[tuple[str, tuple[int, ...]], ...]
    starts: tuple[tuple[TemporalGraph, int], ...]
    exact: bool = True

    def residual_has_label(self, labels: Iterable[str]) -> bool:
        """True iff a node with one of ``labels`` touches a residual edge of some graph.

        Later residuals nest inside a graph's longest one, which holds a
        label iff the label's last edge position is at or after its start.
        """
        return any(g.last_label_positions().get(lab, -1) >= start
                   for g, start in self.starts for lab in labels)


def residual_signature(table: EmbeddingTable, graphs: Sequence[TemporalGraph]) -> ResidualSignature:
    """Single pass over the embedding table; one residual per embedding."""
    total = 0
    profile: list[tuple[str, tuple[int, ...]]] = []
    starts: list[tuple[TemporalGraph, int]] = []
    for g in graphs:
        embs = table.entries.get(g.id)
        if not embs:
            continue
        sizes = sorted(g.edges_after(e.max_data_time) for e in embs)
        profile.append((g.id, tuple(sizes)))
        starts.append((g, g.n_edges - sizes[-1]))
        total += sum(sizes)
    return ResidualSignature(total, tuple(profile), tuple(starts), exact=table.exact)


def signatures_equivalent(a: ResidualSignature, b: ResidualSignature, mode: str = "profile") -> bool:
    """Residual equivalence test between two signatures.

    "int" compares the compressed integers only (constant time); "profile"
    additionally requires the per-graph residual-size multisets to agree,
    which is the property the pruning correctness arguments actually use.
    """
    if a.i_value != b.i_value:
        return False
    if mode == "int":
        return True
    if mode == "profile":
        return a.profile == b.profile
    raise ValueError(f"unknown residual check mode {mode!r}")


def score_upper_bound(fn: ScoreFunction, freq_p: float) -> float:
    """Largest score any superpattern can reach: the score at zero negative frequency."""
    if not (0.0 <= freq_p <= 1.0):
        raise ValueError(f"freq_p must lie in [0, 1], got {freq_p}")
    return fn.score(freq_p, 0.0)


@dataclass
class RegistryEntry:
    pattern: TemporalPattern
    n_nodes: int
    n_edges: int
    label_multiset: tuple[str, ...]
    sig_p: ResidualSignature
    neg_support: Optional[frozenset[str]] = None
    sig_n: Optional[ResidualSignature] = None
    branch_max: float = float("-inf")
    finalized: bool = False
    depth_complete: bool = False


class PatternRegistry:
    """Explored patterns bucketed by positive residual integer.

    Bucketing by I never changes a pruning decision (equal I is a necessary
    condition of both rules); it only narrows the candidate list.  Once
    ``max_entries`` is reached no further entries are recorded: pruning
    power degrades but decisions stay sound.
    """

    def __init__(self, max_entries: int = 2**20):
        self.max_entries = max_entries
        self.entries: list[RegistryEntry] = []
        self._by_ip: dict[int, list[RegistryEntry]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, pattern: TemporalPattern, sig_p: ResidualSignature) -> Optional[RegistryEntry]:
        if len(self.entries) >= self.max_entries:
            return None
        entry = RegistryEntry(
            pattern=pattern,
            n_nodes=pattern.n_nodes,
            n_edges=pattern.n_edges,
            label_multiset=pattern.label_multiset(),
            sig_p=sig_p,
        )
        self.entries.append(entry)
        self._by_ip.setdefault(sig_p.i_value, []).append(entry)
        return entry

    def finalize(self, entry: RegistryEntry, branch_max: float, depth_complete: bool = True) -> None:
        """Close an entry's subtree.

        ``depth_complete`` records that the subtree never touched the search's
        edge cap, i.e. the explored branch equals the unbounded branch.  Only
        such entries may certify subgraph pruning: the patterns a pruned
        branch corresponds to are LARGER than their counterparts, so a branch
        cut off by the cap says nothing about them.
        """
        entry.branch_max = branch_max
        entry.finalized = True
        entry.depth_complete = depth_complete

    def candidates(self, i_value: int) -> Iterable[RegistryEntry]:
        return self._by_ip.get(i_value, ())


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
    mode: str = "profile",
    count_test: Optional[Callable[[], None]] = None,
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
    if not sig2p.exact:
        return None
    for entry in registry.candidates(sig2p.i_value):
        if not entry.finalized or not entry.depth_complete or not entry.branch_max < fstar:
            continue
        if entry.n_edges < g2.n_edges or entry.n_nodes < g2.n_nodes:
            continue
        if not _label_multiset_contains(entry.label_multiset, g2.label_multiset()):
            continue
        if count_test is not None:
            count_test()
        if not signatures_equivalent(sig2p, entry.sig_p, mode):
            continue
        node_maps = {emb.nodes for emb in find_embeddings(g2, entry.pattern)}
        if len(node_maps) != 1:
            continue
        image = set(next(iter(node_maps)))
        surplus_labels = {
            entry.pattern.labels[v] for v in range(entry.n_nodes) if v not in image
        }
        if sig2p.residual_has_label(surplus_labels):
            continue
        return entry
    return None


def supergraph_prune_check(
    g2: TemporalPattern,
    sig2p: ResidualSignature,
    sig2n_lazy: Callable[[], ResidualSignature],
    registry: PatternRegistry,
    fstar: float,
    mode: str = "profile",
    sig_n_of: Optional[Callable[[RegistryEntry], Optional[ResidualSignature]]] = None,
    count_test: Optional[Callable[[], None]] = None,
) -> Optional[RegistryEntry]:
    """Mirror rule: g2 extends an explored pattern without changing residuals.

    Fires on a finalized entry g1 with branch maximum below fstar such that
    g1 is a temporal subgraph of g2 (``find_embeddings`` finds a first
    match), node counts match, and both positive and negative residuals are
    equivalent.  Negative signatures are fetched lazily (first for the
    candidate, then for g2) because negative-side enumeration is the
    expensive part.  Entries that are ancestors of g2 are
    never finalized while g2 is open, so a pattern can never be pruned
    against its own growth path.
    """
    if not sig2p.exact:
        return None
    sig2n: Optional[ResidualSignature] = None
    g2_labels = g2.label_multiset()
    for entry in registry.candidates(sig2p.i_value):
        if not entry.finalized or not entry.branch_max < fstar:
            continue
        if entry.n_nodes != g2.n_nodes or entry.n_edges > g2.n_edges:
            continue
        if entry.label_multiset != g2_labels:
            continue
        if count_test is not None:
            count_test()
        if not signatures_equivalent(sig2p, entry.sig_p, mode):
            continue
        if not find_embeddings(entry.pattern, g2, limit=1):
            continue
        entry_sig_n = entry.sig_n
        if entry_sig_n is None and sig_n_of is not None:
            entry_sig_n = sig_n_of(entry)
        if entry_sig_n is None or not entry_sig_n.exact:
            continue
        if sig2n is None:
            sig2n = sig2n_lazy()
        if not sig2n.exact:
            return None
        if count_test is not None:
            count_test()
        if not signatures_equivalent(sig2n, entry_sig_n, mode):
            continue
        return entry
    return None
