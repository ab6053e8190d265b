"""Depth-first search over the T-connected pattern space.

Starting from the empty pattern, the search grows one-edge seeds and then
extends each pattern edge by edge, maintaining the pattern's embeddings in
the positive graphs incrementally.  Each visited pattern is scored against
the negatives with the configured discriminative function; three pruning
rules (the frequency upper bound, subgraph pruning, and supergraph pruning)
can each skip a branch without affecting the maximum-score result.

The score threshold used by all pruning rules is the k-th best score seen so
far (k = top_k), which keeps pruning valid when more than one pattern is
reported: anything pruned is strictly below the threshold and therefore
below every pattern in the final top-k.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .graphs import Embedding, TemporalGraph, TemporalPattern
from .growth import EmbeddingTable, empty_pattern, empty_table, expand, grow
from .pruning import (
    PatternRegistry,
    RegistryEntry,
    ResidualSignature,
    residual_signature,
    score_upper_bound,
    subgraph_prune_check,
    supergraph_prune_check,
)
from .scoring import InterestModel, LogRatio, ScoreFunction, ScoredPattern, rank
# temporal_subgraph_test is not called: bench/tracing.py patches the name for --trace 1
from .sequences import find_embeddings, temporal_subgraph_test  # noqa: F401


class EmptyDataset(ValueError):
    pass


class ConfigInvalid(ValueError):
    pass


@dataclass(frozen=True)
class MiningConfig:
    """Settings of one mining run.

    ``seed`` is provenance only: it is written to the report and has no
    effect on mining, which is deterministic.
    """

    max_edges: int = 6
    top_k: int = 5
    score_fn: ScoreFunction = LogRatio()
    use_bound_prune: bool = True
    use_subgraph_prune: bool = True
    use_supergraph_prune: bool = True
    embedding_cap: int = 10_000
    min_freq_p: float = 0.0
    residual_check: str = "profile"
    blacklist: frozenset[str] = frozenset()
    registry_max_entries: int = 2**20
    behavior: str = "behavior"
    seed: int = 0

    def validated(self) -> "MiningConfig":
        if self.max_edges < 1:
            raise ConfigInvalid("max_edges must be at least 1")
        if self.top_k < 1:
            raise ConfigInvalid("top_k must be at least 1")
        if self.embedding_cap < 1:
            raise ConfigInvalid("embedding_cap must be at least 1")
        if not (0.0 <= self.min_freq_p <= 1.0):
            raise ConfigInvalid("min_freq_p must lie in [0, 1]")
        if self.residual_check not in ("profile", "int"):
            raise ConfigInvalid("residual_check must be 'profile' or 'int'")
        return self


@dataclass
class MiningStats:
    patterns_visited: int = 0
    bound_prune_fires: int = 0
    subgraph_prune_fires: int = 0
    supergraph_prune_fires: int = 0
    subiso_tests: int = 0
    residual_tests: int = 0
    wall_time: float = 0.0


@dataclass
class MiningResult:
    ranked: list[ScoredPattern]
    max_score: float
    maximizers: list[ScoredPattern]
    stats: MiningStats
    config: MiningConfig


VisitHook = Callable[[TemporalPattern, Optional[TemporalPattern], float, Optional[float], str], None]


def _check_dataset(graphs: Sequence[TemporalGraph], role: str) -> None:
    if not graphs:
        raise EmptyDataset(f"{role} graph set is empty")
    ids = [g.id for g in graphs]
    if len(set(ids)) != len(ids):
        raise EmptyDataset(f"duplicate graph ids in the {role} set")


class _Session:
    """State for one mining run."""

    def __init__(self, positives, negatives, cfg: MiningConfig, on_visit: Optional[VisitHook]):
        self.positives: list[TemporalGraph] = list(positives)
        self.negatives: list[TemporalGraph] = list(negatives)
        self.pos_by_id = {g.id: g for g in self.positives}
        self.neg_by_id = {g.id: g for g in self.negatives}
        self.cfg = cfg
        self.on_visit = on_visit
        self.stats = MiningStats()
        self.registry = PatternRegistry(cfg.registry_max_entries)
        self.scored: list[tuple[TemporalPattern, float, float, float]] = []
        self._heap: list[float] = []

    def fstar(self) -> float:
        if len(self._heap) < self.cfg.top_k:
            return float("-inf")
        return self._heap[0]

    def record_score(self, pattern, s: float, fp: float, fn: float) -> None:
        self.scored.append((pattern, s, fp, fn))
        if len(self._heap) < self.cfg.top_k:
            heapq.heappush(self._heap, s)
        elif s > self._heap[0]:
            heapq.heapreplace(self._heap, s)

    def count_residual_test(self) -> None:
        self.stats.residual_tests += 1

    def first_match(self, p: TemporalPattern, g: TemporalGraph) -> Optional[Embedding]:
        """Chronologically first match of p in g, or None; counts one subgraph test."""
        self.stats.subiso_tests += 1
        found = find_embeddings(p, g, limit=1)
        return found[0] if found else None

    def exact_support(self, pattern: TemporalPattern, table: EmbeddingTable) -> int:
        """Number of positive graphs containing the pattern; exact even under truncation.

        A graph whose parent list was truncated may lose all stored children
        while still containing the pattern, so absence there is re-checked
        with a first-match search and a found witness is kept.
        """
        for gid in table.truncated:
            if not table.entries.get(gid):
                witness = self.first_match(pattern, self.pos_by_id[gid])
                if witness is not None:
                    table.entries[gid] = [witness]
        return len(table.support_ids())

    def children(self, pattern: TemporalPattern, table: EmbeddingTable) -> Iterator[tuple]:
        """(child, child table, freq_p) per one-edge growth that meets the support floor."""
        for ext, child_table in expand(table, self.positives, self.cfg.embedding_cap).items():
            child = grow(pattern, ext)
            freq_p = self.exact_support(child, child_table) / len(self.positives)
            if freq_p == 0.0 or freq_p < self.cfg.min_freq_p:
                continue
            yield child, child_table, freq_p

    def neg_signature(self, pattern: TemporalPattern, neg_support: Sequence[str]) -> ResidualSignature:
        """Full negative-side signature, enumerated on demand."""
        entries = {}
        truncated = set()
        for gid in neg_support:
            g = self.neg_by_id[gid]
            embs = find_embeddings(pattern, g, limit=self.cfg.embedding_cap)
            if len(embs) >= self.cfg.embedding_cap:
                truncated.add(gid)
            entries[gid] = embs
        table = EmbeddingTable(entries, frozenset(truncated))
        return residual_signature(table, [self.neg_by_id[gid] for gid in neg_support])

    def entry_neg_signature(self, entry: RegistryEntry) -> Optional[ResidualSignature]:
        if entry.sig_n is not None:
            return entry.sig_n
        if entry.neg_support is None:
            support = [g.id for g in self.negatives if self.first_match(entry.pattern, g) is not None]
            entry.neg_support = frozenset(support)
        entry.sig_n = self.neg_signature(entry.pattern, sorted(entry.neg_support))
        return entry.sig_n


def mine(
    positives: Sequence[TemporalGraph],
    negatives: Sequence[TemporalGraph],
    cfg: MiningConfig = MiningConfig(),
    on_visit: Optional[VisitHook] = None,
) -> MiningResult:
    """Mine the most discriminative T-connected patterns up to cfg.max_edges edges.

    Returns the top-k ranked patterns plus the full set of maximum-score
    patterns.  With the default configuration the maximizer set is exact:
    every pattern with at least one positive embedding and at most max_edges
    edges is either visited and scored or pruned with a certificate that its
    whole branch scores strictly below the reported maximum.
    """
    cfg = cfg.validated()
    _check_dataset(positives, "positive")
    _check_dataset(negatives, "negative")
    started = time.monotonic()
    session = _Session(positives, negatives, cfg, on_visit)
    n_neg = len(session.negatives)
    fn = cfg.score_fn

    def visit(
        pattern: TemporalPattern,
        table: EmbeddingTable,
        parent: Optional[TemporalPattern],
        parent_neg_support: list[str],
        freq_p: float,
    ) -> tuple[float, int]:
        """Explore one pattern.

        Returns (branch score bound, reach): the bound holds for every
        pattern in the branch at any depth, and reach is the largest edge
        count whose scores the bound is known to cover by exploration; a
        reach below max_edges means the branch ended naturally, so the
        explored tree equals the unbounded tree.
        """
        session.stats.patterns_visited += 1
        sig_p = residual_signature(table, session.positives)
        entry = session.registry.add(pattern, sig_p)

        bound = score_upper_bound(fn, freq_p)
        if cfg.use_bound_prune and bound < session.fstar():
            session.stats.bound_prune_fires += 1
            if on_visit:
                on_visit(pattern, parent, freq_p, None, "bound_pruned")
            if entry:
                session.registry.finalize(entry, bound)
            # the frequency bound dominates descendants at every depth
            return bound, pattern.n_edges

        if cfg.use_subgraph_prune:
            hit = subgraph_prune_check(
                pattern,
                sig_p,
                session.registry,
                session.fstar(),
                mode=cfg.residual_check,
                count_test=session.count_residual_test,
            )
            if hit is not None:
                session.stats.subgraph_prune_fires += 1
                if on_visit:
                    on_visit(pattern, parent, freq_p, None, "subgraph_pruned")
                if entry:
                    session.registry.finalize(entry, hit.branch_max)
                # the certifying branch is depth-complete, so its maximum
                # covers this branch at every depth too
                return hit.branch_max, pattern.n_edges

        neg_support = [
            gid for gid in parent_neg_support
            if session.first_match(pattern, session.neg_by_id[gid]) is not None
        ]
        freq_n = len(neg_support) / n_neg
        s = fn.score(freq_p, freq_n)
        session.record_score(pattern, s, freq_p, freq_n)
        if entry:
            entry.neg_support = frozenset(neg_support)
        if on_visit:
            on_visit(pattern, parent, freq_p, freq_n, "scored")

        if cfg.use_supergraph_prune:
            hit = supergraph_prune_check(
                pattern,
                sig_p,
                lambda: session.neg_signature(pattern, neg_support),
                session.registry,
                session.fstar(),
                mode=cfg.residual_check,
                sig_n_of=session.entry_neg_signature,
                count_test=session.count_residual_test,
            )
            if hit is not None:
                session.stats.supergraph_prune_fires += 1
                cert = max(s, hit.branch_max)
                if entry:
                    session.registry.finalize(entry, cert)
                # this branch's deep counterparts are smaller patterns in the
                # certifying branch; coverage beyond the cap is only known
                # when that branch was itself depth-complete
                reach = pattern.n_edges if hit.depth_complete else cfg.max_edges
                return cert, reach

        branch_max = s
        reach = pattern.n_edges
        if pattern.n_edges < cfg.max_edges:
            for child, child_table, child_freq_p in session.children(pattern, table):
                child_max, child_reach = visit(child, child_table, pattern, neg_support, child_freq_p)
                branch_max = max(branch_max, child_max)
                reach = max(reach, child_reach)
        if entry:
            session.registry.finalize(entry, branch_max, depth_complete=reach < cfg.max_edges)
        return branch_max, reach

    all_neg_ids = [g.id for g in session.negatives]
    for seedling, seed_table, freq_p in session.children(empty_pattern(), empty_table(session.positives)):
        visit(seedling, seed_table, None, all_neg_ids, freq_p)

    model = InterestModel.from_graphs(
        list(session.positives) + list(session.negatives), cfg.blacklist
    )
    ranked = rank(session.scored, model, cfg.top_k)
    max_score = max((s for _, s, _, _ in session.scored), default=float("-inf"))
    maximizer_entries = [e for e in session.scored if abs(e[1] - max_score) <= 1e-12]
    maximizers = rank(maximizer_entries, model, len(maximizer_entries))
    session.stats.wall_time = time.monotonic() - started
    return MiningResult(
        ranked=ranked,
        max_score=max_score,
        maximizers=maximizers,
        stats=session.stats,
        config=cfg,
    )
